//! Information-flow policies and Common Criteria style flow audits.
//!
//! The Covert Channel analysis of the Common Criteria (Chapter 14, the
//! paper's motivation) asks the designer to justify every information flow in
//! the system.  This module provides the bookkeeping: a [`Policy`] declares
//! which flows between resources are permitted (either as an explicit edge
//! whitelist or as a lattice of security levels), and [`audit`] reports every
//! edge of an information-flow graph that the policy does not cover.

use crate::graph::FlowGraph;
use crate::rm::Node;
use std::collections::{BTreeMap, BTreeSet};
use vhdl1_syntax::Ident;

/// A security level in a totally ordered lattice (`0` = public/low, larger =
/// more confidential).
pub type Level = u32;

/// A flow policy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Policy {
    /// Security level per resource name; flows from a higher to a strictly
    /// lower level are violations.  Resources without a level are
    /// unconstrained by the lattice.
    pub levels: BTreeMap<Ident, Level>,
    /// Explicitly permitted flows (by resource name), e.g. declassification
    /// through an encryption unit.
    pub allowed: BTreeSet<(Ident, Ident)>,
}

impl Policy {
    /// Creates an empty (fully permissive) policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the security level of a resource.
    pub fn with_level(mut self, name: impl Into<Ident>, level: Level) -> Self {
        self.levels.insert(name.into(), level);
        self
    }

    /// Permits an explicit flow.
    pub fn with_allowed(mut self, from: impl Into<Ident>, to: impl Into<Ident>) -> Self {
        self.allowed.insert((from.into(), to.into()));
        self
    }

    /// Parses the textual policy format used by `vhdl1c --policy` files.
    ///
    /// One directive per line; blank lines and `#` comments are ignored:
    ///
    /// ```text
    /// # resource levels (0 = public, larger = more confidential)
    /// level key 2
    /// level bus 0
    /// # intended flows (declassifications)
    /// allow key -> ciphertext
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    ///
    /// # Examples
    ///
    /// ```
    /// use vhdl1_infoflow::Policy;
    ///
    /// let p = Policy::parse_text("level key 2\nallow key -> ct\n").unwrap();
    /// assert!(!p.permits("key", "anything_leveled")
    ///     || p.levels.get("key") == Some(&2));
    /// assert!(p.permits("key", "ct"));
    /// ```
    pub fn parse_text(text: &str) -> Result<Policy, String> {
        let mut policy = Policy::new();
        for (lineno, raw) in text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("level") => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("line {lineno}: `level` needs a resource name"))?;
                    let level: Level = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("line {lineno}: `level {name}` needs a number"))?;
                    if let Some(junk) = parts.next() {
                        return Err(format!(
                            "line {lineno}: unexpected `{junk}` after `level {name} {level}`"
                        ));
                    }
                    policy.levels.insert(name.to_string(), level);
                }
                Some("allow") => {
                    let rest: String = parts.collect::<Vec<_>>().join(" ");
                    let (from, to) = rest.split_once("->").ok_or_else(|| {
                        format!("line {lineno}: `allow` needs `from -> to`, got `{rest}`")
                    })?;
                    let (from, to) = (from.trim(), to.trim());
                    if from.is_empty()
                        || to.is_empty()
                        || from.contains(char::is_whitespace)
                        || to.contains(char::is_whitespace)
                    {
                        return Err(format!(
                            "line {lineno}: `allow` endpoints must be single resource \
                             names, got `{rest}`"
                        ));
                    }
                    policy.allowed.insert((from.to_string(), to.to_string()));
                }
                Some(other) => {
                    return Err(format!(
                        "line {lineno}: unknown directive `{other}` (expected `level` or `allow`)"
                    ))
                }
                None => unreachable!("empty lines are skipped"),
            }
        }
        Ok(policy)
    }

    /// Renders the policy in the [`Policy::parse_text`] format.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, level) in &self.levels {
            let _ = writeln!(out, "level {name} {level}");
        }
        for (from, to) in &self.allowed {
            let _ = writeln!(out, "allow {from} -> {to}");
        }
        out
    }

    /// Whether a flow between two resource names is permitted.
    pub fn permits(&self, from: &str, to: &str) -> bool {
        if self.allowed.contains(&(from.to_string(), to.to_string())) {
            return true;
        }
        match (self.levels.get(from), self.levels.get(to)) {
            (Some(lf), Some(lt)) => lf <= lt,
            // Unclassified endpoints are unconstrained.
            _ => true,
        }
    }
}

/// A policy violation: an edge of the flow graph that the policy forbids.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Source node of the offending edge.
    pub from: Node,
    /// Target node of the offending edge.
    pub to: Node,
    /// Level of the source, if classified.
    pub from_level: Option<Level>,
    /// Level of the target, if classified.
    pub to_level: Option<Level>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "illicit flow {} -> {}", self.from, self.to)?;
        if let (Some(a), Some(b)) = (self.from_level, self.to_level) {
            write!(f, " (level {a} -> level {b})")?;
        }
        Ok(())
    }
}

/// The outcome of auditing a flow graph against a policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Every edge that violates the policy.
    pub violations: Vec<Violation>,
    /// Number of edges examined.
    pub edges_checked: usize,
}

impl AuditReport {
    /// Whether the graph satisfies the policy.
    pub fn is_secure(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Audits every edge of `graph` against `policy`.  Incoming/outgoing nodes
/// are compared by their underlying resource name.
pub fn audit(graph: &FlowGraph, policy: &Policy) -> AuditReport {
    let mut violations = Vec::new();
    let mut edges_checked = 0;
    for (from, to) in graph.edges() {
        edges_checked += 1;
        if !policy.permits(from.name(), to.name()) {
            violations.push(Violation {
                from: from.clone(),
                to: to.clone(),
                from_level: policy.levels.get(from.name()).copied(),
                to_level: policy.levels.get(to.name()).copied(),
            });
        }
    }
    violations.sort();
    AuditReport {
        violations,
        edges_checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> FlowGraph {
        let mut g = FlowGraph::new();
        g.add_edge(Node::res("key"), Node::res("cipher"));
        g.add_edge(Node::res("cipher"), Node::res("bus"));
        g.add_edge(Node::res("key"), Node::res("debug"));
        g
    }

    #[test]
    fn lattice_violations_are_reported() {
        let policy = Policy::new()
            .with_level("key", 2)
            .with_level("cipher", 2)
            .with_level("bus", 0)
            .with_level("debug", 0)
            .with_allowed("cipher", "bus"); // declassification through the cipher
        let report = audit(&graph(), &policy);
        assert_eq!(report.edges_checked, 3);
        assert!(!report.is_secure());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].from, Node::res("key"));
        assert_eq!(report.violations[0].to, Node::res("debug"));
        assert!(report.violations[0].to_string().contains("illicit flow"));
    }

    #[test]
    fn unclassified_resources_are_unconstrained() {
        let policy = Policy::new().with_level("key", 2);
        let report = audit(&graph(), &policy);
        assert!(report.is_secure());
    }

    #[test]
    fn explicit_allow_list_overrides_lattice() {
        let policy = Policy::new()
            .with_level("key", 2)
            .with_level("debug", 0)
            .with_allowed("key", "debug");
        assert!(policy.permits("key", "debug"));
        assert!(audit(&graph(), &policy).is_secure());
    }

    #[test]
    fn policy_text_roundtrips() {
        let policy = Policy::new()
            .with_level("key", 2)
            .with_level("bus", 0)
            .with_allowed("key", "ciphertext");
        let text = policy.to_text();
        assert_eq!(Policy::parse_text(&text).unwrap(), policy);
    }

    #[test]
    fn policy_text_accepts_comments_and_blank_lines() {
        let p = Policy::parse_text("# header\n\nlevel key 2  # trailing\nallow a -> b\n").unwrap();
        assert_eq!(p.levels.get("key"), Some(&2));
        assert!(p.allowed.contains(&("a".to_string(), "b".to_string())));
    }

    #[test]
    fn policy_text_rejects_malformed_lines() {
        assert!(Policy::parse_text("level key").is_err());
        assert!(Policy::parse_text("level key notanumber").is_err());
        assert!(Policy::parse_text("allow a b").is_err());
        assert!(Policy::parse_text("deny a -> b").is_err());
        // Trailing junk is an error, not silently ignored.
        assert!(Policy::parse_text("level key 2 oops").is_err());
        assert!(Policy::parse_text("allow key -> ct extra").is_err());
        assert!(Policy::parse_text("allow -> ct").is_err());
    }

    #[test]
    fn annotated_nodes_compare_by_name() {
        let mut g = FlowGraph::new();
        g.add_edge(Node::incoming("key"), Node::outgoing("bus"));
        let policy = Policy::new().with_level("key", 1).with_level("bus", 0);
        let report = audit(&g, &policy);
        assert_eq!(report.violations.len(), 1);
    }
}
