//! Resource Matrices (Section 5).
//!
//! A Resource Matrix records, per program point, which resources (variables
//! and signals) might be *modified* and which might be *read*.  Entries are
//! triples `(n, l, A)` with `A ∈ {M0, M1, R0, R1}`:
//!
//! * `M0` — the variable / present signal value `n` might be modified at `l`,
//! * `M1` — the active value of signal `n` might be modified at `l`,
//! * `R0` — the variable / present signal value `n` might be read at `l`,
//! * `R1` — the active value of `n` is synchronised (read) at the wait `l`.
//!
//! The improved analysis of Section 5.3 additionally uses incoming (`n◦`) and
//! outgoing (`n•`) nodes, so matrix entries range over [`Node`] rather than
//! plain names.
//!
//! Entries are stored label-first with the access kinds of a node packed
//! into a bitmask, so the per-label queries the closure algorithms hammer
//! (`at_label`, `reads_at`, `modifications_at`, `contains`) are direct map
//! lookups instead of full scans, and membership tests allocate nothing.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use vhdl1_syntax::{Ident, Label};

/// The access kinds recorded in a Resource Matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Access {
    /// Modification of a variable or of the present value of a signal.
    M0,
    /// Modification of the active value of a signal.
    M1,
    /// Read of a variable or of the present value of a signal.
    R0,
    /// Synchronisation read of the active values at a wait statement.
    R1,
}

impl Access {
    /// All access kinds, in the order of their bitmask bits.
    const ALL: [Access; 4] = [Access::M0, Access::M1, Access::R0, Access::R1];

    /// Whether this access is a modification (`M0` or `M1`).
    pub fn is_modification(&self) -> bool {
        matches!(self, Access::M0 | Access::M1)
    }

    /// Whether this access is a read (`R0` or `R1`).
    pub fn is_read(&self) -> bool {
        matches!(self, Access::R0 | Access::R1)
    }

    fn bit(self) -> u8 {
        match self {
            Access::M0 => 1 << 0,
            Access::M1 => 1 << 1,
            Access::R0 => 1 << 2,
            Access::R1 => 1 << 3,
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Access::M0 => "M0",
            Access::M1 => "M1",
            Access::R0 => "R0",
            Access::R1 => "R1",
        };
        write!(f, "{s}")
    }
}

/// A node of the information-flow graph: a plain resource, an incoming value
/// (`n◦`) or an outgoing value (`n•`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Node {
    /// A variable or signal of the program.
    Res(Ident),
    /// The incoming (environment-provided or initial) value of a resource.
    Incoming(Ident),
    /// The outgoing (environment-observable) value of a resource.
    Outgoing(Ident),
}

impl Node {
    /// The underlying resource name.
    pub fn name(&self) -> &str {
        match self {
            Node::Res(n) | Node::Incoming(n) | Node::Outgoing(n) => n,
        }
    }

    /// Whether this is a plain (non-annotated) resource node.
    pub fn is_plain(&self) -> bool {
        matches!(self, Node::Res(_))
    }

    /// Convenience constructor for a plain resource node.
    pub fn res(name: impl Into<Ident>) -> Node {
        Node::Res(name.into())
    }

    /// Convenience constructor for an incoming node `n◦`.
    pub fn incoming(name: impl Into<Ident>) -> Node {
        Node::Incoming(name.into())
    }

    /// Convenience constructor for an outgoing node `n•`.
    pub fn outgoing(name: impl Into<Ident>) -> Node {
        Node::Outgoing(name.into())
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Res(n) => write!(f, "{n}"),
            Node::Incoming(n) => write!(f, "{n}\u{25e6}"),
            Node::Outgoing(n) => write!(f, "{n}\u{2022}"),
        }
    }
}

/// One entry `(n, l, A)` of a Resource Matrix, in owned form.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RmEntry {
    /// The accessed resource (or incoming/outgoing node).
    pub node: Node,
    /// The label of the access.
    pub label: Label,
    /// The kind of access.
    pub access: Access,
}

impl RmEntry {
    /// Creates an entry.
    pub fn new(node: Node, label: Label, access: Access) -> RmEntry {
        RmEntry {
            node,
            label,
            access,
        }
    }
}

impl fmt::Display for RmEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.node, self.label, self.access)
    }
}

/// A borrowed view of one `(n, l, A)` entry, yielded by the iteration
/// accessors without cloning the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RmEntryRef<'a> {
    /// The accessed resource (or incoming/outgoing node).
    pub node: &'a Node,
    /// The label of the access.
    pub label: Label,
    /// The kind of access.
    pub access: Access,
}

impl RmEntryRef<'_> {
    /// Clones into an owned [`RmEntry`].
    pub fn to_owned(self) -> RmEntry {
        RmEntry::new(self.node.clone(), self.label, self.access)
    }
}

/// A Resource Matrix: a set of `(node, label, access)` entries, stored
/// label-first with packed access bitmasks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResourceMatrix {
    by_label: BTreeMap<Label, BTreeMap<Node, u8>>,
    len: usize,
}

impl ResourceMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry; returns `true` if it was not already present.
    pub fn insert(&mut self, node: Node, label: Label, access: Access) -> bool {
        let mask = self
            .by_label
            .entry(label)
            .or_default()
            .entry(node)
            .or_insert(0);
        if *mask & access.bit() != 0 {
            return false;
        }
        *mask |= access.bit();
        self.len += 1;
        true
    }

    /// Whether the matrix contains the entry.
    pub fn contains(&self, node: &Node, label: Label, access: Access) -> bool {
        self.by_label
            .get(&label)
            .and_then(|nodes| nodes.get(node))
            .is_some_and(|mask| mask & access.bit() != 0)
    }

    /// Iterates over all entries (label-major, then node order).
    pub fn iter(&self) -> impl Iterator<Item = RmEntryRef<'_>> {
        self.by_label.iter().flat_map(|(&label, nodes)| {
            nodes.iter().flat_map(move |(node, &mask)| {
                Access::ALL
                    .iter()
                    .filter(move |a| mask & a.bit() != 0)
                    .map(move |&access| RmEntryRef {
                        node,
                        label,
                        access,
                    })
            })
        })
    }

    /// Entries at a given label.
    pub fn at_label(&self, label: Label) -> impl Iterator<Item = RmEntryRef<'_>> {
        self.by_label
            .get(&label)
            .into_iter()
            .flat_map(move |nodes| {
                nodes.iter().flat_map(move |(node, &mask)| {
                    Access::ALL
                        .iter()
                        .filter(move |a| mask & a.bit() != 0)
                        .map(move |&access| RmEntryRef {
                            node,
                            label,
                            access,
                        })
                })
            })
    }

    /// Nodes read (`R0`) at the given label.
    pub fn reads_at(&self, label: Label) -> BTreeSet<&Node> {
        self.nodes_at_with(label, Access::R0.bit())
    }

    /// Nodes modified (`M0` or `M1`) at the given label.
    pub fn modifications_at(&self, label: Label) -> BTreeSet<&Node> {
        self.nodes_at_with(label, Access::M0.bit() | Access::M1.bit())
    }

    fn nodes_at_with(&self, label: Label, bits: u8) -> BTreeSet<&Node> {
        self.by_label
            .get(&label)
            .into_iter()
            .flat_map(|nodes| {
                nodes
                    .iter()
                    .filter(move |(_, &mask)| mask & bits != 0)
                    .map(|(n, _)| n)
            })
            .collect()
    }

    /// Names of the *plain* resource nodes carrying `access` at `label`.
    /// Used by the RD specialisation, which probes per-label membership many
    /// times: collecting the names once replaces per-probe [`Node`]
    /// construction.
    pub fn res_names_with(&self, label: Label, access: Access) -> BTreeSet<&str> {
        self.by_label
            .get(&label)
            .into_iter()
            .flat_map(move |nodes| {
                nodes
                    .iter()
                    .filter(move |(node, &mask)| node.is_plain() && mask & access.bit() != 0)
                    .map(|(node, _)| node.name())
            })
            .collect()
    }

    /// All labels mentioned by the matrix.
    pub fn labels(&self) -> BTreeSet<Label> {
        self.by_label.keys().copied().collect()
    }

    /// All nodes mentioned by the matrix.
    pub fn nodes(&self) -> BTreeSet<&Node> {
        self.by_label
            .values()
            .flat_map(|nodes| nodes.keys())
            .collect()
    }

    /// Merges another matrix into this one.
    pub fn extend_from(&mut self, other: &ResourceMatrix) {
        for (&label, nodes) in &other.by_label {
            for (node, &mask) in nodes {
                let entry = self
                    .by_label
                    .entry(label)
                    .or_default()
                    .entry(node.clone())
                    .or_insert(0);
                self.len += (mask & !*entry).count_ones() as usize;
                *entry |= mask;
            }
        }
    }
}

impl FromIterator<RmEntry> for ResourceMatrix {
    fn from_iter<T: IntoIterator<Item = RmEntry>>(iter: T) -> Self {
        let mut rm = ResourceMatrix::new();
        rm.extend(iter);
        rm
    }
}

impl Extend<RmEntry> for ResourceMatrix {
    fn extend<T: IntoIterator<Item = RmEntry>>(&mut self, iter: T) {
        for e in iter {
            self.insert(e.node, e.label, e.access);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut rm = ResourceMatrix::new();
        assert!(rm.is_empty());
        assert!(rm.insert(Node::res("x"), 1, Access::M0));
        assert!(!rm.insert(Node::res("x"), 1, Access::M0));
        rm.insert(Node::res("a"), 1, Access::R0);
        rm.insert(Node::res("s"), 2, Access::M1);
        assert_eq!(rm.len(), 3);
        assert!(rm.contains(&Node::res("x"), 1, Access::M0));
        assert_eq!(rm.reads_at(1), BTreeSet::from([&Node::res("a")]));
        assert_eq!(
            rm.modifications_at(1)
                .into_iter()
                .cloned()
                .collect::<Vec<_>>(),
            vec![Node::res("x")]
        );
        assert_eq!(rm.labels(), BTreeSet::from([1, 2]));
    }

    #[test]
    fn iteration_yields_every_entry() {
        let mut rm = ResourceMatrix::new();
        rm.insert(Node::res("x"), 1, Access::M0);
        rm.insert(Node::res("x"), 1, Access::R0);
        rm.insert(Node::res("y"), 2, Access::R1);
        let all: Vec<RmEntry> = rm.iter().map(RmEntryRef::to_owned).collect();
        assert_eq!(all.len(), rm.len());
        assert!(all.contains(&RmEntry::new(Node::res("x"), 1, Access::M0)));
        assert!(all.contains(&RmEntry::new(Node::res("x"), 1, Access::R0)));
        assert!(all.contains(&RmEntry::new(Node::res("y"), 2, Access::R1)));
        assert_eq!(rm.at_label(1).count(), 2);
        assert_eq!(rm.at_label(3).count(), 0);
    }

    #[test]
    fn node_display_uses_paper_notation() {
        assert_eq!(Node::res("a").to_string(), "a");
        assert_eq!(Node::incoming("a").to_string(), "a\u{25e6}");
        assert_eq!(Node::outgoing("b").to_string(), "b\u{2022}");
        assert_eq!(Node::outgoing("b").name(), "b");
        assert!(Node::res("a").is_plain());
        assert!(!Node::incoming("a").is_plain());
    }

    #[test]
    fn access_classification() {
        assert!(Access::M0.is_modification());
        assert!(Access::M1.is_modification());
        assert!(Access::R0.is_read());
        assert!(Access::R1.is_read());
        assert!(!Access::R0.is_modification());
        assert_eq!(Access::M1.to_string(), "M1");
    }

    #[test]
    fn entry_display() {
        let e = RmEntry::new(Node::res("t"), 4, Access::R1);
        assert_eq!(e.to_string(), "(t, 4, R1)");
    }

    #[test]
    fn from_iterator_and_extend() {
        let rm: ResourceMatrix = vec![RmEntry::new(Node::res("a"), 1, Access::R0)]
            .into_iter()
            .collect();
        let mut rm2 = ResourceMatrix::new();
        rm2.insert(Node::res("b"), 2, Access::M0);
        let mut merged = rm.clone();
        merged.extend_from(&rm2);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.nodes().len(), 2);
        // Overlapping extend does not double-count.
        merged.extend_from(&rm2);
        assert_eq!(merged.len(), 2);
    }
}
