//! The information-flow graph produced by the analysis (Section 5).
//!
//! Nodes are variables and signals (plus incoming `n◦` and outgoing `n•`
//! nodes of the improved analysis); a directed edge `n1 → n2` means that
//! information *might* flow from `n1` to `n2`.  The graph is in general
//! **non-transitive** (Figure 3), which is exactly what distinguishes the
//! RD-based analysis from Kemmerer's transitive-closure method.
//!
//! Edges are stored as forward and backward adjacency maps, so neighbour
//! queries and the reachability-based operations (Kemmerer's transitive
//! closure in particular) never scan the whole edge set.

use crate::rm::{Access, Node, ResourceMatrix};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use vhdl1_syntax::Label;

/// Per-node label annotations for DOT rendering: which labelled blocks of
/// the design access each graph node.  Derived from the local Resource
/// Matrix and persisted with the artifact, so a disk-served analysis can
/// render an annotated graph without re-elaborating the source.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GraphLabels {
    /// The labels at which each node is accessed (any access kind).
    pub at: BTreeMap<Node, BTreeSet<Label>>,
}

impl GraphLabels {
    /// Collects the annotations of a (local) Resource Matrix.
    pub fn of(rm: &ResourceMatrix) -> GraphLabels {
        let mut at: BTreeMap<Node, BTreeSet<Label>> = BTreeMap::new();
        for entry in rm.iter() {
            at.entry(entry.node.clone())
                .or_default()
                .insert(entry.label);
        }
        GraphLabels { at }
    }

    /// The labels at which `node` is accessed (empty when unknown).
    pub fn labels_of(&self, node: &Node) -> BTreeSet<Label> {
        self.at.get(node).cloned().unwrap_or_default()
    }
}

/// A directed information-flow graph.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlowGraph {
    nodes: BTreeSet<Node>,
    succ: BTreeMap<Node, BTreeSet<Node>>,
    pred: BTreeMap<Node, BTreeSet<Node>>,
    edge_count: usize,
}

impl FlowGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the graph induced by a (global) Resource Matrix: for every
    /// label, everything read (`R0`) at that label flows into everything
    /// modified (`M0`/`M1`) at that label.
    pub fn from_resource_matrix(rm: &ResourceMatrix) -> FlowGraph {
        let mut g = FlowGraph::new();
        for node in rm.nodes() {
            g.add_node(node.clone());
        }
        for label in rm.labels() {
            let reads: Vec<Node> = rm
                .at_label(label)
                .filter(|e| e.access == Access::R0)
                .map(|e| e.node.clone())
                .collect();
            let mods: Vec<Node> = rm
                .at_label(label)
                .filter(|e| e.access.is_modification())
                .map(|e| e.node.clone())
                .collect();
            for m in &mods {
                for r in &reads {
                    g.add_edge(r.clone(), m.clone());
                }
            }
        }
        g
    }

    /// Adds a node.
    pub fn add_node(&mut self, n: Node) {
        self.nodes.insert(n);
    }

    /// Adds an edge (and both endpoints).
    pub fn add_edge(&mut self, from: Node, to: Node) {
        self.nodes.insert(from.clone());
        self.nodes.insert(to.clone());
        if self
            .succ
            .entry(from.clone())
            .or_default()
            .insert(to.clone())
        {
            self.pred.entry(to).or_default().insert(from);
            self.edge_count += 1;
        }
    }

    /// The nodes of the graph.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// The edges of the graph, in `(from, to)` lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (&Node, &Node)> {
        self.succ
            .iter()
            .flat_map(|(f, ts)| ts.iter().map(move |t| (f, t)))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether an edge exists between the *plain* resources with these names
    /// (convenience for tests and examples).
    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        self.has_edge_nodes(&Node::res(from), &Node::res(to))
    }

    /// Whether an edge exists between two nodes.
    pub fn has_edge_nodes(&self, from: &Node, to: &Node) -> bool {
        self.succ.get(from).is_some_and(|ts| ts.contains(to))
    }

    /// Successors of a node.
    pub fn successors(&self, n: &Node) -> BTreeSet<&Node> {
        self.succ.get(n).into_iter().flatten().collect()
    }

    /// Predecessors of a node.
    pub fn predecessors(&self, n: &Node) -> BTreeSet<&Node> {
        self.pred.get(n).into_iter().flatten().collect()
    }

    /// Nodes reachable from `n` following edges (excluding `n` itself unless
    /// it lies on a cycle).
    pub fn reachable_from(&self, n: &Node) -> BTreeSet<Node> {
        let mut seen: BTreeSet<Node> = BTreeSet::new();
        let mut queue: VecDeque<&Node> = self.succ.get(n).into_iter().flatten().collect();
        while let Some(next) = queue.pop_front() {
            if seen.insert(next.clone()) {
                queue.extend(self.succ.get(next).into_iter().flatten());
            }
        }
        seen
    }

    /// The transitive closure of the graph (used by the Kemmerer baseline and
    /// by the non-transitivity check).
    pub fn transitive_closure(&self) -> FlowGraph {
        let mut g = self.clone();
        for n in &self.nodes {
            for r in self.reachable_from(n) {
                g.add_edge(n.clone(), r);
            }
        }
        g
    }

    /// Whether the graph equals its own transitive closure.
    pub fn is_transitive(&self) -> bool {
        // The closure only ever adds edges, so equal edge counts mean equal
        // graphs.
        self.transitive_closure().edge_count == self.edge_count
    }

    /// Restricts the graph to nodes whose *name* satisfies the predicate,
    /// dropping all other nodes and their edges.
    pub fn restrict<F: Fn(&Node) -> bool>(&self, keep: F) -> FlowGraph {
        let mut g = FlowGraph::new();
        for n in &self.nodes {
            if keep(n) {
                g.add_node(n.clone());
            }
        }
        for (f, t) in self.edges() {
            if keep(f) && keep(t) {
                g.add_edge(f.clone(), t.clone());
            }
        }
        g
    }

    /// Merges incoming and outgoing nodes with their plain resource node
    /// (dropping resulting self loops), as done for the presentation of
    /// Figure 5 in the paper ("we have merged incoming and outgoing nodes").
    pub fn merge_io_nodes(&self) -> FlowGraph {
        let merge = |n: &Node| Node::res(n.name().to_string());
        let mut g = FlowGraph::new();
        for n in &self.nodes {
            g.add_node(merge(n));
        }
        for (f, t) in self.edges() {
            let (mf, mt) = (merge(f), merge(t));
            if mf != mt {
                g.add_edge(mf, mt);
            }
        }
        g
    }

    /// Applies a renaming to every node's underlying name, merging nodes that
    /// map to the same name and dropping resulting self loops.  Useful for
    /// presenting graphs the way the paper does (e.g. identifying the `b_*`
    /// output ports of the ShiftRows workload with their `a_*` inputs in
    /// Figure 5).
    pub fn map_names<F: Fn(&str) -> String>(&self, rename: F) -> FlowGraph {
        let map = |n: &Node| match n {
            Node::Res(x) => Node::Res(rename(x)),
            Node::Incoming(x) => Node::Incoming(rename(x)),
            Node::Outgoing(x) => Node::Outgoing(rename(x)),
        };
        let mut g = FlowGraph::new();
        for n in &self.nodes {
            g.add_node(map(n));
        }
        for (f, t) in self.edges() {
            let (mf, mt) = (map(f), map(t));
            if mf != mt {
                g.add_edge(mf, mt);
            }
        }
        g
    }

    /// Edges present in `self` but not in `other`.
    pub fn edge_difference(&self, other: &FlowGraph) -> BTreeSet<(Node, Node)> {
        self.edges()
            .filter(|(f, t)| !other.has_edge_nodes(f, t))
            .map(|(f, t)| (f.clone(), t.clone()))
            .collect()
    }

    /// Renders the graph in Graphviz DOT syntax.
    pub fn to_dot(&self, name: &str) -> String {
        self.render_dot(name, None)
    }

    /// [`FlowGraph::to_dot`] with per-node label annotations: nodes the
    /// design accesses carry a `tooltip` listing the labels of the accessing
    /// blocks.
    pub fn to_dot_with(&self, name: &str, labels: &GraphLabels) -> String {
        self.render_dot(name, Some(labels))
    }

    fn render_dot(&self, name: &str, labels: Option<&GraphLabels>) -> String {
        let mut ids: BTreeMap<&Node, String> = BTreeMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            ids.insert(n, format!("n{i}"));
        }
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{name}\" {{");
        let _ = writeln!(out, "  rankdir=LR;");
        for (n, id) in &ids {
            let shape = match n {
                Node::Res(_) => "ellipse",
                Node::Incoming(_) => "diamond",
                Node::Outgoing(_) => "box",
            };
            let at = labels.map(|l| l.labels_of(n)).unwrap_or_default();
            if at.is_empty() {
                let _ = writeln!(out, "  {id} [label=\"{n}\", shape={shape}];");
            } else {
                let list = at
                    .iter()
                    .map(|l| l.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                let _ = writeln!(
                    out,
                    "  {id} [label=\"{n}\", shape={shape}, tooltip=\"accessed at {list}\"];"
                );
            }
        }
        for (f, t) in self.edges() {
            let _ = writeln!(out, "  {} -> {};", ids[f], ids[t]);
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> FlowGraph {
        // a -> b -> c
        let mut g = FlowGraph::new();
        g.add_edge(Node::res("a"), Node::res("b"));
        g.add_edge(Node::res("b"), Node::res("c"));
        g
    }

    #[test]
    fn edges_and_reachability() {
        let g = chain();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge("a", "b"));
        assert!(!g.has_edge("a", "c"));
        assert_eq!(
            g.reachable_from(&Node::res("a")),
            BTreeSet::from([Node::res("b"), Node::res("c")])
        );
    }

    #[test]
    fn duplicate_edges_are_not_double_counted() {
        let mut g = chain();
        g.add_edge(Node::res("a"), Node::res("b"));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edges().count(), 2);
    }

    #[test]
    fn transitive_closure_and_transitivity_check() {
        let g = chain();
        assert!(!g.is_transitive());
        let tc = g.transitive_closure();
        assert!(tc.has_edge("a", "c"));
        assert!(tc.is_transitive());
        assert_eq!(
            tc.edge_difference(&g),
            BTreeSet::from([(Node::res("a"), Node::res("c"))])
        );
    }

    #[test]
    fn from_resource_matrix_builds_read_to_modify_edges() {
        let mut rm = ResourceMatrix::new();
        rm.insert(Node::res("b"), 1, Access::M0);
        rm.insert(Node::res("a"), 1, Access::R0);
        rm.insert(Node::res("c"), 2, Access::M1);
        rm.insert(Node::res("b"), 2, Access::R0);
        rm.insert(Node::res("t"), 3, Access::R1); // synchronisation reads make no edges
        let g = FlowGraph::from_resource_matrix(&rm);
        assert!(g.has_edge("a", "b"));
        assert!(g.has_edge("b", "c"));
        assert!(!g.has_edge("a", "c"));
        assert!(g.nodes().any(|n| n.name() == "t"));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn restriction_keeps_subgraph() {
        let g = chain();
        let r = g.restrict(|n| n.name() != "b");
        assert_eq!(r.node_count(), 2);
        assert_eq!(r.edge_count(), 0);
    }

    #[test]
    fn merge_io_nodes_collapses_annotations() {
        let mut g = FlowGraph::new();
        g.add_edge(Node::incoming("a"), Node::res("b"));
        g.add_edge(Node::res("b"), Node::outgoing("b"));
        let m = g.merge_io_nodes();
        assert!(m.has_edge("a", "b"));
        assert_eq!(m.edge_count(), 1, "self loop b -> b• must be dropped");
        assert_eq!(m.node_count(), 2);
    }

    #[test]
    fn map_names_merges_and_drops_self_loops() {
        let mut g = FlowGraph::new();
        g.add_edge(Node::res("a_in"), Node::res("a_out"));
        g.add_edge(Node::res("a_in"), Node::res("b_out"));
        let merged = g.map_names(|n| {
            n.trim_end_matches("_in")
                .trim_end_matches("_out")
                .to_string()
        });
        assert_eq!(merged.node_count(), 2);
        assert_eq!(merged.edge_count(), 1);
        assert!(merged.has_edge("a", "b"));
    }

    #[test]
    fn dot_output_mentions_every_node_and_edge() {
        let g = chain();
        let dot = g.to_dot("test");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("label=\"a\""));
        assert!(dot.matches("->").count() == 2);
    }

    #[test]
    fn predecessors_and_successors() {
        let g = chain();
        assert_eq!(g.successors(&Node::res("a")).len(), 1);
        assert_eq!(g.predecessors(&Node::res("c")).len(), 1);
        assert!(g.successors(&Node::res("c")).is_empty());
    }
}
