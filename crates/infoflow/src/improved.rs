//! The improved Information Flow analysis of Section 5.3 (Table 9).
//!
//! The base analysis answers "which resources may influence which resources",
//! but it cannot distinguish the *initial* value of a resource from values it
//! obtains during execution, nor relate values to the environment.  The
//! improvement adds, for every relevant resource `n`, an **incoming** node
//! `n◦` (its initial value or a value injected by the environment at a
//! synchronisation point) and, for every `out` port, an **outgoing** node
//! `n•` (the value the environment can observe), modelled through the
//! environment process `π` of Section 5.3.

use crate::closure::{table8_step, ClosureExhausted, SpecializedRd};
use crate::rm::{Access, Node, ResourceMatrix};
use std::collections::{BTreeMap, BTreeSet};
use vhdl1_dataflow::{BlockKind, Def, ReachingDefinitions};
use vhdl1_syntax::{Design, Ident, Label};

/// Options of the improved analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImprovedOptions {
    /// Treat the variables assigned by the final statements of each process
    /// as outgoing values.  This reproduces the sequential illustration of
    /// Figure 4, where the last assignment of program (b) is considered
    /// "outcoming"; designs with entities normally rely on `out` ports
    /// instead.
    pub finals_are_outgoing: bool,
}

/// Result of the improved closure: the extended global Resource Matrix plus
/// the synthetic labels allocated for the outgoing assignments of the
/// environment process `π`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImprovedClosure {
    /// The extended global Resource Matrix.
    pub matrix: ResourceMatrix,
    /// Synthetic label `l_{n•}` per outgoing resource.
    pub outgoing_labels: BTreeMap<Ident, Label>,
}

/// Runs the combined fixpoint of Table 8 and Table 9, starting from the local
/// Resource Matrix.
pub fn improved_closure(
    design: &Design,
    rd: &ReachingDefinitions,
    spec: &SpecializedRd,
    local: &ResourceMatrix,
    options: &ImprovedOptions,
) -> ImprovedClosure {
    match improved_closure_bounded(design, rd, spec, local, options, u64::MAX) {
        Ok(closure) => closure,
        Err(e) => unreachable!("unbounded closure cannot exhaust: {e}"),
    }
}

/// [`improved_closure`] under an iteration budget: every fixpoint round and
/// every applied addition charges one iteration, so the charge tracks actual
/// work and a given design and budget always exhaust at the same
/// (deterministic) point.
///
/// # Errors
///
/// Returns [`ClosureExhausted`] when the fixpoint does not converge within
/// `max_iterations`.
pub fn improved_closure_bounded(
    design: &Design,
    rd: &ReachingDefinitions,
    spec: &SpecializedRd,
    local: &ResourceMatrix,
    options: &ImprovedOptions,
    max_iterations: u64,
) -> Result<ImprovedClosure, ClosureExhausted> {
    let mut iterations: u64 = 0;
    let mut charge = |amount: u64| -> Result<(), ClosureExhausted> {
        iterations = iterations.saturating_add(amount);
        if iterations > max_iterations {
            return Err(ClosureExhausted {
                iterations,
                limit: max_iterations,
            });
        }
        Ok(())
    };
    let mut global = local.clone();
    let wait_labels: BTreeSet<Label> = rd
        .cfg
        .processes
        .iter()
        .flat_map(|p| p.wait_labels())
        .collect();
    let input_signals: BTreeSet<Ident> = design.input_signals().into_iter().collect();
    let output_signals: BTreeSet<Ident> = design.output_signals().into_iter().collect();

    // Allocate the synthetic labels of the π process: one per outgoing value.
    let mut next_label = design.max_label() + 1;
    let mut outgoing_labels: BTreeMap<Ident, Label> = BTreeMap::new();
    let mut outgoing_defs: Vec<(Ident, Label, BTreeSet<Label>)> = Vec::new();
    for s in &output_signals {
        outgoing_labels.insert(s.clone(), next_label);
        // The outgoing value of an out port is formed from the active values
        // arriving at *any* synchronisation point ([Outcoming values]).
        outgoing_defs.push((s.clone(), next_label, wait_labels.clone()));
        next_label += 1;
    }
    if options.finals_are_outgoing {
        for pcfg in &rd.cfg.processes {
            for l in &pcfg.finals {
                if let Some(block) = pcfg.blocks.get(l) {
                    if let BlockKind::VarAssign { target, .. } = &block.kind {
                        let entry =
                            outgoing_labels
                                .entry(target.name.clone())
                                .or_insert_with(|| {
                                    let l = next_label;
                                    next_label += 1;
                                    l
                                });
                        outgoing_defs.push((target.name.clone(), *entry, BTreeSet::from([*l])));
                    }
                }
            }
        }
    }

    // [Outgoing values]: each outgoing value is modified at its synthetic
    // label; the resource's own (final) value is what the π process reads.
    for (n, l_out, _) in &outgoing_defs {
        global.insert(Node::outgoing(n.clone()), *l_out, Access::M1);
        global.insert(Node::res(n.clone()), *l_out, Access::R0);
    }

    loop {
        charge(1)?;
        let mut additions = table8_step(&global, rd, spec, &wait_labels);

        // [Initial values]: reading a value that may still be the initial one
        // reads the incoming node of that resource.
        for (&l, defs) in &spec.present {
            for (n, def) in defs {
                if *def == Def::Init {
                    let node = Node::incoming(n.clone());
                    if !global.contains(&node, l, Access::R0) {
                        additions.push((node, l, Access::R0));
                    }
                }
            }
        }

        // [Incoming values]: a present value obtained at a synchronisation
        // point may have been driven by the environment process π — only the
        // `in` ports of the entity are driven by π.
        for (&l, defs) in &spec.present {
            for (n, def) in defs {
                let Def::At(lp) = def else { continue };
                if wait_labels.contains(lp) && input_signals.contains(n) {
                    let node = Node::incoming(n.clone());
                    if !global.contains(&node, l, Access::R0) {
                        additions.push((node, l, Access::R0));
                    }
                }
            }
        }

        // [Outcoming values]: the active values arriving at a wait statement
        // determine the outgoing value; the resources read where those active
        // values were produced therefore flow to the outgoing node.
        for (n_out, l_out, at_labels) in &outgoing_defs {
            for l in at_labels {
                for (s, l_def) in spec.active_at(*l) {
                    // Only flows into the outgoing resource itself matter.
                    if &s != n_out {
                        continue;
                    }
                    for entry in global.at_label(l_def) {
                        if entry.access == Access::R0
                            && !global.contains(entry.node, *l_out, Access::R0)
                        {
                            additions.push((entry.node.clone(), *l_out, Access::R0));
                        }
                    }
                }
                // Sequential illustration mode: the "final" label is a plain
                // variable assignment, not a wait; copy its reads directly.
                if !wait_labels.contains(l) {
                    for entry in global.at_label(*l) {
                        if entry.access == Access::R0
                            && !global.contains(entry.node, *l_out, Access::R0)
                        {
                            additions.push((entry.node.clone(), *l_out, Access::R0));
                        }
                    }
                }
            }
        }

        if additions.is_empty() {
            break;
        }
        charge(additions.len() as u64)?;
        for (node, label, access) in additions {
            global.insert(node, label, access);
        }
    }

    Ok(ImprovedClosure {
        matrix: global,
        outgoing_labels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::specialize_rd;
    use crate::graph::FlowGraph;
    use crate::local::local_dependencies;
    use vhdl1_dataflow::RdOptions;
    use vhdl1_syntax::frontend;

    fn improved_graph(src: &str, rd_opts: &RdOptions, opts: &ImprovedOptions) -> FlowGraph {
        let design = frontend(src).unwrap();
        let rd = ReachingDefinitions::compute(&design, rd_opts);
        let local = local_dependencies(&design);
        let spec = specialize_rd(&rd, &local, true);
        let closure = improved_closure(&design, &rd, &spec, &local, opts);
        FlowGraph::from_resource_matrix(&closure.matrix)
    }

    /// Program (b) of the paper as a straight-line process over variables.
    const PROGRAM_B: &str = "entity e is port(inp : in std_logic); end e;
         architecture rtl of e is begin
           p : process
             variable a : std_logic;
             variable b : std_logic;
             variable c : std_logic;
           begin
             b := a;
             c := b;
           end process p;
         end rtl;";

    #[test]
    fn figure_4b_initial_value_of_b_does_not_reach_c() {
        let g = improved_graph(
            PROGRAM_B,
            &RdOptions {
                process_repeats: false,
                ..Default::default()
            },
            &ImprovedOptions {
                finals_are_outgoing: true,
            },
        );
        // The initial value of a flows into b (and transitively c): a◦ -> b.
        assert!(g.has_edge_nodes(&Node::incoming("a"), &Node::res("b")));
        assert!(g.has_edge_nodes(&Node::incoming("a"), &Node::res("c")));
        // The initial value of b must NOT reach c — it is overwritten first.
        assert!(!g.has_edge_nodes(&Node::incoming("b"), &Node::res("c")));
        // The resulting (outgoing) value of c is influenced by b and a◦.
        assert!(g.has_edge_nodes(&Node::res("c"), &Node::outgoing("c")));
        assert!(g.has_edge_nodes(&Node::res("b"), &Node::outgoing("c")));
        assert!(g.has_edge_nodes(&Node::incoming("a"), &Node::outgoing("c")));
        assert!(!g.has_edge_nodes(&Node::incoming("b"), &Node::outgoing("c")));
    }

    const PORTED: &str = "entity e is port(a : in std_logic; b : out std_logic); end e;
         architecture rtl of e is
           signal t : std_logic;
         begin
           p1 : process begin t <= a; wait on a; end process p1;
           p2 : process begin b <= t; wait on t; end process p2;
         end rtl;";

    #[test]
    fn incoming_port_values_flow_to_outputs() {
        let g = improved_graph(PORTED, &RdOptions::default(), &ImprovedOptions::default());
        // a's environment-provided value flows through t into b and to b•.
        assert!(g.has_edge_nodes(&Node::incoming("a"), &Node::res("t")));
        assert!(g.has_edge_nodes(&Node::res("t"), &Node::res("b")));
        assert!(g.has_edge_nodes(&Node::res("b"), &Node::outgoing("b")));
        assert!(g.has_edge_nodes(&Node::res("a"), &Node::outgoing("b")));
        // The internal signal t gets an incoming node only through the
        // [Initial values] rule (its initial value may reach a use); the
        // environment-driven [Incoming values] rule is restricted to `in`
        // ports, so b (an `out` port never read with an initial value) has none.
        assert!(!g
            .nodes()
            .any(|n| matches!(n, Node::Incoming(x) if x == "b")));
    }

    #[test]
    fn merged_view_matches_base_analysis_reachability() {
        let g = improved_graph(PORTED, &RdOptions::default(), &ImprovedOptions::default());
        let merged = g.merge_io_nodes();
        assert!(merged.has_edge("a", "t"));
        assert!(merged.has_edge("t", "b"));
    }

    #[test]
    fn bounded_improved_closure_exhausts_deterministically() {
        let design = frontend(PORTED).unwrap();
        let rd = ReachingDefinitions::compute(&design, &RdOptions::default());
        let local = local_dependencies(&design);
        let spec = specialize_rd(&rd, &local, true);
        let opts = ImprovedOptions::default();
        let roomy = improved_closure_bounded(&design, &rd, &spec, &local, &opts, 100_000).unwrap();
        assert_eq!(roomy, improved_closure(&design, &rd, &spec, &local, &opts));
        let e1 = improved_closure_bounded(&design, &rd, &spec, &local, &opts, 1).unwrap_err();
        let e2 = improved_closure_bounded(&design, &rd, &spec, &local, &opts, 1).unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(e1.limit, 1);
        assert!(e1.iterations > 1);
    }

    #[test]
    fn outgoing_labels_are_fresh() {
        let design = frontend(PORTED).unwrap();
        let rd = ReachingDefinitions::compute(&design, &RdOptions::default());
        let local = local_dependencies(&design);
        let spec = specialize_rd(&rd, &local, true);
        let closure = improved_closure(&design, &rd, &spec, &local, &ImprovedOptions::default());
        let max = design.max_label();
        for l in closure.outgoing_labels.values() {
            assert!(*l > max);
        }
        assert_eq!(closure.outgoing_labels.len(), 1);
    }
}
