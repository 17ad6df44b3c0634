//! Control-flow graphs for VHDL1 processes.
//!
//! Following Section 4 of the paper (and the conventions of *Principles of
//! Program Analysis*), every elementary statement of a process body is a
//! *block* identified by its label; `flow(ss)` relates labels of consecutive
//! blocks, `init(ss)` is the label of the first block and `final(ss)` the
//! labels of the last blocks.
//!
//! A process `i : process ... begin ss_i; end process i` behaves like
//! `null; while '1' do ss_i` (Section 3.2), so the process CFG additionally
//! contains *loop-back* edges from the final labels of the body to its
//! initial label.  The analyses treat the initial label specially, exactly as
//! the synthetic `null`/`while` blocks of the rewriting would.

use std::collections::{BTreeMap, BTreeSet};
use vhdl1_syntax::{Design, Expr, Ident, Label, Stmt, Target};

/// The kind of an elementary block, with the data needed by the analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockKind {
    /// `null`.
    Null,
    /// `x := e` (possibly sliced).
    VarAssign {
        /// Assigned variable.
        target: Target,
        /// Right-hand side.
        expr: Expr,
    },
    /// `s <= e` (possibly sliced).
    SignalAssign {
        /// Assigned signal.
        target: Target,
        /// Right-hand side.
        expr: Expr,
    },
    /// `wait on S until e`.
    Wait {
        /// Waited-on signals `S`.
        on: Vec<Ident>,
        /// Resumption guard.
        until: Expr,
    },
    /// The condition of an `if`.
    IfCond {
        /// The condition expression.
        cond: Expr,
    },
    /// The condition of a `while`.
    WhileCond {
        /// The condition expression.
        cond: Expr,
    },
}

impl BlockKind {
    /// The signal assigned by this block, if it is a signal assignment.
    pub fn assigned_signal(&self) -> Option<&Ident> {
        match self {
            BlockKind::SignalAssign { target, .. } => Some(&target.name),
            _ => None,
        }
    }

    /// The variable assigned by this block, if it is a variable assignment.
    pub fn assigned_variable(&self) -> Option<&Ident> {
        match self {
            BlockKind::VarAssign { target, .. } => Some(&target.name),
            _ => None,
        }
    }

    /// Whether the block is a `wait` statement.
    pub fn is_wait(&self) -> bool {
        matches!(self, BlockKind::Wait { .. })
    }
}

/// An elementary block of the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// The block's label (unique across the program).
    pub label: Label,
    /// Index of the process the block belongs to.
    pub process: usize,
    /// The block's kind and payload.
    pub kind: BlockKind,
}

/// The control-flow graph of one process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessCfg {
    /// Index of the process in the design.
    pub process: usize,
    /// Label of the initial block `init(ss_i)`.
    pub init: Label,
    /// Labels of the final blocks `final(ss_i)`.
    pub finals: BTreeSet<Label>,
    /// Blocks of the process, keyed by label.
    pub blocks: BTreeMap<Label, BasicBlock>,
    /// Flow relation `flow(ss_i)` (intra-body edges only).
    pub flow: BTreeSet<(Label, Label)>,
    /// Loop-back edges from `final(ss_i)` to `init(ss_i)` induced by the
    /// `while '1'` rewriting of the process.
    pub loop_back: BTreeSet<(Label, Label)>,
}

impl ProcessCfg {
    /// All edges, including loop-back edges if `with_loop` is set.
    pub fn edges(&self, with_loop: bool) -> BTreeSet<(Label, Label)> {
        let mut out = self.flow.clone();
        if with_loop {
            out.extend(self.loop_back.iter().copied());
        }
        out
    }

    /// Predecessors of `l` under the chosen edge set.
    pub fn predecessors(&self, l: Label, with_loop: bool) -> Vec<Label> {
        let mut out: Vec<Label> = self
            .flow
            .iter()
            .filter(|(_, t)| *t == l)
            .map(|(f, _)| *f)
            .collect();
        if with_loop {
            out.extend(
                self.loop_back
                    .iter()
                    .filter(|(_, t)| *t == l)
                    .map(|(f, _)| *f),
            );
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Predecessor lists of every label of the process, computed in one pass
    /// over the edge sets.  Equivalent to calling [`ProcessCfg::predecessors`]
    /// per label, without the per-call edge scan.
    pub fn predecessor_map(&self, with_loop: bool) -> BTreeMap<Label, Vec<Label>> {
        let mut out: BTreeMap<Label, Vec<Label>> =
            self.blocks.keys().map(|l| (*l, Vec::new())).collect();
        let mut insert = |f: Label, t: Label| {
            if let Some(ps) = out.get_mut(&t) {
                ps.push(f);
            }
        };
        for &(f, t) in &self.flow {
            insert(f, t);
        }
        if with_loop {
            for &(f, t) in &self.loop_back {
                insert(f, t);
            }
        }
        for ps in out.values_mut() {
            ps.sort_unstable();
            ps.dedup();
        }
        out
    }

    /// Labels of the process in ascending order.
    pub fn labels(&self) -> Vec<Label> {
        self.blocks.keys().copied().collect()
    }

    /// Labels of the `wait` blocks of the process.
    pub fn wait_labels(&self) -> Vec<Label> {
        self.blocks
            .values()
            .filter(|b| b.kind.is_wait())
            .map(|b| b.label)
            .collect()
    }
}

/// The control-flow graphs of every process of a design, together with the
/// block table indexed by label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignCfg {
    /// One CFG per process, in process order.
    pub processes: Vec<ProcessCfg>,
}

impl ProcessCfg {
    /// Builds the CFG of a single process — the per-unit constructor the
    /// incremental engine rebuilds touched processes with.  [`DesignCfg::build`]
    /// is exactly this, mapped over every process.
    pub fn build(p: &vhdl1_syntax::ElabProcess) -> ProcessCfg {
        let mut blocks = BTreeMap::new();
        collect_blocks(&p.body, p.index, &mut blocks);
        let init = init_label(&p.body);
        let finals = final_labels(&p.body);
        let mut flow = BTreeSet::new();
        flow_edges(&p.body, &mut flow);
        let loop_back = finals.iter().map(|f| (*f, init)).collect();
        ProcessCfg {
            process: p.index,
            init,
            finals,
            blocks,
            flow,
            loop_back,
        }
    }
}

impl DesignCfg {
    /// Builds the CFGs of every process of `design`.
    pub fn build(design: &Design) -> DesignCfg {
        let processes = design.processes.iter().map(ProcessCfg::build).collect();
        DesignCfg { processes }
    }

    /// Assembles a design CFG from per-process CFGs (an incremental engine's
    /// mix of cached and rebuilt units).  The caller supplies them in
    /// process order; the result is indistinguishable from
    /// [`DesignCfg::build`] on the corresponding design.
    pub fn from_processes(processes: Vec<ProcessCfg>) -> DesignCfg {
        DesignCfg { processes }
    }

    /// Looks up the block with the given label.
    pub fn block(&self, label: Label) -> Option<&BasicBlock> {
        self.processes.iter().find_map(|p| p.blocks.get(&label))
    }

    /// The CFG of the process owning `label`.
    pub fn cfg_of(&self, label: Label) -> Option<&ProcessCfg> {
        self.processes
            .iter()
            .find(|p| p.blocks.contains_key(&label))
    }

    /// All labels of the design in ascending order.
    pub fn labels(&self) -> Vec<Label> {
        let mut out: Vec<Label> = self
            .processes
            .iter()
            .flat_map(|p| p.blocks.keys().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// Labels, in process `pidx`, of blocks that assign to signal `s`
    /// (the "`B_{l'}` assigns to `s` in process `i`" side condition of
    /// Table 4).
    pub fn signal_assign_labels(&self, pidx: usize, s: &str) -> BTreeSet<Label> {
        self.processes[pidx]
            .blocks
            .values()
            .filter(|b| b.kind.assigned_signal().map(|n| n == s).unwrap_or(false))
            .map(|b| b.label)
            .collect()
    }

    /// Labels, in process `pidx`, of blocks that assign to variable `x`
    /// (the side condition of Table 5).
    pub fn variable_assign_labels(&self, pidx: usize, x: &str) -> BTreeSet<Label> {
        self.processes[pidx]
            .blocks
            .values()
            .filter(|b| b.kind.assigned_variable().map(|n| n == x).unwrap_or(false))
            .map(|b| b.label)
            .collect()
    }

    /// Signals assigned anywhere in process `pidx`.
    pub fn signals_assigned_in(&self, pidx: usize) -> BTreeSet<Ident> {
        self.processes[pidx]
            .blocks
            .values()
            .filter_map(|b| b.kind.assigned_signal().cloned())
            .collect()
    }
}

fn collect_blocks(stmt: &Stmt, process: usize, out: &mut BTreeMap<Label, BasicBlock>) {
    match stmt {
        Stmt::Null { label } => {
            out.insert(
                *label,
                BasicBlock {
                    label: *label,
                    process,
                    kind: BlockKind::Null,
                },
            );
        }
        Stmt::VarAssign {
            label,
            target,
            expr,
        } => {
            out.insert(
                *label,
                BasicBlock {
                    label: *label,
                    process,
                    kind: BlockKind::VarAssign {
                        target: target.clone(),
                        expr: expr.clone(),
                    },
                },
            );
        }
        Stmt::SignalAssign {
            label,
            target,
            expr,
        } => {
            out.insert(
                *label,
                BasicBlock {
                    label: *label,
                    process,
                    kind: BlockKind::SignalAssign {
                        target: target.clone(),
                        expr: expr.clone(),
                    },
                },
            );
        }
        Stmt::Wait { label, on, until } => {
            out.insert(
                *label,
                BasicBlock {
                    label: *label,
                    process,
                    kind: BlockKind::Wait {
                        on: on.clone(),
                        until: until.clone(),
                    },
                },
            );
        }
        Stmt::Seq(a, b) => {
            collect_blocks(a, process, out);
            collect_blocks(b, process, out);
        }
        Stmt::If {
            label,
            cond,
            then_branch,
            else_branch,
        } => {
            out.insert(
                *label,
                BasicBlock {
                    label: *label,
                    process,
                    kind: BlockKind::IfCond { cond: cond.clone() },
                },
            );
            collect_blocks(then_branch, process, out);
            collect_blocks(else_branch, process, out);
        }
        Stmt::While { label, cond, body } => {
            out.insert(
                *label,
                BasicBlock {
                    label: *label,
                    process,
                    kind: BlockKind::WhileCond { cond: cond.clone() },
                },
            );
            collect_blocks(body, process, out);
        }
    }
}

/// `init(ss)`: the label of the first elementary block of `ss`.
pub fn init_label(stmt: &Stmt) -> Label {
    match stmt {
        Stmt::Null { label }
        | Stmt::VarAssign { label, .. }
        | Stmt::SignalAssign { label, .. }
        | Stmt::Wait { label, .. }
        | Stmt::If { label, .. }
        | Stmt::While { label, .. } => *label,
        Stmt::Seq(a, _) => init_label(a),
    }
}

/// `final(ss)`: the labels of the blocks at which `ss` may terminate.
pub fn final_labels(stmt: &Stmt) -> BTreeSet<Label> {
    match stmt {
        Stmt::Null { label }
        | Stmt::VarAssign { label, .. }
        | Stmt::SignalAssign { label, .. }
        | Stmt::Wait { label, .. } => BTreeSet::from([*label]),
        Stmt::Seq(_, b) => final_labels(b),
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            let mut out = final_labels(then_branch);
            out.extend(final_labels(else_branch));
            out
        }
        Stmt::While { label, .. } => BTreeSet::from([*label]),
    }
}

/// `flow(ss)`: the intra-statement control-flow edges.
pub fn flow_edges(stmt: &Stmt, out: &mut BTreeSet<(Label, Label)>) {
    match stmt {
        Stmt::Null { .. }
        | Stmt::VarAssign { .. }
        | Stmt::SignalAssign { .. }
        | Stmt::Wait { .. } => {}
        Stmt::Seq(a, b) => {
            flow_edges(a, out);
            flow_edges(b, out);
            let ib = init_label(b);
            for l in final_labels(a) {
                out.insert((l, ib));
            }
        }
        Stmt::If {
            label,
            then_branch,
            else_branch,
            ..
        } => {
            flow_edges(then_branch, out);
            flow_edges(else_branch, out);
            out.insert((*label, init_label(then_branch)));
            out.insert((*label, init_label(else_branch)));
        }
        Stmt::While { label, body, .. } => {
            flow_edges(body, out);
            out.insert((*label, init_label(body)));
            for l in final_labels(body) {
                out.insert((l, *label));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vhdl1_syntax::frontend;

    fn design(body: &str) -> Design {
        let src = format!(
            "entity e is port(a : in std_logic; b : out std_logic); end e;
             architecture rtl of e is
               signal t : std_logic;
             begin
               p : process
                 variable x : std_logic;
                 variable y : std_logic;
               begin
                 {body}
               end process p;
             end rtl;"
        );
        frontend(&src).unwrap()
    }

    #[test]
    fn straight_line_flow() {
        let d = design("x := a; t <= x; wait on a;");
        let cfg = DesignCfg::build(&d);
        let p = &cfg.processes[0];
        assert_eq!(p.init, 1);
        assert_eq!(p.finals, BTreeSet::from([3]));
        assert_eq!(p.flow, BTreeSet::from([(1, 2), (2, 3)]));
        assert_eq!(p.loop_back, BTreeSet::from([(3, 1)]));
        assert_eq!(p.wait_labels(), vec![3]);
    }

    #[test]
    fn if_flow_and_finals() {
        let d = design("if a = '1' then x := '1'; else y := '0'; end if; wait on a;");
        let cfg = DesignCfg::build(&d);
        let p = &cfg.processes[0];
        // labels: 1 = cond, 2 = then, 3 = else, 4 = wait
        assert!(p.flow.contains(&(1, 2)));
        assert!(p.flow.contains(&(1, 3)));
        assert!(p.flow.contains(&(2, 4)));
        assert!(p.flow.contains(&(3, 4)));
        assert_eq!(p.finals, BTreeSet::from([4]));
        assert!(matches!(p.blocks[&1].kind, BlockKind::IfCond { .. }));
    }

    #[test]
    fn while_flow_has_back_edge() {
        let d = design("while a = '0' loop x := a; end loop; wait on a;");
        let cfg = DesignCfg::build(&d);
        let p = &cfg.processes[0];
        // labels: 1 = while cond, 2 = body assign, 3 = wait
        assert!(p.flow.contains(&(1, 2)));
        assert!(p.flow.contains(&(2, 1)));
        assert!(p.flow.contains(&(1, 3)));
        assert_eq!(p.predecessors(1, false), vec![2]);
    }

    #[test]
    fn assign_label_queries() {
        let d = design("x := a; t <= x; t <= a; wait on a;");
        let cfg = DesignCfg::build(&d);
        assert_eq!(cfg.signal_assign_labels(0, "t"), BTreeSet::from([2, 3]));
        assert_eq!(cfg.variable_assign_labels(0, "x"), BTreeSet::from([1]));
        assert_eq!(
            cfg.signals_assigned_in(0),
            BTreeSet::from(["t".to_string()])
        );
    }

    #[test]
    fn predecessor_map_matches_per_label_queries() {
        let d = design("if a = '1' then x := '1'; else y := '0'; end if; wait on a;");
        let cfg = DesignCfg::build(&d);
        let p = &cfg.processes[0];
        for with_loop in [false, true] {
            let map = p.predecessor_map(with_loop);
            assert_eq!(map.len(), p.blocks.len());
            for (&l, preds) in &map {
                assert_eq!(preds, &p.predecessors(l, with_loop), "label {l}");
            }
        }
    }

    #[test]
    fn design_cfg_label_lookup() {
        let d = design("x := a; wait on a;");
        let cfg = DesignCfg::build(&d);
        assert_eq!(cfg.labels(), vec![1, 2]);
        assert_eq!(cfg.block(2).unwrap().process, 0);
        assert!(cfg.block(99).is_none());
        assert_eq!(cfg.cfg_of(1).unwrap().process, 0);
    }
}
