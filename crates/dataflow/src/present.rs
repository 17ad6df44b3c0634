//! Reaching Definitions analysis for local variables and **present** signal
//! values (Table 5).
//!
//! The analysis is a whole-program forward may-analysis over pairs
//! `(n, d)` where `n` is a variable or signal and `d` is either the label of
//! the defining block or the special marker `?` for the initial value.
//!
//! * variable assignments kill every other definition of the same variable
//!   (including `?`) and generate their own;
//! * `wait` statements are where signals obtain new *present* values: they
//!   generate `(s, l)` for every signal `s` that **may** be active in any
//!   process participating in the synchronisation (using `RD∪ϕ`), and kill
//!   previous present-value definitions of signals that **must** be active in
//!   some participating process (using `RD∩ϕ`) — the cross-flow relation `cf`
//!   determines which wait statements can synchronise.

use crate::active::ActiveRd;
use crate::cfg::{BlockKind, DesignCfg};
use crate::crossflow::{CrossFlow, SyncSummary};
use crate::framework::{Combine, DenseEquations, Solution, SolveExhausted};
use crate::RdOptions;
use std::collections::{BTreeMap, BTreeSet};
use vhdl1_syntax::{Design, Ident, Label};

/// Where a resource obtained its current value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Def {
    /// The special marker `?`: the initial value of the resource.
    Init,
    /// The definition made by the block with this label.
    At(Label),
}

impl std::fmt::Display for Def {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Def::Init => write!(f, "?"),
            Def::At(l) => write!(f, "{l}"),
        }
    }
}

/// A reaching definition of a variable or present signal value.
pub type ResDef = (Ident, Def);

/// Result of the Reaching Definitions analysis for local variables and
/// present signal values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PresentRd {
    /// Entry/exit sets per label (`RDcf_entry`, `RDcf_exit`).
    pub solution: Solution<ResDef>,
}

impl PresentRd {
    /// Definitions of `n` reaching the entry of `l`.
    pub fn definitions_reaching(&self, l: Label, n: &str) -> BTreeSet<Def> {
        self.entry_iter(l)
            .filter(|(name, _)| name == n)
            .map(|(_, d)| *d)
            .collect()
    }

    /// The full entry set at `l`.  Prefer [`PresentRd::entry_ref`] or
    /// [`PresentRd::entry_iter`] on hot paths: this accessor clones the set.
    pub fn entry_of(&self, l: Label) -> BTreeSet<ResDef> {
        self.solution.entry_of(l)
    }

    /// Borrowed entry set at `l`, or `None` if the label is unknown.  The
    /// underlying dense row is decoded on first access and memoised.
    pub fn entry_ref(&self, l: Label) -> Option<&BTreeSet<ResDef>> {
        self.solution.entry_ref(l)
    }

    /// Iterates the definitions reaching the entry of `l` without
    /// materialising a set (empty if the label is unknown).
    pub fn entry_iter(&self, l: Label) -> impl Iterator<Item = &ResDef> + '_ {
        self.solution.entry_iter(l)
    }
}

/// Runs the Reaching Definitions analysis of Table 5.
pub fn present_rd(
    design: &Design,
    cfg: &DesignCfg,
    cross: &CrossFlow,
    active: &ActiveRd,
    options: &RdOptions,
) -> PresentRd {
    match present_rd_bounded(design, cfg, cross, active, options, u64::MAX) {
        Ok(rd) => rd,
        Err(e) => unreachable!("unbounded solve cannot exhaust: {e}"),
    }
}

/// [`present_rd`] under a worklist step budget.
///
/// # Errors
///
/// Returns [`SolveExhausted`] if the fixpoint fails to converge within
/// `max_steps` worklist iterations.
pub fn present_rd_bounded(
    design: &Design,
    cfg: &DesignCfg,
    cross: &CrossFlow,
    active: &ActiveRd,
    options: &RdOptions,
    max_steps: u64,
) -> Result<PresentRd, SolveExhausted> {
    let mut eq: DenseEquations<ResDef> = DenseEquations::new(Combine::Union);
    // Per-process aggregates of the active-signal analysis over `cf`,
    // computed once instead of per wait label.
    let sync = SyncSummary::build(cross, active);

    for pcfg in &cfg.processes {
        let pidx = pcfg.process;
        let with_loop = options.process_repeats;
        let own_wait_labels: Vec<Label> = pcfg.wait_labels();

        // Intern the kill universe of every assigned variable once: the
        // initial-value marker plus one definition per assigning label.
        // Each assignment's kill set is then a precomputed id list instead
        // of a fresh set of owned `(name, def)` pairs.
        let mut var_defs: BTreeMap<&Ident, Vec<u32>> = BTreeMap::new();
        let mut var_def_at: BTreeMap<(&Ident, Label), u32> = BTreeMap::new();
        for (l, block) in &pcfg.blocks {
            if let Some(x) = block.kind.assigned_variable() {
                let id = eq.intern((x.clone(), Def::At(*l)));
                var_defs
                    .entry(x)
                    .or_insert_with(|| Vec::from([eq.intern((x.clone(), Def::Init))]))
                    .push(id);
                var_def_at.insert((x, *l), id);
            }
        }

        // Signals that may/must be active in a synchronisation this process
        // participates in, short of the per-wait-label own contribution.
        let may_elsewhere = sync.may_elsewhere(pidx);
        let must_elsewhere = sync.must_elsewhere(pidx);

        let mut preds = pcfg.predecessor_map(with_loop);
        for (l, block) in &pcfg.blocks {
            let row = eq.add_label(*l, preds.remove(l).unwrap_or_default());
            match &block.kind {
                BlockKind::VarAssign { target, .. } => {
                    eq.extend_kill(row, &var_defs[&target.name]);
                    eq.push_gen(row, var_def_at[&(&target.name, *l)]);
                }
                BlockKind::Wait { .. } if cross.is_nonempty() => {
                    // Signals that MAY be active in any participating
                    // process: own wait entry plus every wait of every
                    // other process (the union over cf distributes).
                    let mut may_active: BTreeSet<Ident> = active.may_be_active_at(*l);
                    may_active.extend(may_elsewhere.iter().cloned());
                    // Signals that MUST be active in some participating
                    // process for every synchronisation tuple: own wait
                    // entry, plus (per other process) the intersection
                    // over that process's wait labels.
                    let mut must_active: BTreeSet<Ident> = active.must_be_active_at(*l);
                    must_active.extend(must_elsewhere.iter().cloned());

                    // kill = must_active × WS(ss_i): present-value
                    // definitions made at this process's wait statements
                    // are overwritten when the signal is guaranteed to be
                    // re-synchronised.
                    for s in &must_active {
                        for lw in &own_wait_labels {
                            let id = eq.intern((s.clone(), Def::At(*lw)));
                            eq.push_kill(row, id);
                        }
                        if options.kill_initial_at_wait {
                            let id = eq.intern((s.clone(), Def::Init));
                            eq.push_kill(row, id);
                        }
                    }
                    // gen = may_active × {l}.
                    for s in may_active {
                        let id = eq.intern((s, Def::At(*l)));
                        eq.push_gen(row, id);
                    }
                }
                _ => {}
            }
        }

        // ι at the initial label: every free variable and signal of the
        // process may still hold its initial value.
        let init_row = eq.row_of(pcfg.init).expect("init label was added");
        for x in design.process_free_vars(pidx) {
            let id = eq.intern((x, Def::Init));
            eq.push_iota(init_row, id);
        }
        for s in design.process_free_signals(pidx) {
            let id = eq.intern((s, Def::Init));
            eq.push_iota(init_row, id);
        }
    }

    Ok(PresentRd {
        solution: eq.solve_bounded(max_steps)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::active_signals_rd;
    use vhdl1_syntax::frontend;

    fn analyse(src: &str, options: &RdOptions) -> (Design, DesignCfg, PresentRd) {
        let d = frontend(src).unwrap();
        let cfg = DesignCfg::build(&d);
        let cross = CrossFlow::build(&d);
        let active = active_signals_rd(&cfg, options);
        let rd = present_rd(&d, &cfg, &cross, &active, options);
        (d, cfg, rd)
    }

    const SINGLE: &str = "entity e is port(a : in std_logic; b : out std_logic); end e;
         architecture rtl of e is
           signal t : std_logic;
         begin
           p : process
             variable x : std_logic;
             variable y : std_logic;
           begin
             x := a;
             y := x;
             x := y;
             t <= x;
             wait on a;
           end process p;
         end rtl;";

    #[test]
    fn initial_values_reach_first_use() {
        let (_, _, rd) = analyse(SINGLE, &RdOptions::default());
        // At label 1 the initial values of a, x, y, t are available.
        let defs = rd.entry_of(1);
        assert!(defs.contains(&("a".to_string(), Def::Init)));
        assert!(defs.contains(&("x".to_string(), Def::Init)));
        assert!(defs.contains(&("t".to_string(), Def::Init)));
    }

    #[test]
    fn variable_assignment_kills_previous_definitions() {
        let (_, _, rd) = analyse(SINGLE, &RdOptions::default());
        // At label 3 (x := y) the reaching definition of x is from label 1.
        assert_eq!(
            rd.definitions_reaching(3, "x"),
            BTreeSet::from([Def::At(1)])
        );
        // At label 4 (t <= x) the reaching definition of x is from label 3 only.
        assert_eq!(
            rd.definitions_reaching(4, "x"),
            BTreeSet::from([Def::At(3)])
        );
        // The initial value of x no longer reaches label 2.
        assert!(!rd.entry_of(2).contains(&("x".to_string(), Def::Init)));
    }

    #[test]
    fn wait_generates_present_definitions_for_active_signals() {
        let (_, _, rd) = analyse(SINGLE, &RdOptions::default());
        // After the wait at label 5, t's present value may stem from label 5;
        // because the process loops, the entry of label 1 sees it.
        assert!(rd.definitions_reaching(1, "t").contains(&Def::At(5)));
        // The initial value of t also still reaches (the paper's formulation
        // keeps the `?` definition).
        assert!(rd.definitions_reaching(1, "t").contains(&Def::Init));
    }

    const TWO_PROC: &str = "entity e is port(a : in std_logic; b : out std_logic); end e;
         architecture rtl of e is
           signal t : std_logic;
         begin
           p1 : process begin t <= a; wait on a; end process p1;
           p2 : process
             variable v : std_logic;
           begin
             v := t;
             b <= v;
             wait on t;
           end process p2;
         end rtl;";

    #[test]
    fn synchronisation_transfers_definitions_across_processes() {
        let (_, _, rd) = analyse(TWO_PROC, &RdOptions::default());
        // Labels: p1 = {1: t<=a, 2: wait}, p2 = {3: v:=t, 4: b<=v, 5: wait}.
        // At p2's wait (label 5), t may become newly defined because p1 may
        // have an active assignment; after looping, label 3 sees t defined at
        // label 5 (and possibly still the initial value).
        let defs = rd.definitions_reaching(3, "t");
        assert!(
            defs.contains(&Def::At(5)),
            "expected t defined at p2's wait, got {defs:?}"
        );
        assert!(defs.contains(&Def::Init));
    }

    #[test]
    fn wait_kill_uses_under_approximation() {
        // p1 assigns t on both branches => t must be active at p1's wait, so
        // the definition of t made at p2's wait on the previous iteration is
        // killed there... but killing happens in the process where the wait
        // label is; here we check that a guaranteed re-synchronisation kills
        // the old wait-definition within the same process.
        let src = "entity e is port(a : in std_logic; b : out std_logic); end e;
             architecture rtl of e is
               signal t : std_logic;
             begin
               p1 : process begin t <= a; wait on a; null; wait on a; end process p1;
               p2 : process
                 variable v : std_logic;
               begin
                 v := t;
                 b <= v;
                 wait on t;
               end process p2;
             end rtl;";
        let (_, _, rd) = analyse(src, &RdOptions::default());
        // p1 labels: 1 (t<=a), 2 (wait), 3 (null), 4 (wait); p2: 5,6,7.
        // At p1's first wait, t is guaranteed active, so present-value
        // definitions of t made at p1's waits are killed and regenerated at 2.
        let defs_at_3 = rd.definitions_reaching(3, "t");
        assert!(defs_at_3.contains(&Def::At(2)));
        assert!(
            !defs_at_3.contains(&Def::At(4)),
            "old wait definition should be killed: {defs_at_3:?}"
        );
    }

    #[test]
    fn ablation_without_under_approximation_keeps_stale_definitions() {
        // p1 assigns t before each of its two waits; with the
        // under-approximation the second wait kills the present-value
        // definition made at the first wait, without it the stale definition
        // survives around the loop.
        let src = "entity e is port(a : in std_logic; b : out std_logic); end e;
             architecture rtl of e is
               signal t : std_logic;
             begin
               p1 : process begin t <= a; wait on a; t <= a; wait on a; end process p1;
               p2 : process begin b <= t; wait on t; end process p2;
             end rtl;";
        // p1 labels: 1 (t<=a), 2 (wait), 3 (t<=a), 4 (wait); p2: 5, 6.
        let (_, _, rd) = analyse(src, &RdOptions::default());
        let defs_at_1 = rd.definitions_reaching(1, "t");
        assert!(defs_at_1.contains(&Def::At(4)));
        assert!(
            !defs_at_1.contains(&Def::At(2)),
            "definition from the first wait should be killed at the second: {defs_at_1:?}"
        );
        let opts = RdOptions {
            use_under_approximation: false,
            ..Default::default()
        };
        let (_, _, rd_ablate) = analyse(src, &opts);
        let defs_at_1 = rd_ablate.definitions_reaching(1, "t");
        assert!(
            defs_at_1.contains(&Def::At(2)),
            "without RD∩ the stale definition survives"
        );
        assert!(defs_at_1.contains(&Def::At(4)));
    }

    #[test]
    fn straight_line_mode_matches_sequential_intuition() {
        // Program (a) of the paper: [c := b]^1; [b := a]^2 as variables in a
        // single process without looping.
        let src = "entity e is port(inp : in std_logic); end e;
             architecture rtl of e is begin
               p : process
                 variable a : std_logic;
                 variable b : std_logic;
                 variable c : std_logic;
               begin
                 c := b;
                 b := a;
               end process p;
             end rtl;";
        let opts = RdOptions {
            process_repeats: false,
            ..Default::default()
        };
        let (_, _, rd) = analyse(src, &opts);
        assert_eq!(rd.definitions_reaching(1, "b"), BTreeSet::from([Def::Init]));
        assert_eq!(rd.definitions_reaching(2, "a"), BTreeSet::from([Def::Init]));
        // With looping enabled, b's definition from label 2 wraps around.
        let (_, _, rd_loop) = analyse(src, &RdOptions::default());
        assert!(rd_loop.definitions_reaching(1, "b").contains(&Def::At(2)));
    }

    #[test]
    fn def_display_forms() {
        assert_eq!(Def::Init.to_string(), "?");
        assert_eq!(Def::At(7).to_string(), "7");
    }
}
