//! The cross-flow relation `cf` of Section 4.
//!
//! `cf` is the Cartesian product of the sets of `wait`-statement labels of
//! every process of the program: a tuple `(l_1, ..., l_n) ∈ cf` describes one
//! possible synchronisation, with process `j` suspended at its wait label
//! `l_j`.  The analyses only ever need three queries, all of which are
//! answered without materialising the (exponentially large) product:
//!
//! * is a label part of *some* synchronisation (`∃ l⃗ ∈ cf : l occurs in l⃗`)?
//! * can two labels be part of the *same* synchronisation?
//! * iterate over the wait labels of every other process.

use crate::active::ActiveRd;
use std::collections::{BTreeMap, BTreeSet};
use vhdl1_syntax::{Design, Ident, Label};

/// The cross-flow relation of a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossFlow {
    /// Wait labels per process, in process order.
    pub wait_labels: Vec<Vec<Label>>,
    /// Owner process of each wait label.
    owner: BTreeMap<Label, usize>,
}

impl CrossFlow {
    /// Builds the cross-flow relation of `design`.
    pub fn build(design: &Design) -> CrossFlow {
        let wait_labels: Vec<Vec<Label>> = (0..design.processes.len())
            .map(|i| design.wait_labels(i))
            .collect();
        let mut owner = BTreeMap::new();
        for (i, labels) in wait_labels.iter().enumerate() {
            for l in labels {
                owner.insert(*l, i);
            }
        }
        CrossFlow { wait_labels, owner }
    }

    /// Whether `cf` is non-empty, i.e. every process has at least one wait
    /// statement.  If some process never synchronises the Cartesian product
    /// is empty and no synchronisation tuple exists.
    pub fn is_nonempty(&self) -> bool {
        !self.wait_labels.is_empty() && self.wait_labels.iter().all(|w| !w.is_empty())
    }

    /// The process owning the wait label `l`, if `l` is a wait label.
    pub fn owner_of(&self, l: Label) -> Option<usize> {
        self.owner.get(&l).copied()
    }

    /// `∃ l⃗ ∈ cf` such that `l` occurs in `l⃗` (side condition of Table 7).
    pub fn occurs_in_some_tuple(&self, l: Label) -> bool {
        self.is_nonempty() && self.owner.contains_key(&l)
    }

    /// `∃ l⃗ ∈ cf` such that both `l1` and `l2` occur in `l⃗` (side condition
    /// of Table 8).  Two wait labels can co-occur exactly when they belong to
    /// different processes, or are the same label.
    pub fn co_occur(&self, l1: Label, l2: Label) -> bool {
        if !self.is_nonempty() {
            return false;
        }
        match (self.owner.get(&l1), self.owner.get(&l2)) {
            (Some(p1), Some(p2)) => p1 != p2 || l1 == l2,
            _ => false,
        }
    }

    /// Wait labels of every process other than `pidx`.
    pub fn other_wait_labels(&self, pidx: usize) -> impl Iterator<Item = (usize, Label)> + '_ {
        self.wait_labels
            .iter()
            .enumerate()
            .filter(move |(j, _)| *j != pidx)
            .flat_map(|(j, ls)| ls.iter().map(move |l| (j, *l)))
    }

    /// The number of synchronisation tuples `|cf|` (product of per-process
    /// wait counts).  Only used for reporting; saturates at `u64::MAX`.
    pub fn tuple_count(&self) -> u64 {
        self.wait_labels
            .iter()
            .map(|w| w.len() as u64)
            .try_fold(1u64, |acc, n| acc.checked_mul(n))
            .unwrap_or(u64::MAX)
    }

    /// Materialises the synchronisation tuples.  Intended for tests and small
    /// designs only; the number of tuples is the product of the per-process
    /// wait counts.
    pub fn tuples(&self) -> Vec<Vec<Label>> {
        if !self.is_nonempty() {
            return Vec::new();
        }
        let mut out: Vec<Vec<Label>> = vec![Vec::new()];
        for labels in &self.wait_labels {
            let mut next = Vec::with_capacity(out.len() * labels.len());
            for prefix in &out {
                for l in labels {
                    let mut t = prefix.clone();
                    t.push(*l);
                    next.push(t);
                }
            }
            out = next;
        }
        out
    }
}

/// Per-process summaries of the active-signal analysis over the cross-flow
/// relation, precomputed once so the Table-5 wait transfer functions do not
/// re-aggregate other processes' wait labels per label.
///
/// For every process `j` the summary holds
///
/// * `may[j]  = ⋃_{l ∈ WS_j} fst(RD∪ϕentry(l))` — signals that may be active
///   at *some* wait of `j`, and
/// * `must[j] = ⋂_{l ∈ WS_j} fst(RD∩ϕentry(l))` — signals guaranteed active
///   at *every* wait of `j`,
///
/// which is exactly the per-process contribution of the synchronisation
/// side conditions of Table 5 (`cf` quantifies over every wait of every
/// other process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncSummary {
    may: Vec<BTreeSet<Ident>>,
    must: Vec<BTreeSet<Ident>>,
}

impl SyncSummary {
    /// Builds the per-process summaries from the cross-flow relation and the
    /// active-signal Reaching Definitions.
    pub fn build(cross: &CrossFlow, active: &ActiveRd) -> SyncSummary {
        let mut may = Vec::with_capacity(cross.wait_labels.len());
        let mut must = Vec::with_capacity(cross.wait_labels.len());
        for waits in &cross.wait_labels {
            let mut may_j: BTreeSet<Ident> = BTreeSet::new();
            for &l in waits {
                may_j.extend(active.may_be_active_at(l));
            }
            may.push(may_j);
            let mut iter = waits.iter();
            let must_j = match iter.next() {
                None => BTreeSet::new(),
                Some(&first) => {
                    let mut acc = active.must_be_active_at(first);
                    for &l in iter {
                        let other = active.must_be_active_at(l);
                        acc.retain(|s| other.contains(s));
                    }
                    acc
                }
            };
            must.push(must_j);
        }
        SyncSummary { may, must }
    }

    /// Signals that may be active at some wait of some process other than
    /// `pidx`.
    pub fn may_elsewhere(&self, pidx: usize) -> BTreeSet<Ident> {
        self.union_excluding(&self.may, pidx)
    }

    /// Signals guaranteed active at every wait of some process other than
    /// `pidx` (the union over other processes of their per-process
    /// intersections).
    pub fn must_elsewhere(&self, pidx: usize) -> BTreeSet<Ident> {
        self.union_excluding(&self.must, pidx)
    }

    fn union_excluding(&self, sets: &[BTreeSet<Ident>], pidx: usize) -> BTreeSet<Ident> {
        let mut out = BTreeSet::new();
        for (j, set) in sets.iter().enumerate() {
            if j != pidx {
                out.extend(set.iter().cloned());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::active_signals_rd;
    use crate::cfg::DesignCfg;
    use crate::RdOptions;
    use vhdl1_syntax::frontend;

    fn two_process_design() -> Design {
        frontend(
            "entity e is port(a : in std_logic; b : out std_logic); end e;
             architecture rtl of e is
               signal t : std_logic;
             begin
               p1 : process begin t <= a; wait on a; t <= a; wait on a, t; end process p1;
               p2 : process begin b <= t; wait on t; end process p2;
             end rtl;",
        )
        .unwrap()
    }

    #[test]
    fn wait_labels_partition_by_process() {
        let cf = CrossFlow::build(&two_process_design());
        assert_eq!(cf.wait_labels.len(), 2);
        assert_eq!(cf.wait_labels[0].len(), 2);
        assert_eq!(cf.wait_labels[1].len(), 1);
        assert!(cf.is_nonempty());
        assert_eq!(cf.tuple_count(), 2);
    }

    #[test]
    fn co_occurrence_requires_distinct_processes() {
        let cf = CrossFlow::build(&two_process_design());
        let p1_waits = cf.wait_labels[0].clone();
        let p2_wait = cf.wait_labels[1][0];
        assert!(cf.co_occur(p1_waits[0], p2_wait));
        assert!(!cf.co_occur(p1_waits[0], p1_waits[1]));
        assert!(cf.co_occur(p1_waits[0], p1_waits[0]));
        assert!(!cf.co_occur(p1_waits[0], 999));
    }

    #[test]
    fn tuples_enumerate_product() {
        let cf = CrossFlow::build(&two_process_design());
        let ts = cf.tuples();
        assert_eq!(ts.len(), 2);
        for t in &ts {
            assert_eq!(t.len(), 2);
        }
    }

    #[test]
    fn occurs_in_some_tuple_checks_wait_labels_only() {
        let d = two_process_design();
        let cf = CrossFlow::build(&d);
        for l in d.all_wait_labels() {
            assert!(cf.occurs_in_some_tuple(l));
        }
        assert!(!cf.occurs_in_some_tuple(1)); // label 1 is a signal assignment
    }

    #[test]
    fn other_wait_labels_excludes_own_process() {
        let cf = CrossFlow::build(&two_process_design());
        let others: Vec<(usize, Label)> = cf.other_wait_labels(0).collect();
        assert_eq!(others.len(), 1);
        assert_eq!(others[0].0, 1);
    }

    #[test]
    fn sync_summary_aggregates_per_process() {
        let d = two_process_design();
        let cf = CrossFlow::build(&d);
        let cfg = DesignCfg::build(&d);
        let active = active_signals_rd(&cfg, &RdOptions::default());
        let summary = SyncSummary::build(&cf, &active);
        // p1 assigns t before each wait: t may be active at p1's waits, so
        // p2's view of "elsewhere" includes t.
        assert!(summary.may_elsewhere(1).contains("t"));
        // p1's own waits are excluded from its "elsewhere" view; only p2's
        // wait counts, and p2 assigns b (an out port).
        assert!(!summary.may_elsewhere(0).contains("t"));
        assert!(summary.may_elsewhere(0).contains("b"));
        // must_elsewhere matches the per-label aggregation done longhand.
        let mut expected = BTreeSet::new();
        let mut iter = cf.wait_labels[0].iter();
        let mut acc = active.must_be_active_at(*iter.next().unwrap());
        for l in iter {
            let other = active.must_be_active_at(*l);
            acc.retain(|s| other.contains(s));
        }
        expected.extend(acc);
        assert_eq!(summary.must_elsewhere(1), expected);
    }
}
