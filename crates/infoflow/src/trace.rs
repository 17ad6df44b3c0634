//! Stage-level tracing: spans, merged snapshots, and metrics exposition.
//!
//! The [`crate::Engine`] counts stage executions ([`crate::EngineStats`])
//! but says nothing about *where time and budget go* per design.  This
//! module adds that observability layer without any dependency and without
//! taxing the un-instrumented path:
//!
//! * [`TraceSink`] — a sharded span collector.  Worker threads append
//!   [`SpanRecord`]s to one of a fixed set of mutex-guarded shards (picked
//!   by thread id, so in the common one-engine-per-batch case each worker
//!   keeps writing the same uncontended shard); [`TraceSink::snapshot`]
//!   merges the shards into one deterministically ordered
//!   [`TraceSnapshot`].
//! * [`SpanRecord`] — one computed stage: design, stage name, parent stage
//!   (from a per-thread span stack, so nesting is recorded where it really
//!   happens), wall-clock nanoseconds, plus two **deterministic** counters:
//!   `work` (stage-specific effort — simulation deltas, closure matrix
//!   entries, worklist labels, or the budget units consumed when the stage
//!   was cut short) and `items` (artifact size — dense rows, graph edges,
//!   signals).
//! * Memo hits never allocate a span: they bump a per-stage atomic counter
//!   ([`TraceSnapshot::memo_hits`]), keeping the hot repeat-query path at
//!   one atomic add.
//! * [`TraceEvent`] — deadline/cancel trips observed at stage boundaries
//!   (the watchdog story of `vhdl1c --deadline-ms`).
//! * [`render_prometheus`] — Prometheus text-format exposition over a
//!   snapshot plus the engine counters, which the `vhdl1d` daemon serves
//!   as `/metrics`.
//!
//! # What is deterministic
//!
//! `work`, `items`, span counts, memo-hit counts and the engine counters
//! depend only on the inputs and the options — they are byte-identical
//! across runs and worker counts.  `wall_ns` and event timings are
//! wall-clock and vary run to run.  Consumers that gate on profiles (the
//! stage-run assertions of the CLI's profile tests) must use only the
//! deterministic side.
//!
//! # Zero overhead when disabled
//!
//! Tracing is off unless [`crate::AnalysisOptions::trace`] is set.  When
//! off, the engine holds no sink at all: every instrumentation site is a
//! single `Option` discriminant check — no allocation, no `Instant::now`,
//! no atomics (guarded by the `engine_cold_vs_warm` bench series, which
//! runs untraced).

use crate::engine::EngineStats;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Stable stage names of every traced span, in pipeline order.  Indexes
/// into the memo-hit counters of a [`TraceSink`].
pub const STAGES: [&str; 10] = [
    "frontend",
    "rd",
    "local",
    "specialized",
    "global",
    "improved",
    "flow_graph",
    "kemmerer",
    "smoke",
    "dynamic_flows",
];

fn stage_index(stage: &str) -> Option<usize> {
    STAGES.iter().position(|s| *s == stage)
}

/// One computed stage of one design's analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Name of the analysed design.
    pub design: String,
    /// Stage name (one of [`STAGES`]).
    pub stage: &'static str,
    /// The innermost enclosing span on the same thread when this stage
    /// started, if any — flow-graph builds nest the closures they force,
    /// for example.
    pub parent: Option<&'static str>,
    /// Wall-clock duration of the computation.  **Non-deterministic.**
    pub wall_ns: u64,
    /// Deterministic stage-specific work counter: simulation delta cycles,
    /// closure matrix entries, dataflow labels — or, when the stage
    /// exhausted its budget, the budget units consumed.
    pub work: u64,
    /// Deterministic artifact size: dense rows, graph edges, signals.
    pub items: u64,
}

/// A deadline or cancellation trip observed at a stage boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Name of the design whose analysis was refused further work.
    pub design: String,
    /// `"deadline"` (the engine's own wall-clock gate) or `"cancel"` (an
    /// external [`crate::CancelFlag`], typically a watchdog).
    pub kind: &'static str,
    /// Milliseconds elapsed since the analysis handle was created.
    /// **Non-deterministic.**
    pub elapsed_ms: u64,
}

/// Live timing state of a span in flight.  Created by [`TraceSink::begin`];
/// closed by [`TraceSink::end`].  Dropping an unfinished timer (a panicking
/// stage) unwinds the per-thread span stack so later spans are not
/// misattributed.
#[derive(Debug)]
pub struct SpanTimer {
    stage: &'static str,
    parent: Option<&'static str>,
    start: Instant,
    done: bool,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if !self.done {
            pop_stack(self.stage);
        }
    }
}

thread_local! {
    /// The per-thread stack of in-flight span stages — parents are
    /// attributed where nesting actually happens, per worker thread.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn push_stack(stage: &'static str) -> Option<&'static str> {
    SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied();
        stack.push(stage);
        parent
    })
}

fn pop_stack(stage: &'static str) {
    SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        // Pop through any entries a panicking nested stage failed to
        // remove, up to and including this span's own entry.
        while let Some(top) = stack.pop() {
            if top == stage {
                break;
            }
        }
    });
}

/// Number of span-buffer shards.  Threads pick a shard by thread-id hash,
/// so a batch pool's workers mostly write disjoint shards and the mutexes
/// are uncontended ("lock-free-ish" without unsafe code).
const SHARDS: usize = 16;

fn shard_index() -> usize {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::hash::DefaultHasher::new();
    std::thread::current().id().hash(&mut hasher);
    (hasher.finish() as usize) % SHARDS
}

/// Collects spans, memo hits and deadline events for one [`crate::Engine`].
///
/// Shared by every worker thread of a batch; cheap to write (one shard
/// mutex per computed span, one atomic per memo hit) and merged once at
/// [`TraceSink::snapshot`] time.
#[derive(Debug, Default)]
pub struct TraceSink {
    shards: [Mutex<Vec<SpanRecord>>; SHARDS],
    hits: [AtomicU64; STAGES.len()],
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceSink {
    /// Creates an empty sink.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// Opens a span: records the enclosing parent from the per-thread span
    /// stack and starts the clock.
    pub fn begin(&self, stage: &'static str) -> SpanTimer {
        SpanTimer {
            stage,
            parent: push_stack(stage),
            start: Instant::now(),
            done: false,
        }
    }

    /// Closes a span, recording its design, wall time and deterministic
    /// counters.
    pub fn end(&self, mut timer: SpanTimer, design: &str, work: u64, items: u64) {
        timer.done = true;
        pop_stack(timer.stage);
        let record = SpanRecord {
            design: design.to_string(),
            stage: timer.stage,
            parent: timer.parent,
            wall_ns: u64::try_from(timer.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            work,
            items,
        };
        self.shards[shard_index()]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(record);
    }

    /// Counts a memo hit on `stage` — no span is allocated.
    pub fn memo_hit(&self, stage: &'static str) {
        if let Some(i) = stage_index(stage) {
            self.hits[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a deadline/cancel trip.
    pub fn event(&self, design: &str, kind: &'static str, elapsed_ms: u64) {
        self.events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(TraceEvent {
                design: design.to_string(),
                kind,
                elapsed_ms,
            });
    }

    /// Merges every shard into one deterministically ordered snapshot.
    ///
    /// Spans sort by `(design, pipeline position, work, items)` — a total
    /// order independent of which worker computed what, so everything
    /// except the wall-clock fields is byte-stable across worker counts.
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut spans: Vec<SpanRecord> = Vec::new();
        for shard in &self.shards {
            spans.extend(
                shard
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .iter()
                    .cloned(),
            );
        }
        spans.sort_by(|a, b| {
            (a.design.as_str(), stage_index(a.stage), a.work, a.items).cmp(&(
                b.design.as_str(),
                stage_index(b.stage),
                b.work,
                b.items,
            ))
        });
        let mut events = self
            .events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone();
        events.sort_by(|a, b| (&a.design, a.kind).cmp(&(&b.design, b.kind)));
        TraceSnapshot {
            spans,
            memo_hits: std::array::from_fn(|i| self.hits[i].load(Ordering::Relaxed)),
            events,
        }
    }
}

/// Per-stage aggregation of a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageAgg {
    /// Stage name (one of [`STAGES`]).
    pub stage: &'static str,
    /// Number of computed spans.
    pub count: u64,
    /// Total wall time across spans.  **Non-deterministic.**
    pub wall_ns: u64,
    /// Total *self* wall time: wall time minus the wall time of directly
    /// nested child spans.  **Non-deterministic.**
    pub self_ns: u64,
    /// Sum of the deterministic work counters.
    pub work: u64,
    /// Sum of the deterministic artifact sizes.
    pub items: u64,
    /// Memo hits on this stage.
    pub memo_hits: u64,
}

/// A merged, deterministically ordered view of everything a [`TraceSink`]
/// collected.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSnapshot {
    /// Every computed span, sorted by `(design, stage)`.
    pub spans: Vec<SpanRecord>,
    /// Memo hits per stage, indexed like [`STAGES`].
    pub memo_hits: [u64; STAGES.len()],
    /// Deadline/cancel events, sorted by `(design, kind)`.
    pub events: Vec<TraceEvent>,
}

impl TraceSnapshot {
    /// Aggregates the snapshot per stage, in [`STAGES`] order.  Self time
    /// subtracts each span's directly nested children (same design, parent
    /// pointing at the span's stage), so summing `self_ns` across stages
    /// never double-counts nesting.
    pub fn stage_totals(&self) -> Vec<StageAgg> {
        let mut totals: Vec<StageAgg> = STAGES
            .iter()
            .enumerate()
            .map(|(i, stage)| StageAgg {
                stage,
                memo_hits: self.memo_hits[i],
                ..StageAgg::default()
            })
            .collect();
        for span in &self.spans {
            let Some(i) = stage_index(span.stage) else {
                continue;
            };
            let child_ns: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(span.stage) && c.design == span.design)
                .map(|c| c.wall_ns)
                .sum();
            totals[i].count += 1;
            totals[i].wall_ns += span.wall_ns;
            totals[i].self_ns += span.wall_ns.saturating_sub(child_ns);
            totals[i].work += span.work;
            totals[i].items += span.items;
        }
        totals
    }

    /// Sum of per-stage self time — by construction at most the total wall
    /// time the computing threads spent inside spans.
    pub fn total_self_ns(&self) -> u64 {
        self.stage_totals().iter().map(|t| t.self_ns).sum()
    }

    /// Sum of the deterministic work counters across every span.
    pub fn total_work(&self) -> u64 {
        self.spans.iter().map(|s| s.work).sum()
    }

    /// Sum of the deterministic artifact sizes across every span.
    pub fn total_items(&self) -> u64 {
        self.spans.iter().map(|s| s.items).sum()
    }
}

/// Renders a snapshot plus the engine counters in the Prometheus text
/// exposition format (version 0.0.4) — the `/metrics` payload a serving
/// daemon would return.
///
/// Counter values are cumulative over the engine's lifetime; stage labels
/// use the stable names of [`STAGES`].
pub fn render_prometheus(snapshot: &TraceSnapshot, stats: &EngineStats) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP vhdl1_stage_runs_total Stage computations (memo hits excluded)."
    );
    let _ = writeln!(out, "# TYPE vhdl1_stage_runs_total counter");
    let totals = snapshot.stage_totals();
    for t in &totals {
        let _ = writeln!(
            out,
            "vhdl1_stage_runs_total{{stage=\"{}\"}} {}",
            t.stage, t.count
        );
    }
    let _ = writeln!(
        out,
        "# HELP vhdl1_stage_self_seconds_total Self wall time per stage."
    );
    let _ = writeln!(out, "# TYPE vhdl1_stage_self_seconds_total counter");
    for t in &totals {
        let _ = writeln!(
            out,
            "vhdl1_stage_self_seconds_total{{stage=\"{}\"}} {:.9}",
            t.stage,
            t.self_ns as f64 / 1e9
        );
    }
    let _ = writeln!(
        out,
        "# HELP vhdl1_stage_memo_hits_total Memoized stage queries served without recomputation."
    );
    let _ = writeln!(out, "# TYPE vhdl1_stage_memo_hits_total counter");
    for t in &totals {
        let _ = writeln!(
            out,
            "vhdl1_stage_memo_hits_total{{stage=\"{}\"}} {}",
            t.stage, t.memo_hits
        );
    }
    let _ = writeln!(
        out,
        "# HELP vhdl1_stage_work_total Deterministic work units per stage."
    );
    let _ = writeln!(out, "# TYPE vhdl1_stage_work_total counter");
    for t in &totals {
        let _ = writeln!(
            out,
            "vhdl1_stage_work_total{{stage=\"{}\"}} {}",
            t.stage, t.work
        );
    }
    let _ = writeln!(
        out,
        "# HELP vhdl1_engine_cache_hits_total Source memo-table hits."
    );
    let _ = writeln!(out, "# TYPE vhdl1_engine_cache_hits_total counter");
    let _ = writeln!(out, "vhdl1_engine_cache_hits_total {}", stats.cache_hits);
    let _ = writeln!(
        out,
        "# HELP vhdl1_engine_cache_misses_total Source memo-table misses."
    );
    let _ = writeln!(out, "# TYPE vhdl1_engine_cache_misses_total counter");
    let _ = writeln!(
        out,
        "vhdl1_engine_cache_misses_total {}",
        stats.cache_misses
    );
    let _ = writeln!(
        out,
        "# HELP vhdl1_store_hits_total Persistent-artifact hits (memory misses served from disk)."
    );
    let _ = writeln!(out, "# TYPE vhdl1_store_hits_total counter");
    let _ = writeln!(out, "vhdl1_store_hits_total {}", stats.store_hits);
    let _ = writeln!(
        out,
        "# HELP vhdl1_store_misses_total Persistent-artifact misses (absent, corrupt, or stale)."
    );
    let _ = writeln!(out, "# TYPE vhdl1_store_misses_total counter");
    let _ = writeln!(out, "vhdl1_store_misses_total {}", stats.store_misses);
    let _ = writeln!(
        out,
        "# HELP vhdl1_store_writes_total Persistent artifacts written through to disk."
    );
    let _ = writeln!(out, "# TYPE vhdl1_store_writes_total counter");
    let _ = writeln!(out, "vhdl1_store_writes_total {}", stats.store_writes);
    let _ = writeln!(
        out,
        "# HELP vhdl1_units_reused_total Per-process stages reused across workspace updates."
    );
    let _ = writeln!(out, "# TYPE vhdl1_units_reused_total counter");
    let _ = writeln!(out, "vhdl1_units_reused_total {}", stats.units_reused);
    let _ = writeln!(
        out,
        "# HELP vhdl1_units_recomputed_total Per-process stages recomputed across workspace updates."
    );
    let _ = writeln!(out, "# TYPE vhdl1_units_recomputed_total counter");
    let _ = writeln!(
        out,
        "vhdl1_units_recomputed_total {}",
        stats.units_recomputed
    );
    let _ = writeln!(
        out,
        "# HELP vhdl1_deadline_events_total Deadline/cancel trips observed at stage boundaries."
    );
    let _ = writeln!(out, "# TYPE vhdl1_deadline_events_total counter");
    let _ = writeln!(out, "vhdl1_deadline_events_total {}", snapshot.events.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_merge_sorted_and_carry_parents() {
        let sink = TraceSink::new();
        let outer = sink.begin("flow_graph");
        let inner = sink.begin("global");
        sink.end(inner, "d1", 5, 2);
        sink.end(outer, "d1", 0, 3);
        let lone = sink.begin("rd");
        sink.end(lone, "d0", 7, 1);
        let snap = sink.snapshot();
        let got: Vec<(&str, &'static str, Option<&'static str>)> = snap
            .spans
            .iter()
            .map(|s| (s.design.as_str(), s.stage, s.parent))
            .collect();
        assert_eq!(
            got,
            vec![
                ("d0", "rd", None),
                ("d1", "global", Some("flow_graph")),
                ("d1", "flow_graph", None),
            ]
        );
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let snap = TraceSnapshot {
            spans: vec![
                SpanRecord {
                    design: "d".into(),
                    stage: "global",
                    parent: Some("flow_graph"),
                    wall_ns: 40,
                    work: 0,
                    items: 0,
                },
                SpanRecord {
                    design: "d".into(),
                    stage: "flow_graph",
                    parent: None,
                    wall_ns: 100,
                    work: 0,
                    items: 0,
                },
            ],
            ..TraceSnapshot::default()
        };
        let totals = snap.stage_totals();
        let graph = totals.iter().find(|t| t.stage == "flow_graph").unwrap();
        assert_eq!(graph.wall_ns, 100);
        assert_eq!(graph.self_ns, 60);
        assert_eq!(snap.total_self_ns(), 100); // 60 + 40, no double count
    }

    #[test]
    fn memo_hits_count_without_span_allocation() {
        let sink = TraceSink::new();
        sink.memo_hit("rd");
        sink.memo_hit("rd");
        sink.memo_hit("smoke");
        let snap = sink.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.memo_hits[stage_index("rd").unwrap()], 2);
        assert_eq!(snap.memo_hits[stage_index("smoke").unwrap()], 1);
    }

    #[test]
    fn dropped_timer_unwinds_the_stack() {
        let sink = TraceSink::new();
        {
            let _abandoned = sink.begin("rd"); // dropped without end()
        }
        let span = sink.begin("local");
        assert_eq!(span.parent, None, "abandoned span must not leak a parent");
        sink.end(span, "d", 0, 0);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let sink = TraceSink::new();
        let t = sink.begin("rd");
        sink.end(t, "d", 3, 4);
        sink.event("d", "deadline", 12);
        let text = render_prometheus(&sink.snapshot(), &EngineStats::default());
        assert!(text.contains("vhdl1_stage_runs_total{stage=\"rd\"} 1"));
        assert!(text.contains("vhdl1_stage_work_total{stage=\"rd\"} 3"));
        assert!(text.contains("vhdl1_engine_cache_misses_total 0"));
        assert!(text.contains("vhdl1_deadline_events_total 1"));
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .split_once(' ')
                        .is_some_and(|(name, value)| !name.is_empty() && !value.is_empty()),
                "malformed exposition line: {line}"
            );
        }
    }

    #[test]
    fn events_sort_deterministically() {
        let sink = TraceSink::new();
        sink.event("b", "deadline", 1);
        sink.event("a", "cancel", 2);
        let snap = sink.snapshot();
        assert_eq!(snap.events[0].design, "a");
        assert_eq!(snap.events[1].design, "b");
    }
}
