//! Rendering of `vhdl1c --profile` output: the profile JSON document and
//! the text flame-style self-time table.
//!
//! The profile is a *separate* document from the analysis/verify report —
//! report bytes never change with profiling on — and it is explicitly split
//! into a deterministic half and a wall-clock half:
//!
//! * the `"deterministic"` object (rendered on a single line so scripts can
//!   `grep`+`cmp` it) carries only counters that are byte-identical across
//!   runs and worker counts: stage run/memo-hit counts, work and artifact
//!   totals, engine cache hits/misses, dedup counts.  The CLI's profile
//!   tests pin these on a fixed corpus;
//! * everything else (span wall times, self-time histograms, pool queue
//!   wait and utilization, watchdog events) varies run to run and exists
//!   for humans and dashboards, never for gating.

use crate::driver::BatchTelemetry;
use crate::json;
use std::fmt::Write as _;
use vhdl1_infoflow::{SpanRecord, TraceSnapshot};

/// Schema version of the profile JSON document.
pub const PROFILE_SCHEMA: u32 = 1;

/// Upper bounds (exclusive, nanoseconds) of the self-time histogram
/// buckets; the last bucket is unbounded.  Decade buckets from 1µs to 1s.
const HIST_BOUNDS: [u64; 7] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Self wall time of one span: its wall time minus the wall time of
/// directly nested children (same design, parent pointing at this stage).
fn span_self_ns(snapshot: &TraceSnapshot, span: &SpanRecord) -> u64 {
    let child_ns: u64 = snapshot
        .spans
        .iter()
        .filter(|c| c.parent == Some(span.stage) && c.design == span.design)
        .map(|c| c.wall_ns)
        .sum();
    span.wall_ns.saturating_sub(child_ns)
}

/// Histogram of per-span self times for one stage, [`HIST_BOUNDS`] buckets
/// plus one overflow bucket.
fn self_time_hist(snapshot: &TraceSnapshot, stage: &str) -> [u64; HIST_BOUNDS.len() + 1] {
    let mut hist = [0u64; HIST_BOUNDS.len() + 1];
    for span in snapshot.spans.iter().filter(|s| s.stage == stage) {
        let self_ns = span_self_ns(snapshot, span);
        let bucket = HIST_BOUNDS
            .iter()
            .position(|&b| self_ns < b)
            .unwrap_or(HIST_BOUNDS.len());
        hist[bucket] += 1;
    }
    hist
}

/// Renders the single-line deterministic section: every counter in it is
/// byte-identical across runs and `--jobs` values for a fixed corpus and
/// options.
fn deterministic_line(t: &BatchTelemetry) -> String {
    let mut stages = String::new();
    if let Some(snapshot) = &t.trace {
        let totals = snapshot.stage_totals();
        let parts: Vec<String> = totals
            .iter()
            .map(|agg| {
                format!(
                    "\"{}\": {{\"runs\": {}, \"memo_hits\": {}, \"work\": {}, \"items\": {}}}",
                    agg.stage, agg.count, agg.memo_hits, agg.work, agg.items
                )
            })
            .collect();
        stages = format!(", \"stages\": {{{}}}", parts.join(", "));
    }
    format!(
        "{{\"jobs\": {}, \"unique_jobs\": {}, \"cache_hits\": {}, \"cache_misses\": {}{stages}}}",
        t.jobs, t.unique_jobs, t.stats.cache_hits, t.stats.cache_misses
    )
}

/// Renders the profile JSON document.
///
/// The `"deterministic"` value is emitted on one line of its own (see the
/// module docs); the rest of the document is pretty-printed like the
/// analysis report.
pub fn render_json(t: &BatchTelemetry) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"tool\": \"vhdl1c-profile\",");
    let _ = writeln!(out, "  \"schema\": {PROFILE_SCHEMA},");
    let _ = writeln!(out, "  \"deterministic\": {},", deterministic_line(t));
    let _ = writeln!(out, "  \"wall_ns\": {},", t.wall_ns);
    let _ = writeln!(out, "  \"watchdog_cancels\": {},", t.watchdog_cancels);
    let s = &t.stats;
    let _ = writeln!(
        out,
        "  \"engine\": {{\"frontend\": {}, \"rd\": {}, \"local\": {}, \"specialized\": {}, \
         \"global\": {}, \"improved\": {}, \"flow_graph\": {}, \"kemmerer\": {}, \
         \"smoke\": {}, \"dynamic_flows\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
         \"store_hits\": {}, \"store_misses\": {}, \"store_writes\": {}, \
         \"units_reused\": {}, \"units_recomputed\": {}}},",
        s.frontend,
        s.rd,
        s.local,
        s.specialized,
        s.global,
        s.improved,
        s.flow_graph,
        s.kemmerer,
        s.smoke,
        s.dynamic_flows,
        s.cache_hits,
        s.cache_misses,
        s.store_hits,
        s.store_misses,
        s.store_writes,
        s.units_reused,
        s.units_recomputed
    );
    match &t.pool {
        Some(p) => {
            let busy: Vec<String> = p.busy_ns.iter().map(u64::to_string).collect();
            let _ = writeln!(
                out,
                "  \"pool\": {{\"workers\": {}, \"items\": {}, \"steals\": {}, \
                 \"queue_wait_ns\": {}, \"busy_ns\": [{}], \"wall_ns\": {}, \
                 \"utilization\": {:.6}}},",
                p.workers,
                p.items,
                p.steals,
                p.queue_wait_ns,
                busy.join(", "),
                p.wall_ns,
                p.utilization()
            );
        }
        None => {
            let _ = writeln!(out, "  \"pool\": null,");
        }
    }
    match &t.trace {
        Some(snapshot) => {
            let totals = snapshot.stage_totals();
            out.push_str("  \"stages\": [\n");
            for (i, agg) in totals.iter().enumerate() {
                let hist = self_time_hist(snapshot, agg.stage);
                let hist: Vec<String> = hist.iter().map(u64::to_string).collect();
                let comma = if i + 1 < totals.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "    {{\"stage\": \"{}\", \"runs\": {}, \"memo_hits\": {}, \
                     \"wall_ns\": {}, \"self_ns\": {}, \"work\": {}, \"items\": {}, \
                     \"self_ns_hist\": [{}]}}{comma}",
                    agg.stage,
                    agg.count,
                    agg.memo_hits,
                    agg.wall_ns,
                    agg.self_ns,
                    agg.work,
                    agg.items,
                    hist.join(", ")
                );
            }
            out.push_str("  ],\n");
            out.push_str("  \"designs\": [\n");
            let mut first = true;
            let mut i = 0;
            while i < snapshot.spans.len() {
                let design = &snapshot.spans[i].design;
                let mut spans = Vec::new();
                while i < snapshot.spans.len() && snapshot.spans[i].design == *design {
                    let span = &snapshot.spans[i];
                    spans.push(format!(
                        "{{\"stage\": \"{}\", \"parent\": {}, \"wall_ns\": {}, \
                         \"work\": {}, \"items\": {}}}",
                        span.stage,
                        json::opt_string(span.parent),
                        span.wall_ns,
                        span.work,
                        span.items
                    ));
                    i += 1;
                }
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "    {{\"name\": {}, \"spans\": [{}]}}",
                    json::string(design),
                    spans.join(", ")
                );
            }
            out.push_str("\n  ],\n");
            let events: Vec<String> = snapshot
                .events
                .iter()
                .map(|e| {
                    format!(
                        "{{\"design\": {}, \"kind\": {}, \"elapsed_ms\": {}}}",
                        json::string(&e.design),
                        json::string(e.kind),
                        e.elapsed_ms
                    )
                })
                .collect();
            let _ = writeln!(out, "  \"events\": [{}]", events.join(", "));
        }
        None => {
            let _ = writeln!(out, "  \"stages\": [],");
            let _ = writeln!(out, "  \"designs\": [],");
            let _ = writeln!(out, "  \"events\": []");
        }
    }
    out.push_str("}\n");
    out
}

fn human_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the flame-style text table: one row per stage, sorted by self
/// time descending, plus a batch summary footer.
pub fn render_table(t: &BatchTelemetry) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>6} {:>6} {:>10} {:>7} {:>12} {:>9}",
        "stage", "runs", "memo", "self", "%self", "work", "items"
    );
    if let Some(snapshot) = &t.trace {
        let mut totals = snapshot.stage_totals();
        totals.sort_by_key(|t| std::cmp::Reverse(t.self_ns));
        let total_self: u64 = totals.iter().map(|agg| agg.self_ns).sum();
        for agg in totals.iter().filter(|a| a.count > 0 || a.memo_hits > 0) {
            let pct = if total_self == 0 {
                0.0
            } else {
                agg.self_ns as f64 * 100.0 / total_self as f64
            };
            let _ = writeln!(
                out,
                "{:<14} {:>6} {:>6} {:>10} {:>6.1}% {:>12} {:>9}",
                agg.stage,
                agg.count,
                agg.memo_hits,
                human_ns(agg.self_ns),
                pct,
                agg.work,
                agg.items
            );
        }
        let _ = writeln!(
            out,
            "{:<14} {:>6} {:>6} {:>10}",
            "total",
            totals.iter().map(|a| a.count).sum::<u64>(),
            totals.iter().map(|a| a.memo_hits).sum::<u64>(),
            human_ns(total_self)
        );
    }
    let _ = writeln!(
        out,
        "batch: {} job(s), {} unique, {} engine cache hit(s)/{} miss(es), wall {}",
        t.jobs,
        t.unique_jobs,
        t.stats.cache_hits,
        t.stats.cache_misses,
        human_ns(t.wall_ns)
    );
    if let Some(p) = &t.pool {
        let _ = writeln!(
            out,
            "pool: {} worker(s), {} item(s), {} steal(s), queue wait {}, utilization {:.0}%",
            p.workers,
            p.items,
            p.steals,
            human_ns(p.queue_wait_ns),
            p.utilization() * 100.0
        );
    }
    if t.watchdog_cancels > 0 {
        let _ = writeln!(out, "watchdog: {} cancel(s)", t.watchdog_cancels);
    }
    out
}

/// Renders the stderr `--stats` summary of the engine counters.
pub fn render_stats(t: &BatchTelemetry) -> String {
    let s = &t.stats;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "stats: {} job(s), {} unique after dedup, {} engine cache hit(s), {} miss(es)",
        t.jobs, t.unique_jobs, s.cache_hits, s.cache_misses
    );
    let _ = writeln!(
        out,
        "stats: stage runs: frontend {}, rd {}, local {}, specialized {}, global {}, \
         improved {}, flow_graph {}, kemmerer {}, smoke {}, dynamic_flows {}",
        s.frontend,
        s.rd,
        s.local,
        s.specialized,
        s.global,
        s.improved,
        s.flow_graph,
        s.kemmerer,
        s.smoke,
        s.dynamic_flows
    );
    if s.units_reused + s.units_recomputed > 0 {
        let _ = writeln!(
            out,
            "stats: incremental units: {} reused, {} recomputed",
            s.units_reused, s.units_recomputed
        );
    }
    if t.watchdog_cancels > 0 {
        let _ = writeln!(out, "stats: watchdog cancel(s): {}", t.watchdog_cancels);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_batch_traced, BatchOptions, Job};
    use vhdl1_corpus::{generate, CorpusSpec};

    fn corpus_jobs(seed: u64, count: usize) -> Vec<Job> {
        generate(&CorpusSpec::new(seed, count))
            .into_iter()
            .map(Job::from_generated)
            .collect()
    }

    fn profiled(jobs: usize) -> BatchOptions {
        BatchOptions {
            profile: true,
            jobs,
            ..BatchOptions::default()
        }
    }

    #[test]
    fn profile_json_is_structurally_sane() {
        let jobs = corpus_jobs(7, 6);
        let (_, telemetry) = run_batch_traced(&jobs, &profiled(2));
        let json = render_json(&telemetry);
        assert!(json.contains("\"tool\": \"vhdl1c-profile\""));
        assert!(json.contains("\"schema\": 1,"));
        assert!(json.contains("\"deterministic\": {"));
        assert!(json.contains("\"stage\": \"frontend\""));
        assert!(json.contains("\"pool\": {"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // The deterministic section is a single line (grep-able in CI).
        let det = json
            .lines()
            .find(|l| l.trim_start().starts_with("\"deterministic\""))
            .unwrap();
        assert!(det.trim_end().ends_with("},"));
    }

    #[test]
    fn deterministic_line_is_worker_count_independent() {
        let jobs = corpus_jobs(11, 8);
        let mut lines = Vec::new();
        for workers in [1, 2, 4] {
            let (report, telemetry) = run_batch_traced(&jobs, &profiled(workers));
            assert!(report.check_ok());
            lines.push(deterministic_line(&telemetry));
        }
        assert_eq!(lines[0], lines[1]);
        assert_eq!(lines[0], lines[2]);
    }

    #[test]
    fn self_time_sums_to_at_most_wall_clock_sequentially() {
        let jobs = corpus_jobs(7, 6);
        let (_, telemetry) = run_batch_traced(&jobs, &profiled(1));
        let snapshot = telemetry.trace.as_ref().unwrap();
        assert!(
            snapshot.total_self_ns() <= telemetry.wall_ns,
            "self {} > wall {}",
            snapshot.total_self_ns(),
            telemetry.wall_ns
        );
    }

    #[test]
    fn table_and_stats_render_the_counters() {
        let jobs = corpus_jobs(3, 4);
        let (_, telemetry) = run_batch_traced(&jobs, &profiled(1));
        let table = render_table(&telemetry);
        assert!(table.contains("stage"));
        assert!(table.contains("frontend"));
        assert!(table.contains("batch: 4 job(s), 4 unique"));
        let stats = render_stats(&telemetry);
        assert!(stats.contains("stage runs: frontend 4"));
    }

    #[test]
    fn histogram_buckets_cover_every_span() {
        let jobs = corpus_jobs(5, 4);
        let (_, telemetry) = run_batch_traced(&jobs, &profiled(1));
        let snapshot = telemetry.trace.as_ref().unwrap();
        for agg in snapshot.stage_totals() {
            let hist = self_time_hist(snapshot, agg.stage);
            assert_eq!(hist.iter().sum::<u64>(), agg.count, "stage {}", agg.stage);
        }
    }
}
