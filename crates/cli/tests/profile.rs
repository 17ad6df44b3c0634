//! End-to-end guarantees of the `--profile`/`--stats` telemetry layer:
//! profiling never changes a report byte, deterministic profile counters
//! are worker-count independent, and watchdog/deadline trips surface as
//! trace events — not as report mutations.

use vhdl1_cli::driver::{run_batch, run_batch_traced, BatchOptions, Job, VerifyOptions};
use vhdl1_cli::profile::render_json;
use vhdl1_corpus::{generate, CorpusSpec};

fn corpus_jobs(seed: u64, count: usize) -> Vec<Job> {
    generate(&CorpusSpec::new(seed, count))
        .into_iter()
        .map(Job::from_generated)
        .collect()
}

#[test]
fn profiling_never_changes_analyze_report_bytes() {
    let jobs = corpus_jobs(7, 10);
    for workers in [1, 4] {
        let plain = run_batch(
            &jobs,
            &BatchOptions {
                jobs: workers,
                ..BatchOptions::default()
            },
        );
        let (profiled, telemetry) = run_batch_traced(
            &jobs,
            &BatchOptions {
                jobs: workers,
                profile: true,
                ..BatchOptions::default()
            },
        );
        assert_eq!(
            plain.to_json(),
            profiled.to_json(),
            "profiling changed analyze report bytes at jobs={workers}"
        );
        assert_eq!(plain.to_text(), profiled.to_text());
        let snapshot = telemetry.trace.expect("profile run must carry a trace");
        assert!(!snapshot.spans.is_empty(), "no spans collected");
    }
}

#[test]
fn profiling_never_changes_verify_report_bytes() {
    let jobs = corpus_jobs(5, 6);
    let base = BatchOptions {
        verify: Some(VerifyOptions::default()),
        smoke: true,
        ..BatchOptions::default()
    };
    let plain = run_batch(&jobs, &base);
    let (profiled, telemetry) = run_batch_traced(
        &jobs,
        &BatchOptions {
            profile: true,
            ..base
        },
    );
    assert_eq!(plain.to_json(), profiled.to_json());
    let snapshot = telemetry.trace.unwrap();
    assert!(
        snapshot.spans.iter().any(|s| s.stage == "dynamic_flows"),
        "verify run must trace the dynamic_flows stage"
    );
    assert!(snapshot.spans.iter().any(|s| s.stage == "smoke"));
}

#[test]
fn deterministic_counters_are_worker_count_independent() {
    // The acceptance criterion: stage runs, memo hits, work and items in
    // the profile's deterministic section must be byte-identical across
    // `--jobs 1/2/4` (wall-clock fields are excluded by construction).
    let jobs = corpus_jobs(11, 12);
    let mut sections = Vec::new();
    for workers in [1, 2, 4] {
        let (_, telemetry) = run_batch_traced(
            &jobs,
            &BatchOptions {
                jobs: workers,
                profile: true,
                ..BatchOptions::default()
            },
        );
        let json = render_json(&telemetry);
        let det = json
            .lines()
            .find(|l| l.trim_start().starts_with("\"deterministic\""))
            .expect("profile JSON carries a deterministic line")
            .to_string();
        sections.push(det);
    }
    assert_eq!(sections[0], sections[1], "jobs=1 vs jobs=2");
    assert_eq!(sections[0], sections[2], "jobs=1 vs jobs=4");
}

#[test]
fn cold_corpus_runs_each_stage_once_per_unique_design() {
    // Every unique design of a cold batch misses the source cache once and
    // runs each stage of the default pipeline exactly once; the flow graph
    // is built twice (analysis graph and audit graph), and neither the
    // Table 8 base closure nor the Kemmerer baseline runs at all.  A rise
    // in any of these counters means memoization or dedup got weaker.
    let jobs = corpus_jobs(7, 25);
    let (_, telemetry) = run_batch_traced(
        &jobs,
        &BatchOptions {
            jobs: 4,
            profile: true,
            ..BatchOptions::default()
        },
    );
    let unique = telemetry.unique_jobs as u64;
    assert_eq!(unique, 25);
    assert_eq!(telemetry.stats.cache_misses, unique);
    let totals = telemetry.trace.expect("profiled run").stage_totals();
    let runs = |stage: &str| {
        totals
            .iter()
            .find(|agg| agg.stage == stage)
            .unwrap_or_else(|| panic!("stage `{stage}` missing from totals"))
            .count
    };
    for stage in ["frontend", "rd", "local", "specialized", "improved"] {
        assert_eq!(runs(stage), unique, "{stage} runs");
    }
    assert_eq!(runs("flow_graph"), 2 * unique, "flow_graph runs");
    assert_eq!(runs("global"), 0, "global runs");
    assert_eq!(runs("kemmerer"), 0, "kemmerer runs");
}

#[test]
fn span_counts_match_engine_stats() {
    let jobs = corpus_jobs(3, 8);
    let (_, telemetry) = run_batch_traced(
        &jobs,
        &BatchOptions {
            jobs: 2,
            profile: true,
            ..BatchOptions::default()
        },
    );
    let snapshot = telemetry.trace.unwrap();
    let count = |stage: &str| snapshot.spans.iter().filter(|s| s.stage == stage).count() as u64;
    let s = &telemetry.stats;
    assert_eq!(count("frontend"), s.frontend);
    assert_eq!(count("rd"), s.rd);
    assert_eq!(count("local"), s.local);
    assert_eq!(count("specialized"), s.specialized);
    assert_eq!(count("global"), s.global);
    assert_eq!(count("improved"), s.improved);
    assert_eq!(count("flow_graph"), s.flow_graph);
    assert_eq!(count("smoke"), s.smoke);
    assert_eq!(count("dynamic_flows"), s.dynamic_flows);
}

#[test]
fn expired_deadline_surfaces_as_trace_events() {
    // budget.deadline_ms = 0 trips the engine's own gate deterministically
    // before the first stage of every design; with profiling on each trip
    // is also recorded as a `deadline` trace event, and the report is the
    // same as the unprofiled run.
    let jobs = corpus_jobs(7, 4);
    let mut opts = BatchOptions {
        profile: true,
        ..BatchOptions::default()
    };
    opts.analysis.budget.deadline_ms = Some(0);
    let (report, telemetry) = run_batch_traced(&jobs, &opts);
    assert_eq!(report.degraded.len(), jobs.len());
    let snapshot = telemetry.trace.unwrap();
    assert!(
        snapshot.events.len() >= jobs.len(),
        "every degraded design must log a deadline event, got {:?}",
        snapshot.events
    );
    assert!(snapshot.events.iter().all(|e| e.kind == "deadline"));
    let mut unprofiled = opts.clone();
    unprofiled.profile = false;
    assert_eq!(run_batch(&jobs, &unprofiled).to_json(), report.to_json());
}

#[test]
fn watchdog_cancel_is_counted_and_traced() {
    // A zero watchdog deadline cancels every design's cooperative flag
    // within a few polls.  Cancellation is racy by nature (a design may
    // finish first), so assert consistency, not exact counts: every
    // watchdog trip that bit shows up as a degraded entry and (profiled)
    // as a `cancel`/`deadline` trace event.
    let jobs = corpus_jobs(13, 6);
    let opts = BatchOptions {
        profile: true,
        deadline_ms: Some(0),
        ..BatchOptions::default()
    };
    let (report, telemetry) = run_batch_traced(&jobs, &opts);
    let snapshot = telemetry.trace.unwrap();
    assert_eq!(
        report.degraded.len(),
        snapshot.events.len(),
        "one trace event per degraded design"
    );
    assert!(snapshot
        .events
        .iter()
        .all(|e| e.kind == "cancel" || e.kind == "deadline"));
}
