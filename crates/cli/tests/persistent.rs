//! End-to-end guarantees of the persistent artifact cache (`--cache-dir`):
//! a warm rerun over the same directory performs **zero** frontend/stage
//! work (counter-verified) and produces byte-identical reports, and the
//! daemon's `run_batch_on` seam matches `run_batch` byte-for-byte.

use vhdl1_cli::driver::{
    run_batch, run_batch_on, run_batch_traced, BatchOptions, Format, Job, VerifyOptions,
    DEFAULT_PERSISTENT_CACHE_CAP,
};
use vhdl1_corpus::{generate, CorpusSpec};
use vhdl1_infoflow::{CachePolicy, Engine, EngineConfig};

/// Self-cleaning scratch directory.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vhdl1-cli-persistent-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn corpus_jobs(seed: u64, count: usize) -> Vec<Job> {
    generate(&CorpusSpec::new(seed, count))
        .into_iter()
        .map(Job::from_generated)
        .collect()
}

fn persistent_opts(dir: &std::path::Path) -> BatchOptions {
    BatchOptions {
        jobs: 2,
        cache: CachePolicy::Persistent {
            dir: dir.to_path_buf(),
            cap: DEFAULT_PERSISTENT_CACHE_CAP,
        },
        ..BatchOptions::default()
    }
}

#[test]
fn warm_rerun_does_zero_frontend_work_and_matches_bytes() {
    let tmp = TempDir::new("analyze");
    let jobs = corpus_jobs(11, 8);
    let opts = persistent_opts(&tmp.0);

    let (cold, cold_t) = run_batch_traced(&jobs, &opts);
    assert!(cold_t.stats.frontend > 0, "cold run must actually parse");
    assert!(cold_t.stats.store_writes > 0, "cold run must write through");

    // `run_batch_traced` builds a fresh engine per call, so the second run
    // models a new process over the same cache directory.
    let (warm, warm_t) = run_batch_traced(&jobs, &opts);
    assert_eq!(
        warm.to_json(),
        cold.to_json(),
        "reports must be byte-identical"
    );
    // No stage of the pipeline recomputes anything on a warm rerun.
    let s = &warm_t.stats;
    for (stage, runs) in [
        ("frontend", s.frontend),
        ("rd", s.rd),
        ("local", s.local),
        ("specialized", s.specialized),
        ("global", s.global),
        ("improved", s.improved),
        ("flow_graph", s.flow_graph),
        ("kemmerer", s.kemmerer),
    ] {
        assert_eq!(runs, 0, "warm rerun must not run {stage}");
    }
    assert_eq!(s.store_hits as usize, warm_t.unique_jobs);
}

#[test]
fn warm_dot_rerun_renders_labels_without_frontend_work() {
    let tmp = TempDir::new("dot");
    let jobs = corpus_jobs(19, 6);
    let mut opts = persistent_opts(&tmp.0);
    opts.format = Format::Dot;

    let (cold, cold_t) = run_batch_traced(&jobs, &opts);
    assert!(cold_t.stats.frontend > 0);
    let cold_dot = cold.to_dot();
    assert!(
        cold_dot.contains("tooltip=\"accessed at "),
        "DOT rendering must carry the node access labels"
    );

    // The access-label table is persisted with the artifact, so a warm
    // rerun renders byte-identical DOT without re-elaborating anything —
    // the last output format that used to force frontend work from disk.
    let (warm, warm_t) = run_batch_traced(&jobs, &opts);
    assert_eq!(warm.to_dot(), cold_dot, "DOT bytes must survive the store");
    assert_eq!(warm_t.stats.frontend, 0, "warm DOT rerun must not parse");
    assert_eq!(warm_t.stats.flow_graph, 0);
}

#[test]
fn warm_verify_rerun_serves_dynamic_flows_from_disk() {
    let tmp = TempDir::new("verify");
    let jobs = corpus_jobs(13, 4);
    let mut opts = persistent_opts(&tmp.0);
    opts.verify = Some(VerifyOptions { rounds: 4, seed: 1 });

    let (cold, cold_t) = run_batch_traced(&jobs, &opts);
    assert!(cold_t.stats.dynamic_flows > 0);

    let (warm, warm_t) = run_batch_traced(&jobs, &opts);
    assert_eq!(warm.to_json(), cold.to_json());
    assert_eq!(warm_t.stats.frontend, 0);
    assert_eq!(
        warm_t.stats.dynamic_flows, 0,
        "witness sweeps must be served from the artifact store"
    );
}

#[test]
fn run_batch_on_matches_run_batch_bytes_even_on_a_warm_engine() {
    let jobs = corpus_jobs(17, 6);
    let opts = BatchOptions {
        jobs: 2,
        ..BatchOptions::default()
    };
    let expected = run_batch(&jobs, &opts).to_json();

    // A long-lived daemon engine answers the same batch twice; the second
    // pass is fully memo-warm yet the report bytes must not change (the
    // report-level dedup flags reflect intra-batch structure only).
    let engine = Engine::new(EngineConfig {
        options: opts.analysis,
        cache: CachePolicy::Capped(64),
    });
    let first = run_batch_on(&engine, &jobs, &opts).to_json();
    let second = run_batch_on(&engine, &jobs, &opts).to_json();
    assert_eq!(first, expected);
    assert_eq!(second, expected, "cache warmth must never leak into bytes");
    assert!(engine.stats().cache_hits > 0, "second pass was memo-served");

    // Worker-count independence on the same engine.
    let wide = run_batch_on(
        &engine,
        &jobs,
        &BatchOptions {
            jobs: 8,
            ..BatchOptions::default()
        },
    )
    .to_json();
    assert_eq!(wide, expected);
}
