//! End-to-end guarantees of the incremental edit-stream replay: reports
//! are byte-identical to from-scratch batch analysis at every worker
//! count, a cold engine recomputes exactly one process per edit
//! (counter-verified), and a warm persistent store only ever lowers the
//! recomputation — never the answer.

use vhdl1_cli::driver::{
    run_batch, run_edit_stream, BatchOptions, Job, DEFAULT_PERSISTENT_CACHE_CAP,
};
use vhdl1_corpus::edit_stream;
use vhdl1_infoflow::CachePolicy;

/// Self-cleaning scratch directory.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vhdl1-cli-edit-{tag}-{}-{}",
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

/// The replay job list `vhdl1c edit-stream` builds: base + every revision,
/// in order, named by revision index.
fn stream_jobs(seed: u64, processes: usize, edits: usize) -> Vec<Job> {
    let stream = edit_stream(seed, processes, edits);
    stream
        .sources()
        .into_iter()
        .enumerate()
        .map(|(revision, src)| Job::from_source(format!("{}@r{revision}", stream.name), src))
        .collect()
}

#[test]
fn replay_matches_fresh_batch_bytes_across_worker_counts() {
    let jobs = stream_jobs(7, 8, 4);
    let (incremental, _) = run_edit_stream(&jobs, &BatchOptions::default());
    let incremental = incremental.to_json();
    for workers in [1, 2, 4] {
        let fresh = run_batch(
            &jobs,
            &BatchOptions {
                jobs: workers,
                ..BatchOptions::default()
            },
        )
        .to_json();
        assert_eq!(
            incremental, fresh,
            "incremental replay must be byte-identical to a fresh \
             `--jobs {workers}` batch"
        );
    }
}

#[test]
fn cold_replay_recomputes_exactly_one_process_per_edit() {
    let (processes, edits) = (8, 4);
    let (batch, telemetry) =
        run_edit_stream(&stream_jobs(7, processes, edits), &BatchOptions::default());
    assert!(batch.check_ok());
    // The base revision computes every process; each edit recomputes the
    // touched process only and reuses the other seven.
    assert_eq!(telemetry.stats.units_recomputed, (processes + edits) as u64);
    assert_eq!(
        telemetry.stats.units_reused,
        (edits * (processes - 1)) as u64
    );
}

#[test]
fn warm_store_replay_only_lowers_recomputation_and_keeps_bytes() {
    let tmp = TempDir::new("warm");
    let jobs = stream_jobs(11, 6, 3);
    let opts = BatchOptions {
        cache: CachePolicy::Persistent {
            dir: tmp.0.clone(),
            cap: DEFAULT_PERSISTENT_CACHE_CAP,
        },
        ..BatchOptions::default()
    };

    let (cold, cold_t) = run_edit_stream(&jobs, &opts);
    assert_eq!(cold_t.stats.units_recomputed, 6 + 3);

    // A fresh engine over the warm directory serves every unit from disk:
    // nothing recomputes, every process of every revision is a reuse, and
    // the report bytes cannot tell the difference.
    let (warm, warm_t) = run_edit_stream(&jobs, &opts);
    assert_eq!(warm.to_json(), cold.to_json());
    assert_eq!(warm_t.stats.units_recomputed, 0, "warm replay recomputed");
    assert_eq!(warm_t.stats.units_reused, ((3 + 1) * 6) as u64);
    assert_eq!(warm_t.stats.frontend, 0, "warm replay must not re-parse");
}

/// Asking for more edits than the stream can make is a usage error of the
/// binary, not a panic inside the generator.
#[test]
fn binary_rejects_more_edits_than_the_stream_can_make() {
    let bin = env!("CARGO_BIN_EXE_vhdl1c");
    let max = vhdl1_corpus::edit::max_edits(8);
    let run = |edits: usize| {
        std::process::Command::new(bin)
            .args(["edit-stream", "--processes", "8", "--edits"])
            .arg(edits.to_string())
            .output()
            .expect("run vhdl1c edit-stream")
    };
    let out = run(50);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: --edits 50 exceeds"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
    // The bound itself is accepted.
    let out = run(max);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
