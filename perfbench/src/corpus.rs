//! `corpus_verify`: cold `run_batch` passes with the dynamic oracle and
//! smoke simulation over seeded corpora — CI / audit-farm traffic.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use vhdl1_cli::report::DynFlowSection;
use vhdl1_cli::{
    analysis_report, run_batch, run_batch_traced, BatchOptions, BatchReport, DesignReport, Job,
    VerifyOptions,
};
use vhdl1_corpus::GeneratedDesign;
use vhdl1_infoflow::{Engine, EngineConfig};
use vhdl1_syntax::frontend;

use crate::gates::{self, Tally};
use crate::inputs::{self, CORPORA, VERIFY_ROUNDS};
use crate::metrics::{end_to_end, traced, Metrics, Samples, Traced};
use crate::stats::{proc_mem_mb, ratio};
use crate::trace::{stages, Profile, Tracer};
use crate::Config;

/// Latency limit of one pass.
pub const PASS_LIMIT_MS: f64 = 2000.0;
/// Smoke-simulation delta bound (the `vhdl1c --smoke` bound).
const SMOKE_MAX_DELTAS: u64 = 10_000;

struct Corpus {
    designs: Vec<GeneratedDesign>,
    jobs: Vec<Job>,
}

/// Generates the run's corpora; set-up is timed over all of them, three
/// times, since one corpus takes only milliseconds.
fn setup(cfg: &Config, samples: &mut Samples) -> Vec<Corpus> {
    let mut corpora = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        corpora = (0..CORPORA)
            .map(|k| {
                let designs = inputs::corpus(cfg.seed, k);
                let jobs = designs.iter().cloned().map(Job::from_generated).collect();
                Corpus { designs, jobs }
            })
            .collect();
        samples.setups_s.push(t.elapsed().as_secs_f64());
    }
    corpora
}

fn options(cfg: &Config) -> BatchOptions {
    BatchOptions {
        jobs: cfg.workers,
        smoke: true,
        verify: Some(VerifyOptions {
            rounds: VERIFY_ROUNDS,
            seed: inputs::verify_seed(cfg.seed),
        }),
        ..BatchOptions::default()
    }
}

/// Gates every design of a pass; `true` when all passed.
fn check(reports: &[DesignReport], corpus: &Corpus, tally: &mut Tally) -> bool {
    let by_name: HashMap<&str, &DesignReport> =
        reports.iter().map(|r| (r.name.as_str(), r)).collect();
    let mut ok = true;
    for truth in &corpus.designs {
        let check = match by_name.get(truth.name.as_str()) {
            Some(report) => gates::corpus_design(report, truth),
            None => Err("missing from the report (analysis error)".to_string()),
        };
        ok &= tally.record(&truth.name, check);
    }
    ok
}

/// One untraced pass: a cold batch (fresh engine) rendered to JSON.
fn batch_pass(corpus: &Corpus, opts: &BatchOptions) -> (BatchReport, f64) {
    let t = Instant::now();
    let batch = run_batch(&corpus.jobs, opts);
    black_box(batch.to_json());
    (batch, t.elapsed().as_secs_f64())
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Config) -> (Metrics, Tally) {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let corpora = setup(cfg, &mut samples);
    let opts = options(cfg);
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let corpus = &corpora[pass % CORPORA];
        let (batch, seconds) = batch_pass(corpus, &opts);
        let ok = check(&batch.designs, corpus, &mut tally);
        samples.designs += corpus.jobs.len() as u64;
        samples.busy_s += seconds;
        samples.passes_s.push(seconds);
        samples.steps_ms.push(seconds * 1e3);
        samples.slo_checked += 1;
        if ok && seconds * 1e3 <= PASS_LIMIT_MS {
            samples.slo_met += 1;
        }
        pass += 1;
    }
    samples.peak_rss_mb = proc_mem_mb(None, "VmHWM").unwrap_or(0.0);
    (end_to_end(&samples, 0.9, tally), tally)
}

/// What one worker thread of a traced pass produced.
#[derive(Default)]
struct Worker {
    spans: Vec<crate::trace::Span>,
    reports: Vec<DesignReport>,
    source_bytes: usize,
    smoke_deltas: u64,
}

/// One design through the layers, a span around each call, in dependency
/// order so each accessor times only its own stage.
fn traced_design(
    engine: &Engine,
    tr: &mut Tracer,
    job: &Job,
    id: u64,
    verify: VerifyOptions,
    worker: &mut Worker,
) -> Result<DesignReport, String> {
    let err = |e: vhdl1_infoflow::EngineError| e.to_string();
    let design = tr
        .span("syntax.frontend", id, || frontend(&job.source))
        .map_err(|e| e.to_string())?;
    worker.source_bytes += job.source.len();
    let analysis = engine.analyze(&design);
    let policy = job
        .truth
        .as_ref()
        .map(|t| t.derived_policy())
        .unwrap_or_default();
    stages(&analysis, tr, id, &policy).map_err(err)?;
    let mut report = tr
        .span("cli.report.render", id, || {
            analysis_report(&analysis, &policy)
        })
        .map_err(err)?;
    report.name = job.name.clone();
    report.leaky = job.truth.as_ref().map(|t| t.leaky);
    tr.span("infoflow.kemmerer", id, || {
        analysis.kemmerer_graph().map(drop)
    })
    .map_err(err)?;
    let smoke = tr
        .span("sim.run", id, || analysis.smoke(SMOKE_MAX_DELTAS))
        .map_err(err)?;
    worker.smoke_deltas += smoke.deltas;
    report.smoke_deltas = Some(smoke.deltas);
    let dynflow = tr
        .span("dynflow.witness", id, || {
            analysis.dynamic_flows(verify.rounds, verify.seed)
        })
        .map_err(err)?;
    report.dynflow = Some(DynFlowSection::from_report(&dynflow));
    Ok(report)
}

/// One pass of the traced run over `corpus` on `workers` threads, spans
/// recorded into `profile` when one is given: the stages of each design on
/// a fresh engine, then the batch report rendered once.
fn traced_pass(
    corpus: &Corpus,
    opts: &BatchOptions,
    workers: usize,
    mut profile: Option<&mut Profile>,
    tally: &mut Tally,
) -> (f64, Worker, BatchReport) {
    let traced = profile.is_some();
    let verify = opts.verify.expect("corpus_verify always verifies");
    let engine = Engine::new(EngineConfig {
        options: opts.analysis,
        cache: opts.cache.clone(),
    });
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let tracer = || {
        if traced {
            Tracer::on(origin)
        } else {
            Tracer::off()
        }
    };
    let done: Vec<Worker> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut tr = tracer();
                    let mut worker = Worker::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = corpus.jobs.get(i) else { break };
                        match traced_design(&engine, &mut tr, job, i as u64, verify, &mut worker) {
                            Ok(report) => worker.reports.push(report),
                            // The design is missing from the report, which
                            // the gate counts as a failure.
                            Err(e) => eprintln!("perfbench: {}: {e}", job.name),
                        }
                    }
                    worker.spans = tr.into_spans();
                    worker
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    let mut all = Worker::default();
    for mut worker in done {
        if let Some(profile) = profile.as_deref_mut() {
            profile.add(std::mem::take(&mut worker.spans));
        }
        all.reports.append(&mut worker.reports);
        all.source_bytes += worker.source_bytes;
        all.smoke_deltas += worker.smoke_deltas;
    }
    let mut tr = tracer();
    let order: HashMap<&str, usize> = corpus
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.name.as_str(), i))
        .collect();
    let mut reports = std::mem::take(&mut all.reports);
    reports.sort_by_key(|r| order[r.name.as_str()]);
    let batch = BatchReport {
        designs: reports,
        ..BatchReport::default()
    };
    tr.span("cli.report.render", u64::MAX, || black_box(batch.to_json()));
    let wall = origin.elapsed().as_secs_f64();
    if let Some(profile) = profile {
        profile.add(tr.into_spans());
    }
    check(&batch.designs, corpus, tally);
    (wall, all, batch)
}

/// The traced run: per-layer metrics.  Each iteration runs a traced and an
/// untraced pass of the same code over the same corpus, alternating which
/// goes first.
pub fn trace(cfg: &Config) -> (Metrics, Tally, Profile) {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let corpora = setup(cfg, &mut samples);
    let opts = options(cfg);
    let mut profile = Profile::default();
    let mut run = Traced::default();
    let (mut designs, mut smoke_deltas, mut report_bytes) = (0, 0, 0);
    let (mut covered, mut edges) = (0, 0);
    let start = Instant::now();
    while run.passes == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let corpus = &corpora[run.passes % CORPORA];
        for traced in [run.passes % 2 == 1, run.passes % 2 == 0] {
            if !traced {
                let (wall, ..) = traced_pass(corpus, &opts, cfg.workers, None, &mut tally);
                run.untraced_s += wall;
                continue;
            }
            let (wall, worker, batch) =
                traced_pass(corpus, &opts, cfg.workers, Some(&mut profile), &mut tally);
            let (c, e) = batch.dynflow_leaky_edges();
            covered += c;
            edges += e;
            run.traced_s += wall;
            run.source_bytes += worker.source_bytes;
            designs += corpus.jobs.len();
            smoke_deltas += worker.smoke_deltas;
            report_bytes += batch.to_json().len();
        }
        run.passes += 1;
    }
    // Pool telemetry comes from the batch pool's own counters, recorded beside
    // the spans on one extra pass.
    let (_, telemetry) = run_batch_traced(
        &corpora[0].jobs,
        &BatchOptions {
            profile: true,
            ..opts.clone()
        },
    );
    run.thread_s = run.traced_s * cfg.workers as f64;
    let mut m = traced(&profile, &run);
    m.push(
        "sim.deltas_per_s",
        ratio(smoke_deltas as f64, profile.ms("sim.run") / 1e3),
        "1/s",
    );
    m.push(
        "dynflow.rounds_per_s",
        ratio(
            (designs as u64 * VERIFY_ROUNDS) as f64,
            profile.ms("dynflow.witness") / 1e3,
        ),
        "1/s",
    );
    m.push(
        "dynflow.edge_coverage",
        ratio(covered as f64, edges as f64),
        "ratio",
    );
    let stats = telemetry.stats;
    m.push(
        "engine.cache_hit_ratio",
        ratio(
            stats.cache_hits as f64,
            (stats.cache_hits + stats.cache_misses) as f64,
        ),
        "ratio",
    );
    if let Some(pool) = &telemetry.pool {
        m.push("cli.pool.utilization", pool.utilization(), "ratio");
        m.push(
            "cli.pool.queue_wait_ms",
            ratio(pool.queue_wait_ns as f64 / 1e6, pool.items as f64),
            "ms",
        );
        m.push("cli.pool.steals", pool.steals as f64, "count");
    }
    m.push(
        "cli.report.bytes",
        report_bytes as f64 / run.passes as f64,
        "bytes",
    );
    (m, tally, profile)
}
