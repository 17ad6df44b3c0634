//! `edit_session`: editor traffic — seeded edit streams replayed through
//! one `Engine::workspace()` per session, each update followed by the flow
//! graph, the audit and the JSON report.

use std::time::Instant;

use vhdl1_cli::{analysis_report, run_batch, BatchOptions, BatchReport, Job};
use vhdl1_infoflow::{fnv1a64, CachePolicy, Engine, Policy, Workspace};
use vhdl1_syntax::{frontend, unit_fingerprints};

use crate::gates::{self, Tally};
use crate::inputs::{self, EditStep, EDIT_SIZES};
use crate::metrics::{end_to_end, traced, Metrics, Samples, Traced};
use crate::stats::{proc_mem_mb, ratio};
use crate::trace::{stages, Profile, Tracer};
use crate::Config;

/// Latency limit of one edit step.
pub const STEP_LIMIT_MS: f64 = 1000.0;

/// The reference report of one revision: a fresh batch on a cache-disabled
/// engine, computed outside every timed region.
pub fn reference(name: &str, source: &str) -> Vec<u8> {
    let opts = BatchOptions {
        cache: CachePolicy::Disabled,
        ..BatchOptions::default()
    };
    run_batch(&[Job::from_source(name, source)], &opts)
        .to_json()
        .into_bytes()
}

/// One edit step: update, flow graph, audit, JSON report.  With `reparse`
/// the revision first goes through a separate front-end and fingerprint
/// pass, which the traced run times: `update` parses and fingerprints
/// internally, out of the benchmark's reach.
pub fn step(
    ws: &Workspace<'_>,
    tr: &mut Tracer,
    name: &str,
    source: &str,
    id: u64,
    reparse: bool,
) -> Result<Vec<u8>, String> {
    if reparse {
        let design = tr
            .span("syntax.frontend", id, || frontend(source))
            .map_err(|e| e.to_string())?;
        tr.span("syntax.fingerprint", id, || {
            drop(unit_fingerprints(&design))
        });
    }
    let err = |e: vhdl1_infoflow::EngineError| e.to_string();
    let analysis = tr
        .span("engine.update", id, || ws.update(source))
        .map_err(err)?;
    let policy = Policy::new();
    stages(&analysis, tr, id, &policy).map_err(err)?;
    tr.span("cli.report.render", id, || {
        let mut report = analysis_report(&analysis, &policy)?;
        report.name = name.to_string();
        report.source_hash = format!("fnv1a:{:016x}", fnv1a64(source.as_bytes()));
        let batch = BatchReport {
            designs: vec![report],
            ..BatchReport::default()
        };
        Ok(batch.to_json().into_bytes())
    })
    .map_err(err)
}

/// Totals of one session.
#[derive(Default)]
struct Session {
    /// Seconds in the edit steps (the base analysis excluded).
    busy_s: f64,
    /// Report bytes rendered.
    report_bytes: usize,
    /// Source bytes submitted.
    source_bytes: usize,
    units_reused: u64,
    units_recomputed: u64,
    cache_hits: u64,
    cache_lookups: u64,
}

/// Replays session `index`; the base revision's analysis is its set-up.
fn session(
    cfg: &Config,
    index: usize,
    tr: &mut Tracer,
    reparse: bool,
    samples: &mut Samples,
    tally: &mut Tally,
) -> Session {
    let input = inputs::edit_session(cfg.seed, index);
    let name = input.stream.name.as_str();
    let sources = input.stream.sources();
    let references: Vec<Vec<u8>> = sources.iter().map(|s| reference(name, s)).collect();
    let engine = Engine::default();
    let ws = engine.workspace();
    let mut out = Session::default();
    let id = |rev: usize| (index as u64) << 32 | rev as u64;

    let t = Instant::now();
    let base = step(&ws, &mut Tracer::off(), name, sources[0], id(0), false);
    samples.setups_s.push(t.elapsed().as_secs_f64());
    let check = base.and_then(|bytes| gates::same_bytes(&bytes, &references[0]));
    tally.record(&format!("{name} base"), check);

    for &edit in &input.steps {
        let (rev, first_time) = match edit {
            EditStep::Edit(rev) => (rev, true),
            EditStep::Undo(rev) => (rev, false),
        };
        let before = engine.stats().units_recomputed;
        let t = Instant::now();
        let result = step(&ws, tr, name, sources[rev], id(rev), reparse);
        let seconds = t.elapsed().as_secs_f64();
        let recomputed = engine.stats().units_recomputed - before;
        out.source_bytes += sources[rev].len();
        let check = result.and_then(|bytes| {
            out.report_bytes += bytes.len();
            gates::same_bytes(&bytes, &references[rev])?;
            if first_time {
                gates::one_unit_recomputed(recomputed)?;
            }
            Ok(())
        });
        let ok = tally.record(&format!("{name} revision {rev}"), check);
        out.busy_s += seconds;
        samples.steps_ms.push(seconds * 1e3);
        samples.slo_checked += 1;
        if ok && seconds * 1e3 <= STEP_LIMIT_MS {
            samples.slo_met += 1;
        }
        samples.designs += 1;
    }
    let stats = engine.stats();
    out.units_reused = stats.units_reused;
    out.units_recomputed = stats.units_recomputed;
    out.cache_hits = stats.cache_hits;
    out.cache_lookups = stats.cache_hits + stats.cache_misses;
    out
}

/// One round: a session of every size in [`EDIT_SIZES`].
fn round(
    cfg: &Config,
    r: usize,
    tr: &mut Tracer,
    reparse: bool,
    samples: &mut Samples,
    tally: &mut Tally,
) -> Vec<Session> {
    (0..EDIT_SIZES.len())
        .map(|s| session(cfg, r * EDIT_SIZES.len() + s, tr, reparse, samples, tally))
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Config) -> (Metrics, Tally) {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut r = 0;
    while r == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let sessions = round(cfg, r, &mut Tracer::off(), false, &mut samples, &mut tally);
        let busy: f64 = sessions.iter().map(|s| s.busy_s).sum();
        samples.busy_s += busy;
        samples.passes_s.push(busy);
        r += 1;
    }
    samples.peak_rss_mb = proc_mem_mb(None, "VmHWM").unwrap_or(0.0);
    (end_to_end(&samples, 0.9, tally), tally)
}

/// The traced run: per-layer metrics.  Each iteration replays the round
/// untraced and traced, alternating which goes first; both sides take the
/// separate front-end pass, so they run the same code.
pub fn trace(cfg: &Config) -> (Metrics, Tally, Profile) {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let mut profile = Profile::default();
    let mut run = Traced::default();
    let (mut report_bytes, mut reused, mut recomputed) = (0, 0, 0);
    let (mut hits, mut lookups) = (0, 0);
    let start = Instant::now();
    while run.passes == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let r = run.passes;
        for traced in [r % 2 == 1, r % 2 == 0] {
            if !traced {
                let untraced = round(cfg, r, &mut Tracer::off(), true, &mut samples, &mut tally);
                run.untraced_s += untraced.iter().map(|s| s.busy_s).sum::<f64>();
                continue;
            }
            let mut tr = Tracer::on(Instant::now());
            let sessions = round(cfg, r, &mut tr, true, &mut samples, &mut tally);
            profile.add(tr.into_spans());
            for s in &sessions {
                run.traced_s += s.busy_s;
                run.source_bytes += s.source_bytes;
                report_bytes += s.report_bytes;
                reused += s.units_reused;
                recomputed += s.units_recomputed;
                hits += s.cache_hits;
                lookups += s.cache_lookups;
            }
        }
        run.passes += 1;
    }
    run.thread_s = run.traced_s;
    let mut m = traced(&profile, &run);
    m.push(
        "engine.units_reused_ratio",
        ratio(reused as f64, (reused + recomputed) as f64),
        "ratio",
    );
    m.push(
        "engine.cache_hit_ratio",
        ratio(hits as f64, lookups as f64),
        "ratio",
    );
    m.push(
        "cli.report.bytes",
        report_bytes as f64 / run.passes as f64,
        "bytes",
    );
    (m, tally, profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_gates_accept_the_fresh_report_and_reject_another_revision() {
        let session = inputs::edit_session(5, 0);
        let name = session.stream.name.as_str();
        let sources = session.stream.sources();
        let engine = Engine::default();
        let ws = engine.workspace();
        let mut tally = Tally::default();
        let base = step(&ws, &mut Tracer::off(), name, sources[0], 0, false).unwrap();
        let fresh = reference(name, sources[0]);
        assert!(tally.record("base", gates::same_bytes(&base, &fresh)));
        let before = engine.stats().units_recomputed;
        let edited = step(&ws, &mut Tracer::off(), name, sources[1], 1, false).unwrap();
        let recomputed = engine.stats().units_recomputed - before;
        assert!(tally.record("units", gates::one_unit_recomputed(recomputed)));
        assert!(tally.record(
            "edit",
            gates::same_bytes(&edited, &reference(name, sources[1]))
        ));
        // Planted: the revision's report checked against another revision's
        // fresh report.
        assert!(!tally.record("planted", gates::same_bytes(&edited, &fresh)));
        assert_eq!((tally.attempted, tally.failed), (4, 1));
    }
}
