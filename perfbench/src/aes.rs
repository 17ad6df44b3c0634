//! `aes_paper`: the paper's §6 set — cold analysis of the AES components,
//! then the full AES-128 parsed, compiled and simulated on seeded blocks.

use std::sync::Arc;
use std::time::Instant;

use vhdl1_infoflow::{AnalysisOptions, CachePolicy, Engine, EngineConfig, Policy};
use vhdl1_sim::{CompiledDesign, SimOptions, Simulator};
use vhdl1_syntax::{frontend, Design};

use crate::gates::{self, Tally};
use crate::inputs::{self, AesInputs, ADD_ROUND_KEY};
use crate::metrics::{end_to_end, traced, Metrics, Samples, Traced};
use crate::stats::{proc_mem_mb, ratio};
use crate::trace::{stages, Profile, Tracer};
use crate::Config;

/// Latency limit of one step (one component analysis, the cipher's parse
/// or compile, or one block's simulation).
pub const STEP_LIMIT_MS: f64 = 5000.0;
/// Delta bound of each simulation phase (settle, then encrypt).
const MAX_DELTAS: u64 = 50;

/// Key inputs are secret; every other port is public.
fn key_policy(design: &Design) -> Policy {
    let mut policy = Policy::new();
    for input in design.input_signals() {
        let level = u32::from(input.starts_with('k'));
        policy = policy.with_level(input, level);
    }
    for output in design.output_signals() {
        policy = policy.with_level(output, 0);
    }
    policy
}

/// Analyses one component (graph and audit), gating AddRoundKey's lanes.
fn component(
    engine: &Engine,
    tr: &mut Tracer,
    name: &str,
    source: &str,
    id: u64,
) -> Result<(), String> {
    let design = tr
        .span("syntax.frontend", id, || frontend(source))
        .map_err(|e| e.to_string())?;
    let analysis = engine.analyze(&design);
    let graph = stages(&analysis, tr, id, &key_policy(&design)).map_err(|e| e.to_string())?;
    if name == ADD_ROUND_KEY {
        gates::lanes_separated(graph)?;
    }
    Ok(())
}

/// Encrypts one block on the compiled cipher; returns the ciphertext and
/// the delta cycles run.
fn encrypt(
    compiled: &Arc<CompiledDesign>,
    key: &[u8; 16],
    pt: &[u8; 16],
) -> Result<(Vec<u8>, u64), String> {
    let err = |e: vhdl1_sim::SimError| e.to_string();
    let mut sim = Simulator::from_compiled(Arc::clone(compiled), SimOptions::default());
    sim.run_until_quiescent(MAX_DELTAS).map_err(err)?;
    for i in 0..16 {
        sim.drive_input_unsigned(&format!("pt_{i}"), u128::from(pt[i]))
            .map_err(err)?;
        sim.drive_input_unsigned(&format!("key_{i}"), u128::from(key[i]))
            .map_err(err)?;
    }
    sim.run_until_quiescent(MAX_DELTAS).map_err(err)?;
    let ct = (0..16)
        .map(|i| {
            sim.signal(&format!("ct_{i}"))
                .and_then(|v| v.to_unsigned())
                .map(|v| v as u8)
                .ok_or_else(|| format!("ct_{i} is not a defined byte"))
        })
        .collect::<Result<Vec<u8>, String>>()?;
    Ok((ct, sim.delta_count()))
}

/// What one pass produced besides the tally.
#[derive(Default)]
struct Pass {
    steps_ms: Vec<f64>,
    slo_met: u64,
    wall_s: f64,
    source_bytes: usize,
    sim_deltas: u64,
}

impl Pass {
    fn step(&mut self, ms: f64, ok: bool) {
        self.steps_ms.push(ms);
        if ok && ms <= STEP_LIMIT_MS {
            self.slo_met += 1;
        }
    }
}

fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One pass of the §6 set on a fresh, cache-less engine.
fn pass(inputs: &AesInputs, tr: &mut Tracer, tally: &mut Tally) -> Pass {
    let mut out = Pass::default();
    let start = Instant::now();
    let engine = Engine::new(EngineConfig {
        options: AnalysisOptions::default(),
        cache: CachePolicy::Disabled,
    });
    for (id, (name, source)) in inputs.components.iter().enumerate() {
        let t = Instant::now();
        let result = component(&engine, tr, name, source, id as u64);
        let ms = elapsed_ms(t);
        let ok = tally.record(name, result);
        out.step(ms, ok);
        out.source_bytes += source.len();
    }
    let id = inputs.components.len() as u64;
    let t = Instant::now();
    let design = tr.span("syntax.frontend", id, || frontend(&inputs.cipher));
    out.step(elapsed_ms(t), design.is_ok());
    out.source_bytes += inputs.cipher.len();
    let design = match design {
        Ok(design) => design,
        Err(e) => {
            tally.record("aes128 parse", Err(e.to_string()));
            out.wall_s = start.elapsed().as_secs_f64();
            return out;
        }
    };
    let t = Instant::now();
    let compiled = tr.span("sim.compile", id, || CompiledDesign::compile(&design));
    out.step(elapsed_ms(t), compiled.is_ok());
    let compiled = match compiled {
        Ok(compiled) => Arc::new(compiled),
        Err(e) => {
            tally.record("aes128 compile", Err(e.to_string()));
            out.wall_s = start.elapsed().as_secs_f64();
            return out;
        }
    };
    for (key, pt) in &inputs.blocks {
        let t = Instant::now();
        let result = tr.span("sim.run", id, || encrypt(&compiled, key, pt));
        let ms = elapsed_ms(t);
        let check = result.and_then(|(ct, deltas)| {
            out.sim_deltas += deltas;
            gates::ciphertext(&ct, key, pt)
        });
        let ok = tally.record("aes128 block", check);
        out.step(ms, ok);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Designs per pass: the components plus the full cipher.
fn designs(inputs: &AesInputs) -> u64 {
    inputs.components.len() as u64 + 1
}

fn setup(cfg: &Config, samples: &mut Samples) -> AesInputs {
    let mut inputs = None;
    for _ in 0..5 {
        let t = Instant::now();
        inputs = Some(inputs::aes(cfg.seed));
        samples.setups_s.push(t.elapsed().as_secs_f64());
    }
    inputs.expect("set up at least once")
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Config) -> (Metrics, Tally) {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let inputs = setup(cfg, &mut samples);
    let start = Instant::now();
    while samples.passes_s.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let out = pass(&inputs, &mut Tracer::off(), &mut tally);
        samples.designs += designs(&inputs);
        samples.busy_s += out.wall_s;
        samples.passes_s.push(out.wall_s);
        samples.slo_checked += out.steps_ms.len() as u64;
        samples.steps_ms.extend(out.steps_ms);
        samples.slo_met += out.slo_met;
    }
    samples.peak_rss_mb = proc_mem_mb(None, "VmHWM").unwrap_or(0.0);
    (end_to_end(&samples, 0.9, tally), tally)
}

/// The traced run: per-layer metrics.  Each iteration runs the pass
/// untraced and traced, alternating which goes first.
pub fn trace(cfg: &Config) -> (Metrics, Tally, Profile) {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let inputs = setup(cfg, &mut samples);
    let mut profile = Profile::default();
    let mut run = Traced::default();
    let mut sim_deltas = 0;
    let start = Instant::now();
    while run.passes == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        for traced in [run.passes % 2 == 1, run.passes % 2 == 0] {
            if !traced {
                run.untraced_s += pass(&inputs, &mut Tracer::off(), &mut tally).wall_s;
                continue;
            }
            let mut tr = Tracer::on(Instant::now());
            let out = pass(&inputs, &mut tr, &mut tally);
            profile.add(tr.into_spans());
            run.traced_s += out.wall_s;
            run.source_bytes += out.source_bytes;
            sim_deltas += out.sim_deltas;
        }
        run.passes += 1;
    }
    run.thread_s = run.traced_s;
    let mut m = traced(&profile, &run);
    m.push(
        "sim.deltas_per_s",
        ratio(sim_deltas as f64, profile.ms("sim.run") / 1e3),
        "1/s",
    );
    (m, tally, profile)
}
