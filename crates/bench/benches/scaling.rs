//! COMPLEX — Section 7: scaling of the implementation with program size.
//! The paper reports a worst-case complexity of O(n^5) with a conjectured
//! cubic bound and notes that the bit-vector frameworks behave linearly in
//! practice.  This bench sweeps synthetic program families (assignment
//! chains and process pipelines) and reports the measured analysis times.

use aes_vhdl::vhdl::sub_bytes_vhdl;
use bench::workloads::{chain_src, chain_tc_program, design_of, pipeline_src};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};
use vhdl1_cli::driver::{run_batch, BatchOptions, Job};
use vhdl1_corpus::{generate, CorpusSpec};
use vhdl1_dataflow::{RdOptions, ReachingDefinitions};
use vhdl1_infoflow::alfp_encoding::solve_closure;
use vhdl1_infoflow::{analyze_with, AnalysisOptions, Engine};

/// One measured point of the ALFP scaling sweep, serialised into
/// `BENCH_alfp.json` so the perf trajectory is machine-readable across PRs.
struct BenchPoint {
    workload: &'static str,
    size: usize,
    tuples: usize,
    median_ns: u128,
}

fn median_of(samples: &mut [Duration]) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn measure<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut out = f(); // warm-up
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        out = f();
        samples.push(start.elapsed());
    }
    (out, median_of(&mut samples))
}

/// Sweeps the ALFP solver on transitive-closure chains and on the encoded
/// closure of the chain designs, printing the series and writing
/// `BENCH_alfp.json`.
fn alfp_series() {
    println!("== ALFP: solver scaling (semi-naive indexed engine) ==");
    let mut points: Vec<BenchPoint> = Vec::new();

    println!("  transitive closure, chain length sweep:");
    for n in [32usize, 64, 128, 256] {
        let p = chain_tc_program(n);
        let (model, median) = measure(5, || p.solve().unwrap());
        let tuples = model.tuple_count();
        println!("    n={n:<4} tuples={tuples:<7} median={median:?}");
        points.push(BenchPoint {
            workload: "chain_tc",
            size: n,
            tuples,
            median_ns: median.as_nanos(),
        });
    }

    println!("  encoded closure of the chain design:");
    for n in [20usize, 80, 160] {
        let design = design_of(&chain_src(n));
        let result = analyze_with(&design, &AnalysisOptions::base());
        let (graph, median) = measure(5, || solve_closure(&result).unwrap());
        let edges = graph.edge_count();
        println!("    n={n:<4} edges={edges:<6} median={median:?}");
        points.push(BenchPoint {
            workload: "encoded_closure_chain",
            size: n,
            tuples: edges,
            median_ns: median.as_nanos(),
        });
    }

    // Dense Reaching Definitions (Tables 4 and 5 on interned bitset rows):
    // the AES SubBytes family is the label-count stress test (two 256-way
    // sbox chains through one shared temporary), the chain family the
    // breadth test.  `tuples` records the label count of the design.
    println!("  dense Reaching Definitions (interned bitset rows):");
    for n in [1usize, 2] {
        let design = design_of(&sub_bytes_vhdl(n));
        let (rd, median) = measure(5, || {
            ReachingDefinitions::compute(&design, &RdOptions::default())
        });
        let labels = rd.cfg.labels().len();
        println!("    sub_bytes({n}) labels={labels:<5} median={median:?}");
        points.push(BenchPoint {
            workload: "rd_dense",
            size: n,
            tuples: labels,
            median_ns: median.as_nanos(),
        });
    }
    for n in [40usize, 160] {
        let design = design_of(&chain_src(n));
        let (rd, median) = measure(5, || {
            ReachingDefinitions::compute(&design, &RdOptions::default())
        });
        let labels = rd.cfg.labels().len();
        println!("    chain({n})    labels={labels:<5} median={median:?}");
        points.push(BenchPoint {
            workload: "rd_dense_chain",
            size: n,
            tuples: labels,
            median_ns: median.as_nanos(),
        });
    }

    // Dense simulator (compiled interned core): the AES SubBytes family to
    // quiescence — a cold `U` pass plus one driven block — including the
    // per-design compile.  `tuples` records the delta-cycle count.
    println!("  dense simulator (compiled interned core) to quiescence:");
    for n in [1usize, 2] {
        let design = design_of(&sub_bytes_vhdl(n));
        let (deltas, median) = measure(5, || {
            let mut sim = vhdl1_sim::Simulator::new(&design).expect("sub_bytes compiles");
            sim.run_until_quiescent(50).expect("cold pass quiesces");
            for i in 0..n {
                sim.drive_input_unsigned(&format!("a_{i}"), 0x53).unwrap();
            }
            sim.run_until_quiescent(50).expect("driven pass quiesces");
            sim.delta_count()
        });
        println!("    sub_bytes({n}) deltas={deltas:<3} median={median:?}");
        points.push(BenchPoint {
            workload: "sim_dense",
            size: n,
            tuples: deltas as usize,
            median_ns: median.as_nanos(),
        });
    }

    // Batch corpus analysis through the vhdl1c driver: a 50-design corpus
    // swept across worker counts (`tuples` records the corpus size).  On a
    // single-core container the series is flat; on multi-core hardware it is
    // the parallel-speedup trajectory of the worker pool.
    println!("  corpus batch analysis (vhdl1c driver, 50 designs):");
    let jobs: Vec<Job> = generate(&CorpusSpec::new(7, 50))
        .into_iter()
        .map(Job::from_generated)
        .collect();
    for workers in [1usize, 2, 4, 8] {
        let opts = BatchOptions {
            jobs: workers,
            ..BatchOptions::default()
        };
        let (batch, median) = measure(5, || run_batch(&jobs, &opts));
        assert!(batch.check_ok(), "corpus batch must stay clean");
        println!(
            "    jobs={workers:<3} designs={:<4} violations={:<4} median={median:?}",
            batch.designs.len(),
            batch.total_violations()
        );
        points.push(BenchPoint {
            workload: "corpus_scaling",
            size: workers,
            tuples: batch.designs.len(),
            median_ns: median.as_nanos(),
        });
    }

    // Cache efficacy: the same corpus twice in one batch — the second half
    // is served from the content-hash cache.
    let mut doubled = jobs.clone();
    doubled.extend(jobs.iter().cloned().map(|mut j| {
        j.name = format!("{}_again", j.name);
        j
    }));
    let opts = BatchOptions::default();
    let (batch, median) = measure(5, || run_batch(&doubled, &opts));
    assert_eq!(batch.cache_hits, jobs.len());
    println!(
        "    cached rerun: designs={} cache_hits={} median={median:?}",
        batch.designs.len(),
        batch.cache_hits
    );
    points.push(BenchPoint {
        workload: "corpus_cached_rerun",
        size: doubled.len(),
        tuples: batch.cache_hits,
        median_ns: median.as_nanos(),
    });

    // Engine memo table: the same 50-design corpus analysed through a cold
    // engine (fresh session per run: parse + all stages) and a warm one
    // (every source a content-hash hit: no parsing, no stages).  `size`
    // distinguishes the two legs: 0 = cold, 1 = warm.
    println!("  engine cold vs warm (50 corpus designs through analyze_source):");
    let (edges, cold_median) = measure(5, || {
        let engine = Engine::default();
        jobs.iter()
            .map(|j| {
                let a = engine.analyze_source(&j.source).expect("corpus parses");
                a.flow_graph().expect("unlimited budget").edge_count()
            })
            .sum::<usize>()
    });
    println!("    cold: edges={edges:<6} median={cold_median:?}");
    points.push(BenchPoint {
        workload: "engine_cold_vs_warm",
        size: 0,
        tuples: jobs.len(),
        median_ns: cold_median.as_nanos(),
    });
    let warm_engine = Engine::default();
    for j in &jobs {
        let a = warm_engine
            .analyze_source(&j.source)
            .expect("corpus parses");
        let _ = a.flow_graph();
    }
    let (warm_edges, warm_median) = measure(5, || {
        jobs.iter()
            .map(|j| {
                let a = warm_engine.analyze_source(&j.source).expect("cached");
                a.flow_graph().expect("unlimited budget").edge_count()
            })
            .sum::<usize>()
    });
    assert_eq!(edges, warm_edges, "warm engine must reproduce cold results");
    println!("    warm: edges={warm_edges:<6} median={warm_median:?}");
    points.push(BenchPoint {
        workload: "engine_cold_vs_warm",
        size: 1,
        tuples: jobs.len(),
        median_ns: warm_median.as_nanos(),
    });

    // The untraced legs above are what the gate compares against the
    // committed baseline: instrumentation sits in the same code path, so
    // any disabled-path overhead surfaces as an `engine_cold_vs_warm`
    // regression.
    assert!(
        Engine::default().trace_sink().is_none(),
        "disabled tracing must allocate no sink at all"
    );

    // Demand-driven laziness: querying only the base flow graph through a
    // default-options engine skips the Table-9 closure entirely; the eager
    // one-shot computes it regardless.  Same designs, same options — the gap
    // is the work the lazy API never does.
    println!("  lazy graph-only query vs eager full pipeline (default options):");
    for n in [40usize, 160] {
        let design = design_of(&chain_src(n));
        let lazy_engine = Engine::default();
        let (lazy_edges, lazy_median) = measure(5, || {
            lazy_engine
                .analyze(&design)
                .base_flow_graph()
                .expect("unlimited budget")
                .edge_count()
        });
        let (eager_edges, eager_median) = measure(5, || {
            analyze_with(&design, &AnalysisOptions::default())
                .base_flow_graph()
                .edge_count()
        });
        assert_eq!(lazy_edges, eager_edges);
        assert_eq!(
            lazy_engine.stats().improved,
            0,
            "lazy query must skip Table 9"
        );
        println!("    chain({n}): lazy={lazy_median:?} eager={eager_median:?} edges={lazy_edges}");
        points.push(BenchPoint {
            workload: "engine_lazy_graph_only",
            size: n,
            tuples: lazy_edges,
            median_ns: lazy_median.as_nanos(),
        });
        points.push(BenchPoint {
            workload: "engine_eager_full",
            size: n,
            tuples: eager_edges,
            median_ns: eager_median.as_nanos(),
        });
    }

    let json: String = points
        .iter()
        .map(|p| {
            format!(
                "  {{\"workload\": \"{}\", \"size\": {}, \"tuples\": {}, \"median_ns\": {}}}",
                p.workload, p.size, p.tuples, p.median_ns
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!("[\n{json}\n]\n");
    // Benches run with the package directory as CWD; anchor the summary at
    // the workspace root so successive PRs overwrite the same file.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_alfp.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("  wrote BENCH_alfp.json ({} points)", points.len()),
        Err(e) => println!("  could not write BENCH_alfp.json: {e}"),
    }
    println!();
}

fn print_series() {
    println!("== COMPLEX: analysis time vs program size (single-shot timings) ==");
    println!("  chain length sweep (1 process):");
    for n in [10usize, 20, 40, 80, 160] {
        let design = design_of(&chain_src(n));
        let start = Instant::now();
        let result = analyze_with(&design, &AnalysisOptions::base());
        let elapsed = start.elapsed();
        println!(
            "    n={:<4} labels={:<5} edges={:<5} time={:?}",
            n,
            design.max_label(),
            result.base_flow_graph().edge_count(),
            elapsed
        );
    }
    println!("  process pipeline sweep (8 statements per process):");
    for procs in [1usize, 2, 4, 8] {
        let design = design_of(&pipeline_src(procs, 8));
        let start = Instant::now();
        let result = analyze_with(&design, &AnalysisOptions::base());
        let elapsed = start.elapsed();
        println!(
            "    processes={:<3} labels={:<5} edges={:<5} time={:?}",
            procs,
            design.max_label(),
            result.base_flow_graph().edge_count(),
            elapsed
        );
    }
    println!();
}

fn bench_scaling(c: &mut Criterion) {
    print_series();
    alfp_series();

    let mut group = c.benchmark_group("scaling_chain");
    group.sample_size(20);
    for n in [10usize, 40, 160] {
        let design = design_of(&chain_src(n));
        group.bench_with_input(BenchmarkId::new("full_analysis", n), &design, |b, d| {
            b.iter(|| analyze_with(black_box(d), &AnalysisOptions::base()).base_flow_graph())
        });
        group.bench_with_input(
            BenchmarkId::new("reaching_definitions", n),
            &design,
            |b, d| b.iter(|| ReachingDefinitions::compute(black_box(d), &RdOptions::default())),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("scaling_processes");
    group.sample_size(20);
    for procs in [2usize, 4, 8] {
        let design = design_of(&pipeline_src(procs, 8));
        group.bench_with_input(BenchmarkId::new("full_analysis", procs), &design, |b, d| {
            b.iter(|| analyze_with(black_box(d), &AnalysisOptions::base()).base_flow_graph())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
