//! Criterion bench: the in-core engine vs the cycle-accurate
//! machine on full-size DENOISE (768x1024), engine thread scaling at
//! 1/2/4/8 workers, the compiled row-sweep backend vs the closure
//! datapath, and the bounded-memory streaming path vs in-core. A
//! second group runs DENOISE 768×1024 and the row shapes whose fixed
//! per-row costs dominate — short DENOISE rows and the 19-tap
//! SEGMENTATION_3D at 96³ — in core on one thread, three ways: the
//! kernel's native row body, the register program (an expression-only
//! copy of the same kernel), and the closure. A third runs an 8-step
//! streaming DENOISE ring from a mapped `.sgrid` into memory on one
//! thread: the stage-to-stage hand-off without file-system noise.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use stencil_bench::expression_only;
use stencil_core::MemorySystemPlan;
use stencil_engine::{
    pack_grid, CompiledKernel, ExecMode, InputGrid, MmapSource, Session, SessionKernel,
    SliceSource, VecSink,
};
use stencil_kernels::{denoise, segmentation_3d, Benchmark, GridValues};
use stencil_polyhedral::Polyhedron;
use stencil_sim::Machine;

fn bench_engine(c: &mut Criterion) {
    let bench = denoise();
    let extents: Vec<i64> = bench.extents().to_vec();
    let spec = bench.spec_for(&extents).expect("spec");
    let plan = MemorySystemPlan::generate(&spec).expect("plan");
    let outputs = plan.iteration_domain().count().expect("count");

    let grid = GridValues::from_fn(&Polyhedron::grid(&extents), |p| {
        (p[0] * 3 + p[1]) as f64 * 0.125
    })
    .expect("grid");
    let in_idx = plan.input_domain().index().expect("input index");
    let mut in_vals = Vec::with_capacity(in_idx.len() as usize);
    let mut cur = in_idx.cursor();
    while let Some(p) = cur.point(&in_idx) {
        in_vals.push(grid.value_at(&p).expect("covered"));
        cur.advance(&in_idx);
    }
    let input = InputGrid::new(&in_idx, &in_vals).expect("input");
    let compute = bench.compute_fn();

    let mut g = c.benchmark_group("engine_denoise_768x1024");
    g.sample_size(10);
    g.throughput(Throughput::Elements(outputs));

    // Baseline: the cycle-accurate machine streaming the same kernel.
    g.bench_function("machine", |b| {
        b.iter(|| {
            let mut m = Machine::new(black_box(&plan)).expect("machine");
            black_box(m.run(10_000_000).expect("run").outputs)
        })
    });

    // Engine scaling: 1/2/4/8 workers splitting the rows of each of the
    // plan's bands. The session is built once: it caches its band
    // schedule on the first (warm-up) run, so the timed runs build no
    // tile plan.
    for threads in [1usize, 2, 4, 8] {
        let session = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .mode(ExecMode::InCore)
            .threads(threads);
        g.bench_function(format!("engine_{threads}thread"), |b| {
            b.iter(|| {
                let run = black_box(&session).run(&input).expect("engine");
                black_box(run.outputs.len())
            })
        });
    }

    // Compiled row-sweep backend: the same kernel authored as a
    // KernelExpr, lowered to a register program, swept over lane chunks.
    let kernel = CompiledKernel::for_benchmark(&bench)
        .expect("compile")
        .expect("DENOISE carries an expression");
    for threads in [1usize, 4] {
        g.bench_function(format!("compiled_{threads}thread"), |b| {
            b.iter(|| {
                let run = Session::new(black_box(&plan))
                    .kernel(SessionKernel::Compiled(&kernel))
                    .mode(ExecMode::InCore)
                    .threads(threads)
                    .run(&input)
                    .expect("compiled engine");
                black_box(run.outputs.len())
            })
        });
    }

    // Streaming out-of-core path against the in-core engine: same
    // kernel, 4 workers, at a bounded chunk (64-row bands, so only a
    // 66-row halo window is ever resident) and whole-grid-as-one-band.
    for chunk in [64u64, 768] {
        g.bench_function(format!("streaming_chunk{chunk}_4thread"), |b| {
            b.iter(|| {
                let mut source = SliceSource::new(black_box(&in_vals));
                let mut sink = VecSink::new();
                let report = Session::new(&plan)
                    .kernel(SessionKernel::Closure(&compute))
                    .mode(ExecMode::Streaming {
                        chunk_rows: Some(chunk),
                    })
                    .threads(4)
                    .run_streaming(&mut source, &mut sink)
                    .expect("streaming");
                black_box((sink.values.len(), report.peak_resident))
            })
        });
    }

    // Compiled streaming: the row sweep under the bounded-memory path.
    g.bench_function("streaming_compiled_chunk64_4thread", |b| {
        b.iter(|| {
            let mut source = SliceSource::new(black_box(&in_vals));
            let mut sink = VecSink::new();
            let report = Session::new(&plan)
                .kernel(SessionKernel::Compiled(&kernel))
                .mode(ExecMode::Streaming {
                    chunk_rows: Some(64),
                })
                .threads(4)
                .run_streaming(&mut source, &mut sink)
                .expect("compiled streaming");
            black_box((sink.values.len(), report.peak_resident))
        })
    });

    // Temporal chaining: two DENOISE stages through the bounded
    // halo-window hand-off, versus materializing the intermediate grid.
    let stage2 = bench.stage();
    g.bench_function("chained_2stage_streaming_chunk64_4thread", |b| {
        b.iter(|| {
            let mut source = SliceSource::new(black_box(&in_vals));
            let mut sink = VecSink::new();
            let report = Session::new(&plan)
                .kernel(SessionKernel::Closure(&compute))
                .then(&stage2)
                .expect("chain")
                .mode(ExecMode::Streaming {
                    chunk_rows: Some(64),
                })
                .threads(4)
                .run_streaming(&mut source, &mut sink)
                .expect("chained streaming");
            black_box((sink.values.len(), report.peak_resident))
        })
    });
    g.finish();
}

/// Input values of `plan`'s input domain, in stream (rank) order.
fn ramp_input(plan: &MemorySystemPlan) -> (stencil_polyhedral::DomainIndex, Vec<f64>) {
    let in_idx = plan.input_domain().index().expect("input index");
    let mut vals = Vec::with_capacity(in_idx.len() as usize);
    let mut cur = in_idx.cursor();
    while let Some(p) = cur.point(&in_idx) {
        let mix = p.as_slice().iter().fold(0i64, |acc, &c| acc * 7 + c);
        vals.push(mix as f64 * 0.125);
        cur.advance(&in_idx);
    }
    (in_idx, vals)
}

fn bench_row_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_row_shapes");
    g.sample_size(10);
    let shapes: [(Benchmark, Vec<i64>); 3] = [
        (denoise(), vec![768, 1024]),
        (denoise(), vec![8192, 96]),
        (segmentation_3d(), vec![96, 96, 96]),
    ];
    for (bench, extents) in &shapes {
        let spec = bench.spec_for(extents).expect("spec");
        let plan = MemorySystemPlan::generate(&spec).expect("plan");
        g.throughput(Throughput::Elements(
            plan.iteration_domain().count().expect("count"),
        ));
        let (in_idx, in_vals) = ramp_input(&plan);
        let input = InputGrid::new(&in_idx, &in_vals).expect("input");
        let compute = bench.compute_fn();
        let native = CompiledKernel::for_benchmark(bench)
            .expect("compile")
            .expect("suite kernels carry an expression");
        let program = CompiledKernel::for_benchmark(&expression_only(bench))
            .expect("compile")
            .expect("suite kernels carry an expression");
        let shape = extents
            .iter()
            .map(i64::to_string)
            .collect::<Vec<_>>()
            .join("x");
        for (name, kernel) in [
            ("native", SessionKernel::Compiled(&native)),
            ("program", SessionKernel::Compiled(&program)),
            ("closure", SessionKernel::Closure(&compute)),
        ] {
            let session = Session::new(&plan)
                .kernel(kernel)
                .mode(ExecMode::InCore)
                .threads(1);
            g.bench_function(format!("{}_{shape}_{name}", bench.name()), |b| {
                b.iter(|| {
                    let run = black_box(&session).run(&input).expect("engine");
                    black_box(run.outputs.len())
                })
            });
        }
    }
    g.finish();
}

/// DENOISE 768×1024 through `iterate(8)` at 64-row bands, compiled, on
/// one thread: a mapped `.sgrid` source (admitted in place) into a
/// `VecSink`. The session is built once, so a sample times the band
/// wavefront — sweeps, evictions and stage hand-offs — and the sink.
fn bench_ring(c: &mut Criterion) {
    const STEPS: usize = 8;
    let bench = denoise();
    let spec = bench.spec_for(&[768, 1024]).expect("spec");
    let plan = MemorySystemPlan::generate(&spec).expect("plan");
    let (in_idx, in_vals) = ramp_input(&plan);
    let path = std::env::temp_dir().join(format!("engine_ring_{}.sgrid", std::process::id()));
    pack_grid(&path, &[in_idx.len()], &in_vals).expect("pack");
    let kernel = CompiledKernel::for_benchmark(&bench)
        .expect("compile")
        .expect("DENOISE carries an expression");
    let session = Session::new(&plan)
        .kernel(SessionKernel::Compiled(&kernel))
        .mode(ExecMode::Streaming {
            chunk_rows: Some(64),
        })
        .threads(1)
        .iterate(STEPS)
        .expect("ring");
    let outputs: u64 = (0..STEPS)
        .map(|k| {
            let plan = session.stage_plan(k).expect("stage");
            plan.iteration_domain().count().expect("count")
        })
        .sum();

    let mut g = c.benchmark_group("engine_ring");
    g.sample_size(10);
    g.throughput(Throughput::Elements(outputs));
    g.bench_function("denoise_768x1024_iterate8_chunk64_mmap", |b| {
        b.iter(|| {
            let mut source = MmapSource::open(&path).expect("open");
            let mut sink = VecSink::new();
            let report = black_box(&session)
                .run_streaming(&mut source, &mut sink)
                .expect("ring");
            black_box((sink.values.len(), report.peak_resident))
        })
    });
    g.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench_engine, bench_row_shapes, bench_ring);
criterion_main!(benches);
