//! Criterion bench: parallel tiled engine vs the cycle-accurate
//! machine on full-size DENOISE (768x1024), engine thread scaling at
//! 1/2/4/8 workers, the compiled row-sweep backend vs the closure
//! datapath, and the bounded-memory streaming path vs in-core.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use stencil_core::MemorySystemPlan;
use stencil_engine::{
    CompiledKernel, ExecMode, InputGrid, Session, SessionKernel, SliceSource, VecSink,
};
use stencil_kernels::{denoise, GridValues};
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

    // Engine scaling: one band per worker, 1/2/4/8 workers.
    for threads in [1usize, 2, 4, 8] {
        let tile_plan = plan.tile_plan(threads).expect("tile plan");
        g.bench_function(format!("engine_{threads}thread"), |b| {
            b.iter(|| {
                let run = Session::new(black_box(&plan))
                    .kernel(SessionKernel::Closure(&compute))
                    .tile_plan(&tile_plan)
                    .threads(threads)
                    .run(&input)
                    .expect("engine");
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
                    .mode(ExecMode::Tiled { tiles: threads })
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

criterion_group!(benches, bench_engine);
criterion_main!(benches);
