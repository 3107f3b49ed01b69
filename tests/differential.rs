//! Differential verification: the parallel tiled engine, the golden
//! software executor, and the cycle-accurate machine must agree
//! bit-for-bit on every benchmark of the paper suite, at every band
//! count, with and without the Appendix 9.4 bandwidth tradeoff.
//!
//! Three independent implementations of the same semantics:
//!
//! * `stencil_kernels::run_golden` — direct nested-loop execution;
//! * `stencil_kernels::accelerate` — the simulated microarchitecture,
//!   element by element through FIFOs and filters;
//! * `stencil_engine::Session` — batched row loops over row-band
//!   tiles on worker threads.
//!
//! Any divergence between the three is a bug in one of them.

use stencil_core::MemorySystemPlan;
use stencil_engine::{
    CompiledKernel, ExecMode, InputGrid, KernelBackend, Session, SessionKernel, SliceSource,
    VecSink,
};
use stencil_kernels::{accelerate, paper_suite, run_golden, Benchmark, GridValues};
use stencil_polyhedral::Polyhedron;

/// Pseudo-random but deterministic grid values with varied magnitudes.
fn test_grid(extents: &[i64]) -> GridValues {
    let mut state = 0x1234_5678_9abc_def0u64;
    GridValues::from_fn(&Polyhedron::grid(extents), |_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (1u64 << 25) as f64 - 128.0
    })
    .expect("grid")
}

fn small_extents(bench: &Benchmark) -> Vec<i64> {
    match bench.dims() {
        2 => vec![18, 22],
        _ => vec![9, 10, 11],
    }
}

/// The plan's input domain values drawn from `grid`, in rank order —
/// both the `InputGrid` buffer and the streaming source stream.
fn input_values(plan: &MemorySystemPlan, grid: &GridValues) -> Vec<f64> {
    let in_idx = plan.input_domain().index().expect("input index");
    let mut in_vals = Vec::with_capacity(in_idx.len() as usize);
    let mut c = in_idx.cursor();
    while let Some(p) = c.point(&in_idx) {
        in_vals.push(grid.value_at(&p).expect("grid covers input domain"));
        c.advance(&in_idx);
    }
    in_vals
}

/// Runs the engine for `bench` over `grid`, returning outputs.
fn engine_outputs(
    bench: &Benchmark,
    plan: &MemorySystemPlan,
    grid: &GridValues,
    mode: ExecMode,
    threads: usize,
) -> Vec<f64> {
    let in_idx = plan.input_domain().index().expect("input index");
    let in_vals = input_values(plan, grid);
    let input = InputGrid::new(&in_idx, &in_vals).expect("sized input");
    let compute = bench.compute_fn();
    Session::new(plan)
        .kernel(SessionKernel::Closure(&compute))
        .mode(mode)
        .threads(threads)
        .run(&input)
        .expect("engine run")
        .outputs
}

#[test]
fn engine_equals_golden_and_machine_on_paper_suite() {
    for bench in paper_suite() {
        let extents = small_extents(&bench);
        let grid = test_grid(&extents);

        let golden = run_golden(&bench, &extents, &grid).expect("golden");
        let machine = accelerate(&bench, &extents, &grid).expect("machine");
        assert_eq!(
            machine.outputs,
            golden,
            "machine vs golden: {}",
            bench.name()
        );

        let spec = bench.spec_for(&extents).expect("spec");
        let plan = MemorySystemPlan::generate(&spec).expect("plan");
        for tiles in [1usize, 2, 3, 5] {
            let engine = engine_outputs(
                &bench,
                &plan,
                &grid,
                ExecMode::Tiled { tiles },
                tiles.min(4),
            );
            assert_eq!(
                engine,
                golden,
                "engine({} tiles) vs golden: {}",
                tiles,
                bench.name()
            );
        }
    }
}

#[test]
fn engine_follows_stream_sharding_of_tradeoff_plans() {
    // Appendix 9.4: a k-stream plan shards into k bands by default; the
    // result must stay bit-identical regardless of k.
    for bench in paper_suite() {
        let extents = small_extents(&bench);
        let grid = test_grid(&extents);
        let golden = run_golden(&bench, &extents, &grid).expect("golden");
        let spec = bench.spec_for(&extents).expect("spec");
        let base = MemorySystemPlan::generate(&spec).expect("plan");
        for streams in 1..=base.port_count().min(4) {
            let plan = base
                .clone()
                .with_offchip_streams(streams)
                .expect("tradeoff");
            let engine = engine_outputs(&bench, &plan, &grid, ExecMode::InCore, 0);
            assert_eq!(
                engine,
                golden,
                "engine({streams} streams) vs golden: {}",
                bench.name()
            );
        }
    }
}

#[test]
fn streaming_equals_plan_and_golden_on_paper_suite() {
    // The bounded-memory streaming path must be bit-exact with both the
    // in-core engine and the golden executor on every paper benchmark,
    // at the three characteristic chunk sizes: one row per band, one
    // halo height per band, and the whole grid in one band.
    for bench in paper_suite() {
        let extents = small_extents(&bench);
        let grid = test_grid(&extents);
        let golden = run_golden(&bench, &extents, &grid).expect("golden");
        let spec = bench.spec_for(&extents).expect("spec");
        let plan = MemorySystemPlan::generate(&spec).expect("plan");
        let in_core = engine_outputs(&bench, &plan, &grid, ExecMode::InCore, 0);
        assert_eq!(in_core, golden, "in-core vs golden: {}", bench.name());

        let in_vals = input_values(&plan, &grid);
        let compute = bench.compute_fn();
        let halo_rows = {
            let lo = bench.window().iter().map(|f| f[0]).min().unwrap();
            let hi = bench.window().iter().map(|f| f[0]).max().unwrap();
            (hi - lo + 1) as u64
        };
        let whole_grid = extents[0] as u64;
        for chunk in [1u64, halo_rows, whole_grid] {
            let mut source = SliceSource::new(&in_vals);
            let mut sink = VecSink::new();
            let session = Session::new(&plan)
                .kernel(SessionKernel::Closure(&compute))
                .mode(ExecMode::Streaming {
                    chunk_rows: Some(chunk),
                })
                .threads(2)
                .run_streaming(&mut source, &mut sink)
                .expect("streaming run");
            let report = session.stages[0].stream.as_ref().expect("stream report");
            assert_eq!(
                sink.values,
                golden,
                "streaming(chunk={chunk}) vs golden: {}",
                bench.name()
            );
            assert!(
                report.within_residency_bound(),
                "{} chunk={chunk}: peak {} > bound {}",
                bench.name(),
                report.peak_resident,
                report.resident_bound
            );
            assert_eq!(
                report.rows_out,
                spec.iteration_domain().index().unwrap().rows().len() as u64
            );
        }
    }
}

#[test]
fn compiled_backend_equals_closure_and_golden_on_paper_suite() {
    // The compiled row-sweep executor, the scalar bytecode interpreter
    // (backend forced to `Closure`), and the original closure engine
    // must all be bit-identical to the golden executor on every paper
    // benchmark — in-core and through the bounded-memory streaming
    // path at the three characteristic chunk sizes (one row, one halo
    // height, the whole grid).
    for bench in paper_suite() {
        let extents = small_extents(&bench);
        let grid = test_grid(&extents);
        let golden = run_golden(&bench, &extents, &grid).expect("golden");
        let spec = bench.spec_for(&extents).expect("spec");
        let plan = MemorySystemPlan::generate(&spec).expect("plan");
        let kernel = CompiledKernel::for_benchmark(&bench)
            .expect("compile")
            .expect("every paper benchmark carries an expression");

        let in_idx = plan.input_domain().index().expect("input index");
        let in_vals = input_values(&plan, &grid);
        let input = InputGrid::new(&in_idx, &in_vals).expect("input");

        for tiles in [1usize, 3] {
            let closure = engine_outputs(&bench, &plan, &grid, ExecMode::Tiled { tiles }, 2);
            assert_eq!(closure, golden, "closure vs golden: {}", bench.name());

            let swept = Session::new(&plan)
                .kernel(SessionKernel::Compiled(&kernel))
                .mode(ExecMode::Tiled { tiles })
                .threads(2)
                .run(&input)
                .expect("compiled run");
            assert_eq!(
                swept.outputs,
                golden,
                "compiled sweep({tiles} tiles) vs golden: {}",
                bench.name()
            );

            let scalar = Session::new(&plan)
                .kernel(SessionKernel::Compiled(&kernel))
                .backend(KernelBackend::Closure)
                .mode(ExecMode::Tiled { tiles })
                .threads(2)
                .run(&input)
                .expect("scalar run");
            assert_eq!(
                scalar.outputs,
                golden,
                "scalar bytecode({tiles} tiles) vs golden: {}",
                bench.name()
            );
        }

        let halo_rows = {
            let lo = bench.window().iter().map(|f| f[0]).min().unwrap();
            let hi = bench.window().iter().map(|f| f[0]).max().unwrap();
            (hi - lo + 1) as u64
        };
        for chunk in [1u64, halo_rows, extents[0] as u64] {
            let mut source = SliceSource::new(&in_vals);
            let mut sink = VecSink::new();
            let report = Session::new(&plan)
                .kernel(SessionKernel::Compiled(&kernel))
                .mode(ExecMode::Streaming {
                    chunk_rows: Some(chunk),
                })
                .threads(2)
                .run_streaming(&mut source, &mut sink)
                .expect("compiled streaming run");
            assert_eq!(
                sink.values,
                golden,
                "compiled streaming(chunk={chunk}) vs golden: {}",
                bench.name()
            );
            assert!(
                report.within_residency_bound(),
                "{} chunk={chunk}: peak {} > bound {}",
                bench.name(),
                report.peak_resident,
                report.resident_bound
            );
        }
    }
}

#[test]
fn engine_report_is_consistent_with_machine_stats() {
    let bench = stencil_kernels::denoise();
    let extents = [24i64, 30];
    let grid = test_grid(&extents);
    let spec = bench.spec_for(&extents).expect("spec");
    let plan = MemorySystemPlan::generate(&spec).expect("plan");

    let machine = accelerate(&bench, &extents, &grid).expect("machine");
    let in_idx = plan.input_domain().index().expect("input index");
    let mut in_vals = Vec::with_capacity(in_idx.len() as usize);
    let mut c = in_idx.cursor();
    while let Some(p) = c.point(&in_idx) {
        in_vals.push(grid.value_at(&p).expect("covered"));
        c.advance(&in_idx);
    }
    let input = InputGrid::new(&in_idx, &in_vals).expect("input");
    let compute = bench.compute_fn();
    let run = Session::new(&plan)
        .kernel(SessionKernel::Closure(&compute))
        .mode(ExecMode::Tiled { tiles: 1 })
        .threads(1)
        .run(&input)
        .expect("engine");
    let report = run.report.stages[0].engine.as_ref().expect("engine report");

    // Same outputs, and the single-band halo equals the full input
    // domain the machine streams.
    assert_eq!(run.outputs, machine.outputs);
    assert_eq!(report.outputs, machine.stats.outputs);
    assert_eq!(report.tiles, 1);
    assert_eq!(report.halo_elements, in_idx.len());
    let streamed: u64 = machine
        .stats
        .chains
        .iter()
        .map(|chain| chain.inputs_streamed)
        .sum();
    assert_eq!(report.halo_elements, streamed);
}

#[test]
fn skewed_grid_stays_exact_and_batched() {
    // The skewed DENOISE variant has a non-rectangular (parallelogram)
    // iteration domain. Because the input domain is the convex dilation
    // of the iteration domain, every shifted row remains contiguous in
    // the input stream — the engine must stay on the batched fast path
    // while remaining bit-exact against a direct loop.
    let spec = stencil_kernels::skewed_denoise(16, 12).expect("spec");
    let plan = MemorySystemPlan::generate(&spec).expect("plan");
    let in_idx = plan.input_domain().index().expect("input index");
    let in_vals: Vec<f64> = (0..in_idx.len())
        .map(|r| ((r * 37 + 11) % 101) as f64 * 0.125 - 5.0)
        .collect();
    let input = InputGrid::new(&in_idx, &in_vals).expect("input");
    let compute = |w: &[f64]| w[2] + 0.2 * (w[0] + w[1] + w[3] + w[4]);

    // Direct nested-loop reference in the spec's declared offset order.
    let iter_idx = spec.iteration_domain().index().expect("iter index");
    let mut expect = Vec::with_capacity(iter_idx.len() as usize);
    let mut c = iter_idx.cursor();
    while let Some(p) = c.point(&iter_idx) {
        let window: Vec<f64> = spec
            .offsets()
            .iter()
            .map(|f| input.value_at(&(p + *f)).expect("halo covered"))
            .collect();
        expect.push(compute(&window));
        c.advance(&iter_idx);
    }

    for tiles in [1usize, 3, 4] {
        let run = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .mode(ExecMode::Tiled { tiles })
            .run(&input)
            .expect("engine run");
        assert_eq!(run.outputs, expect, "skewed engine({tiles} tiles)");
        let report = run.report.stages[0].engine.as_ref().expect("engine report");
        let gathers: u64 = report.per_tile.iter().map(|t| t.gather_rows).sum();
        assert_eq!(gathers, 0, "convex halos keep every row on the fast path");
    }
}
