//! Integration test: the `Session` layer is the one execution surface
//! for every mode × backend combination, and temporal chaining is
//! faithful.
//!
//! Two guarantees are certified here:
//!
//! * **Cross-mode parity.** For every paper benchmark, every `Session`
//!   configuration (in-core over one band and over several off-chip
//!   streams' bands, streaming at several chunk heights — each with the closure and,
//!   where the benchmark carries an expression, the compiled backend)
//!   produces bit-identical outputs.
//! * **Chained fidelity.** A 2- and 3-stage `Session::then` pipeline
//!   over the DENOISE window — and heterogeneous chains mixing the
//!   5-point cross with the 9-tap BLUR3X3 box, including mixed
//!   per-stage backends — matches running each stage to completion
//!   sequentially with fully materialised intermediates, while the
//!   chained run's peak residency stays within the planned per-stage
//!   halo-window bound (Sec. 2.3) instead of holding whole grids — in
//!   core too, where only the first stage's input is held whole.

use stencil_bench::scaled_extents;
use stencil_core::MemorySystemPlan;
use stencil_engine::{
    CompiledKernel, ExecMode, InputGrid, KernelBackend, Session, SessionKernel, SliceSource,
    VecSink,
};
use stencil_kernels::{blur3x3, denoise, paper_suite, Benchmark};

/// Deterministic pseudo-random input values for `n` grid cells.
fn input_values(n: u64) -> Vec<f64> {
    let mut state = 0x00c0_ffee_u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f64) / 1024.0 - 8.0
        })
        .collect()
}

/// Builds a scaled plan and matching input grid values for `bench`.
fn plan_and_values(bench: &Benchmark) -> (MemorySystemPlan, Vec<f64>) {
    let extents = scaled_extents(bench, 4_000);
    let spec = bench.spec_for(&extents).expect("spec");
    let plan = MemorySystemPlan::generate(&spec).expect("plan");
    let n = plan.input_domain().index().expect("input index").len();
    (plan, input_values(n))
}

#[test]
fn session_modes_and_backends_agree_on_every_benchmark() {
    for bench in paper_suite() {
        let (plan, in_vals) = plan_and_values(&bench);
        let in_idx = plan.input_domain().index().expect("input index");
        let input = InputGrid::new(&in_idx, &in_vals).expect("sized input");
        let compute = bench.compute_fn();

        // Default in-core run: the golden reference for every other
        // configuration of the same benchmark.
        let golden = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .run(&input)
            .expect("session in-core")
            .outputs;

        // In core over three off-chip streams' bands, with worker
        // threads.
        let banded = plan
            .with_offchip_streams(3.min(plan.port_count()))
            .expect("streams");
        let session = Session::new(&banded)
            .kernel(SessionKernel::Closure(&compute))
            .mode(ExecMode::InCore)
            .threads(2)
            .run(&input)
            .expect("session banded");
        assert_eq!(session.outputs, golden, "{}: banded", bench.name());

        // Streaming through endpoints at several chunk heights.
        for chunk in [1u64, 5] {
            let mut source = SliceSource::new(&in_vals);
            let mut sink = VecSink::new();
            let report = Session::new(&plan)
                .kernel(SessionKernel::Closure(&compute))
                .mode(ExecMode::Streaming {
                    chunk_rows: Some(chunk),
                })
                .threads(2)
                .run_streaming(&mut source, &mut sink)
                .expect("session streaming");
            assert_eq!(
                sink.values,
                golden,
                "{}: streaming chunk {chunk}",
                bench.name()
            );
            assert!(report.within_residency_bound());
        }

        // Compiled backend, where the benchmark carries an expression.
        let Some(kernel) = CompiledKernel::for_benchmark(&bench).expect("compile") else {
            continue;
        };

        let banded = plan
            .with_offchip_streams(2.min(plan.port_count()))
            .expect("streams");
        let session = Session::new(&banded)
            .kernel(SessionKernel::Compiled(&kernel))
            .mode(ExecMode::InCore)
            .run(&input)
            .expect("session compiled");
        assert_eq!(session.outputs, golden, "{}: compiled", bench.name());

        let mut source = SliceSource::new(&in_vals);
        let mut sink = VecSink::new();
        Session::new(&plan)
            .kernel(SessionKernel::Compiled(&kernel))
            .mode(ExecMode::Streaming {
                chunk_rows: Some(3),
            })
            .run_streaming(&mut source, &mut sink)
            .expect("session compiled streaming");
        assert_eq!(sink.values, golden, "{}: compiled streaming", bench.name());
    }
}

/// Runs `stages` sequentially with fully materialised intermediates,
/// returning the final stage's outputs. This is the golden reference a
/// chained `Session` must reproduce bit-for-bit.
fn sequential_reference(
    bench: &Benchmark,
    plan: &MemorySystemPlan,
    in_vals: &[f64],
    stages: &[stencil_kernels::KernelStage],
) -> Vec<f64> {
    let compute = bench.compute_fn();
    let mut cur_plan = plan.clone();
    let mut cur_vals = in_vals.to_vec();
    let in_idx = cur_plan.input_domain().index().expect("input index");
    let input = InputGrid::new(&in_idx, &cur_vals).expect("sized input");
    cur_vals = Session::new(&cur_plan)
        .kernel(SessionKernel::Closure(&compute))
        .run(&input)
        .expect("stage 0")
        .outputs;
    for stage in stages {
        cur_plan = cur_plan
            .chain_next(stage.name(), stage.window())
            .expect("chained plan");
        let idx = cur_plan.input_domain().index().expect("input index");
        let input = InputGrid::new(&idx, &cur_vals).expect("sized intermediate");
        let stage_compute = stage.compute_fn();
        cur_vals = Session::new(&cur_plan)
            .kernel(SessionKernel::Closure(&stage_compute))
            .run(&input)
            .expect("chained stage")
            .outputs;
    }
    cur_vals
}

#[test]
fn chained_session_matches_sequential_stages() {
    let bench = denoise();
    let (plan, in_vals) = plan_and_values(&bench);
    let in_idx = plan.input_domain().index().expect("input index");
    let input = InputGrid::new(&in_idx, &in_vals).expect("sized input");
    let compute = bench.compute_fn();

    for depth in [1usize, 2] {
        let stages: Vec<_> = (0..depth).map(|_| bench.stage()).collect();
        let golden = sequential_reference(&bench, &plan, &in_vals, &stages);

        // In-core chained run.
        let mut session = Session::new(&plan).kernel(SessionKernel::Closure(&compute));
        for stage in &stages {
            session = session.then(stage).expect("then");
        }
        let run = session.run(&input).expect("chained in-core");
        assert_eq!(run.outputs, golden, "in-core chain depth {}", depth + 1);
        assert_eq!(run.report.stages.len(), depth + 1);

        // Streaming chained run: bounded residency, identical outputs.
        for chunk in [1u64, 4] {
            let mut session = Session::new(&plan)
                .kernel(SessionKernel::Closure(&compute))
                .mode(ExecMode::Streaming {
                    chunk_rows: Some(chunk),
                })
                .threads(2);
            for stage in &stages {
                session = session.then(stage).expect("then");
            }
            let bound = session
                .planned_residency_bound(Some(chunk))
                .expect("planned bound");
            let mut source = SliceSource::new(&in_vals);
            let mut sink = VecSink::new();
            let report = session
                .run_streaming(&mut source, &mut sink)
                .expect("chained streaming");
            assert_eq!(
                sink.values,
                golden,
                "streaming chain depth {} chunk {chunk}",
                depth + 1
            );
            assert!(
                report.peak_resident <= bound,
                "chain depth {} chunk {chunk}: peak {} > planned bound {bound}",
                depth + 1,
                report.peak_resident
            );
            assert!(report.within_residency_bound());
            // Adjacent stages hand rows off demand-driven: each stage
            // consumes exactly what its upstream produced.
            for pair in report.stages.windows(2) {
                let up = pair[0].stream.as_ref().expect("upstream stream report");
                let down = pair[1].stream.as_ref().expect("downstream stream report");
                assert_eq!(down.values_in, up.outputs, "hand-off conservation");
            }
        }
    }
}

#[test]
fn mixed_window_chains_match_sequential_stages() {
    // Heterogeneous temporal chains: the DENOISE 5-point cross feeding
    // the 9-tap BLUR3X3 box (depth 2), then DENOISE again (depth 3).
    // Each stage erodes by its *own* halo and buffers by its own reuse
    // distances; the fused run must still be bit-identical to fully
    // materialised sequential stages at every chunk height.
    let bench = denoise();
    let blur = blur3x3();
    let (plan, in_vals) = plan_and_values(&bench);
    let in_idx = plan.input_domain().index().expect("input index");
    let input = InputGrid::new(&in_idx, &in_vals).expect("sized input");
    let compute = bench.compute_fn();

    let depth2 = vec![blur.stage()];
    let depth3 = vec![blur.stage(), bench.stage()];
    for stages in [&depth2, &depth3] {
        let golden = sequential_reference(&bench, &plan, &in_vals, stages);

        // In-core chained run, with per-stage windows in the report.
        let mut session = Session::new(&plan).kernel(SessionKernel::Closure(&compute));
        for stage in stages.iter() {
            session = session.then(stage).expect("then");
        }
        let run = session.run(&input).expect("mixed in-core chain");
        assert_eq!(run.outputs, golden, "in-core depth {}", stages.len() + 1);
        assert_eq!(run.report.stages[0].window_taps, 5);
        assert_eq!(run.report.stages[1].window_taps, 9);
        assert_eq!(run.report.stages[1].window_rows, 3);

        // Streaming at chunk heights 1, the halo (3 rows), and a chunk
        // larger than the whole grid (clamped to an in-core-like band).
        for chunk in [1u64, 3, 4096] {
            let mut session = Session::new(&plan)
                .kernel(SessionKernel::Closure(&compute))
                .mode(ExecMode::Streaming {
                    chunk_rows: Some(chunk),
                })
                .threads(2);
            for stage in stages.iter() {
                session = session.then(stage).expect("then");
            }
            let bound = session
                .planned_residency_bound(Some(chunk))
                .expect("planned bound");
            let mut source = SliceSource::new(&in_vals);
            let mut sink = VecSink::new();
            let report = session
                .run_streaming(&mut source, &mut sink)
                .expect("mixed streaming chain");
            assert_eq!(
                sink.values,
                golden,
                "streaming depth {} chunk {chunk}",
                stages.len() + 1
            );
            assert!(
                report.peak_resident <= bound,
                "depth {} chunk {chunk}: peak {} > planned bound {bound}",
                stages.len() + 1,
                report.peak_resident
            );
            assert!(report.within_residency_bound());
            // Every stage's observed peak honours its own declared
            // bound, and the declared bounds sum to at least the
            // session peak (the stage-wise Sec. 2.3 decomposition).
            let mut summed = 0u64;
            for s in &report.stages {
                let sm = s.stream.as_ref().expect("stream report");
                assert!(sm.peak_resident <= s.resident_bound, "{}", s.label);
                summed += s.resident_bound;
            }
            assert!(report.peak_resident <= summed);
            for pair in report.stages.windows(2) {
                let up = pair[0].stream.as_ref().expect("upstream stream report");
                let down = pair[1].stream.as_ref().expect("downstream stream report");
                assert_eq!(down.values_in, up.outputs, "hand-off conservation");
            }
        }
    }

    // Per-stage backend override: the blur stage carries an expression,
    // so it can run compiled while the closure base stage cannot — a
    // mixed-backend pipeline that must stay bit-identical.
    let stage2 = blur.stage();
    let mut source = SliceSource::new(&in_vals);
    let mut sink = VecSink::new();
    let report = Session::new(&plan)
        .kernel(SessionKernel::Closure(&compute))
        .backend(KernelBackend::Closure)
        .mode(ExecMode::Streaming {
            chunk_rows: Some(1),
        })
        .then(&stage2)
        .expect("then")
        .stage_backend(KernelBackend::Compiled)
        .run_streaming(&mut source, &mut sink)
        .expect("mixed-backend chain");
    assert_eq!(
        sink.values,
        sequential_reference(&bench, &plan, &in_vals, &depth2)
    );
    assert_eq!(report.stages[0].backend, KernelBackend::Closure);
    assert_eq!(report.stages[1].backend, KernelBackend::Compiled);
}

#[test]
fn chained_session_residency_stays_near_one_stage() {
    // The point of chaining: a 2-stage pipeline's peak residency is
    // about two stages' halo windows, far below holding a full
    // intermediate grid in memory.
    let bench = denoise();
    let (plan, in_vals) = plan_and_values(&bench);
    let compute = bench.compute_fn();
    let stage2 = bench.stage();

    let session = Session::new(&plan)
        .kernel(SessionKernel::Closure(&compute))
        .mode(ExecMode::Streaming {
            chunk_rows: Some(1),
        })
        .then(&stage2)
        .expect("then");
    let mut source = SliceSource::new(&in_vals);
    let mut sink = VecSink::new();
    let report = session
        .run_streaming(&mut source, &mut sink)
        .expect("chained streaming");

    let full_intermediate = plan
        .iteration_domain()
        .index()
        .expect("iteration index")
        .len();
    assert!(
        report.peak_resident < full_intermediate,
        "peak {} should undercut a materialised intermediate of {}",
        report.peak_resident,
        full_intermediate
    );
}

#[test]
fn in_core_chains_and_rings_stream_their_intermediates() {
    // In core, a chain or a ring holds its input whole but hands every
    // intermediate on through the next stage's halo window: each stage
    // past the first reports its halo-window bound, the one a
    // streaming run over the same bands reports, and peaks at it. Two
    // off-chip streams make two bands, so a window holds about half a
    // grid.
    let bench = denoise();
    let extents = [64i64, 48];
    let base = MemorySystemPlan::generate(&bench.spec_for(&extents).expect("spec")).expect("plan");
    let two = base.with_offchip_streams(2).expect("two streams");
    let in_idx = base.input_domain().index().expect("input index");
    let in_vals = input_values(in_idx.len());
    let input = InputGrid::new(&in_idx, &in_vals).expect("input");

    let chain = |plan, mode, threads| {
        Session::build(plan, &bench.stage())
            .expect("build")
            .mode(mode)
            .threads(threads)
            .then(&blur3x3().stage())
            .expect("then")
    };
    let ring = |plan, mode, threads| {
        Session::build(plan, &bench.stage())
            .expect("build")
            .mode(mode)
            .threads(threads)
            .iterate(8)
            .expect("iterate")
    };
    type Build<'p> = &'p dyn Fn(&'p MemorySystemPlan, ExecMode, usize) -> Session<'p>;
    let cases: [(&str, &MemorySystemPlan, Build<'_>); 2] =
        [("chain", &two, &chain), ("ring", &two, &ring)];
    for (what, plan, build) in cases {
        let streaming = build(plan, ExecMode::Streaming { chunk_rows: None }, 1)
            .run(&input)
            .expect("streaming run");
        for threads in [1usize, 2] {
            let run = build(plan, ExecMode::InCore, threads)
                .run(&input)
                .expect("in-core run");
            let case = format!("{what}, {threads} worker(s)");
            assert!(
                run.outputs
                    .iter()
                    .zip(&streaming.outputs)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                    && run.outputs.len() == streaming.outputs.len(),
                "{case}: in core diverges from streaming"
            );
            let report = &run.report;
            let mut whole_grids = in_idx.len();
            for (k, (stage, streamed)) in report
                .stages
                .iter()
                .zip(&streaming.report.stages)
                .enumerate()
                .skip(1)
            {
                let window = streamed.stream.as_ref().expect("stream block");
                assert!(stage.engine.is_some(), "{case}: stage {k} block");
                assert_eq!(
                    stage.resident_bound, window.resident_bound,
                    "{case}: stage {k} bound"
                );
                assert_eq!(window.peak_resident, window.resident_bound);
                whole_grids += report.stages[k - 1]
                    .engine
                    .as_ref()
                    .expect("engine block")
                    .outputs;
            }
            // Stage 0 holds its input; every later stage peaks at its
            // bound, so the sums agree.
            assert_eq!(report.stages[0].resident_bound, in_idx.len(), "{case}");
            assert_eq!(report.peak_resident, report.resident_bound, "{case}");
            assert!(
                report.peak_resident < whole_grids,
                "{case}: peak {} should undercut the {whole_grids} values of whole grids",
                report.peak_resident
            );
        }
    }
}
