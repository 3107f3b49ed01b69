//! Integration test: the f32 datapath across the paper benchmark suite.
//!
//! Two guarantees are certified here:
//!
//! * **f32 tolerance goldens.** For each of the six paper benchmarks,
//!   the f32 datapath's in-core outputs stay within the benchmark's
//!   declared relative tolerance (`Benchmark::f32_rtol`) of the f64
//!   reference — the narrowed datapath trades bits for throughput in a
//!   bounded, per-kernel-audited way, like fixed-point width selection
//!   in the paper's FPGA datapath.
//! * **Chunking invariance at f32.** Streaming the f32 run at chunk
//!   heights of one row, the halo window height, and the whole grid
//!   reproduces the in-core f32 bits exactly: the register program is
//!   bit-deterministic per output row, so reduced precision never
//!   becomes schedule-dependent.

use stencil_bench::scaled_extents;
use stencil_core::MemorySystemPlan;
use stencil_engine::{
    max_rel_error, CompiledKernel, Datapath, ExecMode, InputGrid, Session, SessionKernel,
    SliceSource, VecSink,
};
use stencil_kernels::{paper_suite, Benchmark};

/// Deterministic pseudo-random input values for `n` grid cells. The
/// 0.1-granularity lattice is not exactly representable in f32, so
/// narrowing genuinely perturbs the arithmetic.
fn input_values(n: u64) -> Vec<f64> {
    let mut state = 0x0f32_0f32_u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f64) * 0.1 - 800.0
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

/// The halo window height of `plan`'s stencil in the outermost
/// dimension — the natural streaming chunk unit.
fn halo_rows(bench: &Benchmark) -> u64 {
    let lo = bench.window().iter().map(|p| p[0]).min().expect("window");
    let hi = bench.window().iter().map(|p| p[0]).max().expect("window");
    (hi - lo + 1).unsigned_abs()
}

#[test]
fn f32_datapath_stays_within_declared_tolerance_on_paper_benchmarks() {
    for bench in paper_suite() {
        let (plan, in_vals) = plan_and_values(&bench);
        let in_idx = plan.input_domain().index().expect("input index");
        let input = InputGrid::new(&in_idx, &in_vals).expect("sized input");
        let kernel = CompiledKernel::for_benchmark(&bench)
            .expect("compile")
            .expect("every paper benchmark carries an expression");

        let f64_golden = Session::new(&plan)
            .kernel(SessionKernel::Compiled(&kernel))
            .run(&input)
            .expect("f64 in-core")
            .outputs;
        let f32_incore = Session::new(&plan)
            .kernel(SessionKernel::Compiled(&kernel))
            .datapath(Datapath::F32)
            .run(&input)
            .expect("f32 in-core")
            .outputs;

        let err = max_rel_error(&f32_incore, &f64_golden);
        assert!(
            err <= bench.f32_rtol(),
            "{}: f32 datapath drifted {err:.3e} from the f64 reference, \
             over the declared tolerance {:.1e}",
            bench.name(),
            bench.f32_rtol()
        );

        // Chunking invariance: one row, one halo window, whole grid.
        let grid_rows = plan
            .iteration_domain()
            .index()
            .expect("iteration index")
            .bounding_box()
            .map_or(1, |bb| (bb[0].1 - bb[0].0 + 1).unsigned_abs());
        for chunk in [1, halo_rows(&bench), grid_rows] {
            let mut source = SliceSource::new(&in_vals);
            let mut sink = VecSink::new();
            Session::new(&plan)
                .kernel(SessionKernel::Compiled(&kernel))
                .datapath(Datapath::F32)
                .mode(ExecMode::Streaming {
                    chunk_rows: Some(chunk),
                })
                .run_streaming(&mut source, &mut sink)
                .expect("f32 streaming");
            assert_eq!(
                sink.values,
                f32_incore,
                "{}: f32 streaming at chunk {} diverged from f32 in-core",
                bench.name(),
                chunk
            );
        }
    }
}
