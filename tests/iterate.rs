//! Differential and property tests pinning `Session::iterate` and
//! `Session::iterate_until`.
//!
//! Three guarantees are certified here:
//!
//! * **Differential fidelity.** For every iteration-stable benchmark,
//!   `Session::iterate(T)` is bit-identical to T sequential fully
//!   materialised runs of the same kernel — in core and streaming at
//!   chunk heights {1, halo, whole grid}, with the closure and (where
//!   the benchmark carries an expression) compiled backends.
//! * **Residency safety.** For random grids, chunk heights, and step
//!   counts, a streaming iterate run's peak residency never exceeds
//!   the session's planned residency bound; degenerate requests (T=0,
//!   grids the ring erodes away) are clean errors, never panics.
//! * **Convergence determinism.** A contractive relaxation kernel
//!   converges under `iterate_until` with `converged=true`, steps
//!   within the cap, and an identical step count across the closure
//!   and compiled backends (their outputs are bit-identical by
//!   construction).

use proptest::prelude::*;
use stencil_core::MemorySystemPlan;
use stencil_engine::{
    CompiledKernel, ExecMode, InputGrid, Session, SessionKernel, SliceSource, VecSink,
};
use stencil_kernels::{extra_suite, paper_suite, Benchmark};
use stencil_polyhedral::{Point, Polyhedron};

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

/// Per-dimension extents sized so the benchmark's iteration domain
/// survives `steps` erosions of its own window with interior to spare.
fn extents_for(bench: &Benchmark, steps: i64) -> Vec<i64> {
    (0..bench.dims())
        .map(|d| {
            let lo = bench.window().iter().map(|f| f[d]).min().unwrap().min(0);
            let hi = bench.window().iter().map(|f| f[d]).max().unwrap().max(0);
            (hi - lo) * (steps + 1) + 4
        })
        .collect()
}

/// The stage-0 halo height in rows: the window's vertical span.
fn halo_rows(bench: &Benchmark) -> u64 {
    let lo = bench.window().iter().map(|f| f[0]).min().unwrap().min(0);
    let hi = bench.window().iter().map(|f| f[0]).max().unwrap().max(0);
    (hi - lo + 1) as u64
}

/// The golden reference: `steps` sequential runs of the benchmark's
/// kernel, each step re-planned over the previous step's fully
/// materialised output grid.
fn sequential_steps(
    bench: &Benchmark,
    plan: &MemorySystemPlan,
    in_vals: &[f64],
    steps: usize,
) -> Vec<f64> {
    let compute = bench.compute_fn();
    let in_idx = plan.input_domain().index().expect("input index");
    let input = InputGrid::new(&in_idx, in_vals).expect("sized input");
    let mut cur = Session::new(plan)
        .kernel(SessionKernel::Closure(&compute))
        .run(&input)
        .expect("step 1")
        .outputs;
    let mut cur_plan = plan.clone();
    for k in 1..steps {
        let next = cur_plan
            .chain_next(format!("t{}", k + 1), bench.window())
            .expect("chained plan");
        let idx = next.input_domain().index().expect("input index");
        let grid = InputGrid::new(&idx, &cur).expect("sized intermediate");
        cur = Session::new(&next)
            .kernel(SessionKernel::Closure(&compute))
            .run(&grid)
            .expect("chained step")
            .outputs;
        cur_plan = next;
    }
    cur
}

/// Every iteration-stable benchmark across the paper and extra suites.
fn iteration_stable_suite() -> Vec<Benchmark> {
    paper_suite()
        .into_iter()
        .chain(extra_suite())
        .filter(Benchmark::iteration_stable)
        .collect()
}

#[test]
fn iterate_matches_sequential_runs_on_every_stable_benchmark() {
    for bench in iteration_stable_suite() {
        // 3-D rings at T=17 would need ~37^3 grids x 17 coupled stages;
        // cap depth by dimensionality to keep the debug-mode matrix
        // tractable while 1-D/2-D benchmarks still exercise T=17.
        let depths: &[usize] = if bench.dims() >= 3 {
            &[1, 2, 5]
        } else {
            &[1, 2, 5, 17]
        };
        for &steps in depths {
            let extents = extents_for(&bench, steps as i64);
            let spec = bench.spec_for(&extents).expect("spec");
            let plan = MemorySystemPlan::generate(&spec).expect("plan");
            let in_idx = plan.input_domain().index().expect("input index");
            let in_vals = input_values(in_idx.len());
            let input = InputGrid::new(&in_idx, &in_vals).expect("sized input");
            let compute = bench.compute_fn();
            let golden = sequential_steps(&bench, &plan, &in_vals, steps);

            // In-core ring, closure backend.
            let run = Session::new(&plan)
                .kernel(SessionKernel::Closure(&compute))
                .iterate(steps)
                .expect("iterate")
                .run(&input)
                .expect("in-core iterate run");
            assert_eq!(run.outputs, golden, "{} T={steps}: in-core", bench.name());
            let it = run.report.iterate.expect("iterate report");
            assert_eq!(it.steps, steps as u64, "{} T={steps}", bench.name());

            // Streaming ring at {1, halo, whole grid} chunk heights.
            for chunk in [1u64, halo_rows(&bench), extents[0] as u64] {
                let session = Session::new(&plan)
                    .kernel(SessionKernel::Closure(&compute))
                    .mode(ExecMode::Streaming {
                        chunk_rows: Some(chunk),
                    })
                    .iterate(steps)
                    .expect("iterate");
                let planned = session
                    .planned_residency_bound(Some(chunk))
                    .expect("planned bound");
                let mut source = SliceSource::new(&in_vals);
                let mut sink = VecSink::new();
                let report = session
                    .run_streaming(&mut source, &mut sink)
                    .expect("streaming iterate run");
                assert_eq!(
                    sink.values,
                    golden,
                    "{} T={steps}: streaming chunk {chunk}",
                    bench.name()
                );
                assert!(report.within_residency_bound());
                assert!(
                    report.peak_resident <= planned,
                    "{} T={steps} chunk {chunk}: peak {} > planned {planned}",
                    bench.name(),
                    report.peak_resident
                );
            }

            // Compiled backend, where the benchmark carries an expression.
            let Some(kernel) = CompiledKernel::for_benchmark(&bench).expect("compile") else {
                continue;
            };
            let run = Session::new(&plan)
                .kernel(SessionKernel::Compiled(&kernel))
                .iterate(steps)
                .expect("iterate")
                .run(&input)
                .expect("compiled iterate run");
            assert_eq!(run.outputs, golden, "{} T={steps}: compiled", bench.name());

            let mut source = SliceSource::new(&in_vals);
            let mut sink = VecSink::new();
            Session::new(&plan)
                .kernel(SessionKernel::Compiled(&kernel))
                .mode(ExecMode::Streaming {
                    chunk_rows: Some(halo_rows(&bench)),
                })
                .iterate(steps)
                .expect("iterate")
                .run_streaming(&mut source, &mut sink)
                .expect("compiled streaming iterate run");
            assert_eq!(
                sink.values,
                golden,
                "{} T={steps}: compiled streaming",
                bench.name()
            );
        }
    }
}

/// The 5-point DENOISE-shaped window used by the property tests.
fn window_5pt() -> Vec<Point> {
    vec![
        Point::new(&[-1, 0]),
        Point::new(&[0, -1]),
        Point::new(&[0, 0]),
        Point::new(&[0, 1]),
        Point::new(&[1, 0]),
    ]
}

fn plan_5pt(rows: i64, cols: i64) -> MemorySystemPlan {
    let spec = stencil_core::StencilSpec::new(
        "prop",
        Polyhedron::rect(&[(1, rows - 2), (1, cols - 2)]),
        window_5pt(),
    )
    .expect("spec");
    MemorySystemPlan::generate(&spec).expect("plan")
}

fn compute_5pt(w: &[f64]) -> f64 {
    w[2] + 0.25 * (w[0] + w[1] + w[3] + w[4] - 4.0 * w[2])
}

proptest! {
    /// A streaming iterate run never exceeds the session's planned
    /// residency bound — for any grid, chunk height, and step count
    /// the ring supports — and requests the ring cannot satisfy are
    /// clean errors, never panics.
    #[test]
    fn iterate_residency_is_bounded_and_degenerates_cleanly(
        rows in 6i64..30,
        cols in 6i64..30,
        steps in 0usize..9,
        chunk in 1u64..6,
    ) {
        let plan = plan_5pt(rows, cols);
        let session = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute_5pt))
            .mode(ExecMode::Streaming { chunk_rows: Some(chunk) })
            .iterate(steps);
        // The 5-point window erodes one ring per step: the (rows-2) x
        // (cols-2) iteration domain supports exactly this many steps.
        let supported = ((rows - 2).min(cols - 2) + 1) / 2;
        let Ok(session) = session else {
            // T=0 or a domain smaller than the ring needs: a clean
            // error is exactly the contract.
            prop_assert!(steps == 0 || steps as i64 > supported);
            return Ok(());
        };
        prop_assert!(steps as i64 <= supported);
        let planned = session.planned_residency_bound(Some(chunk)).expect("bound");
        let in_idx = plan.input_domain().index().expect("index");
        let in_vals = input_values(in_idx.len());
        let mut source = SliceSource::new(&in_vals);
        let mut sink = VecSink::new();
        let report = session
            .run_streaming(&mut source, &mut sink)
            .expect("streaming run");
        prop_assert!(report.within_residency_bound());
        prop_assert!(
            report.peak_resident <= planned,
            "peak {} > planned {planned}", report.peak_resident
        );
        let it = report.iterate.expect("iterate report");
        prop_assert_eq!(it.steps, steps as u64);
        prop_assert_eq!(report.stages.len(), steps);
    }

    /// A contractive Jacobi-style kernel (tap weights summing to 0.4,
    /// so deltas shrink geometrically) converges under `iterate_until`
    /// within the step cap, and the closure and compiled backends
    /// measure identical deltas — so they exit after the same step.
    #[test]
    fn iterate_until_converges_identically_across_backends(
        rows in 24i64..48,
        cols in 24i64..48,
        eps_exp in 1u32..3,
    ) {
        let plan = plan_5pt(rows, cols);
        let relax = |w: &[f64]| 0.2 * w[2] + 0.05 * (w[0] + w[1] + w[3] + w[4]);
        let in_idx = plan.input_domain().index().expect("index");
        // Scale inputs to O(10) so the geometric delta decay reaches
        // epsilon well inside the erosion-capped step budget.
        let in_vals: Vec<f64> = input_values(in_idx.len())
            .into_iter()
            .map(|v| v / 2048.0)
            .collect();
        let input = InputGrid::new(&in_idx, &in_vals).expect("input");
        let epsilon = 10f64.powi(-(eps_exp as i32));
        // Values contract by 2.5x per step, so the delta reaches 1e-2
        // from O(10) inputs within ~9 steps; the eroding ring caps how
        // many steps the grid supports (>= 12 at these sizes).
        let max_steps = (((rows - 2).min(cols - 2) + 1) / 2) as usize;

        let closure_run = Session::new(&plan)
            .kernel(SessionKernel::Closure(&relax))
            .iterate_until(&input, epsilon, max_steps)
            .expect("closure iterate_until");
        let it = closure_run.report.iterate.clone().expect("iterate report");
        prop_assert!(it.converged, "no convergence in {} steps", max_steps);
        prop_assert!(it.steps <= max_steps as u64);
        prop_assert!(it.final_delta <= epsilon);

        let [t0, t1, t2, t3, t4] = stencil_kernels::KernelExpr::taps::<5>();
        let expr = 0.2 * t2 + 0.05 * (t0 + t1 + t3 + t4);
        let kernel = CompiledKernel::compile_checked(&expr, 5, &relax).expect("compile");
        let compiled_run = Session::new(&plan)
            .kernel(SessionKernel::Compiled(&kernel))
            .iterate_until(&input, epsilon, max_steps)
            .expect("compiled iterate_until");
        let it2 = compiled_run.report.iterate.clone().expect("iterate report");
        prop_assert_eq!(it2.steps, it.steps);
        prop_assert_eq!(it2.final_delta, it.final_delta);
        prop_assert_eq!(compiled_run.outputs, closure_run.outputs);
    }
}

/// The streaming sessions the wavefront property test draws from: rings
/// of DENOISE (2-D), DENOISE_3D and HEAT_1D, and heterogeneous chains
/// whose stages lag by different offsets (BLUR3X3 by 1, ASYMMETRIC_2D
/// by 0, HIGH_ORDER_2D by 2).
#[derive(Debug, Clone, Copy)]
enum Wavefront {
    Ring2d {
        rows: i64,
        cols: i64,
        steps: usize,
    },
    Ring3d {
        side: i64,
        steps: usize,
    },
    Ring1d {
        len: i64,
        steps: usize,
    },
    Chain {
        rows: i64,
        cols: i64,
        lopsided: bool,
    },
}

impl Wavefront {
    /// The case `kind` (0..4) names, shaped by the other draws.
    fn draw(kind: usize, rows: i64, cols: i64, steps: usize) -> Wavefront {
        match kind {
            0 => Wavefront::Ring2d { rows, cols, steps },
            1 => Wavefront::Ring3d {
                side: 8 + rows % 4,
                steps: 1 + steps % 3,
            },
            2 => Wavefront::Ring1d {
                len: rows + cols,
                steps,
            },
            _ => Wavefront::Chain {
                rows,
                cols,
                lopsided: steps.is_multiple_of(2),
            },
        }
    }

    /// The stage-0 plan.
    fn plan(self) -> MemorySystemPlan {
        let (bench, extents) = match self {
            Wavefront::Ring2d { rows, cols, .. } | Wavefront::Chain { rows, cols, .. } => {
                (stencil_kernels::denoise(), vec![rows, cols])
            }
            Wavefront::Ring3d { side, .. } => (stencil_kernels::denoise_3d(), vec![side; 3]),
            Wavefront::Ring1d { len, .. } => (stencil_kernels::heat_1d(), vec![len]),
        };
        MemorySystemPlan::generate(&bench.spec_for(&extents).expect("spec")).expect("plan")
    }

    /// The session over `plan` in `mode`.
    fn session(self, plan: &MemorySystemPlan, mode: ExecMode) -> Session<'_> {
        let head = match self {
            Wavefront::Ring3d { .. } => stencil_kernels::denoise_3d(),
            Wavefront::Ring1d { .. } => stencil_kernels::heat_1d(),
            _ => stencil_kernels::denoise(),
        };
        let session = Session::build(plan, &head.stage())
            .expect("build")
            .mode(mode);
        match self {
            Wavefront::Ring2d { steps, .. }
            | Wavefront::Ring3d { steps, .. }
            | Wavefront::Ring1d { steps, .. } => session.iterate(steps).expect("iterate"),
            Wavefront::Chain { lopsided, .. } => {
                let tail = if lopsided {
                    vec![
                        stencil_kernels::asymmetric_2d(),
                        stencil_kernels::high_order_2d(),
                    ]
                } else {
                    vec![stencil_kernels::blur3x3()]
                };
                tail.iter()
                    .fold(session, |s, b| s.then(&b.stage()).expect("then"))
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The band wavefront is the in-core run, bit for bit, at any band
    /// height — including heights below T x halo, where downstream
    /// stages start with empty leading bands — from a slice or a mapped
    /// source. Every stage's peak is its own halo-window bound, the
    /// planned bound is the one the run meets (same lagged schedules),
    /// and each stage admits and emits exactly its logical rows.
    #[test]
    fn band_wavefront_matches_in_core_and_admits_logical_rows(
        kind in 0usize..4,
        rows in 14i64..40,
        cols in 14i64..40,
        steps in 1usize..=6,
        chunk in 1u64..=24,
        mapped in 0u8..2,
    ) {
        let case = Wavefront::draw(kind, rows, cols, steps);
        let plan = case.plan();
        let in_idx = plan.input_domain().index().expect("index");
        let in_vals = input_values(in_idx.len());
        let input = InputGrid::new(&in_idx, &in_vals).expect("input");
        let golden = case.session(&plan, ExecMode::InCore).run(&input).expect("in core").outputs;

        let session = case.session(&plan, ExecMode::Streaming { chunk_rows: Some(chunk) });
        let planned = session.planned_residency_bound(Some(chunk)).expect("planned bound");
        let mut sink = VecSink::new();
        let report = if mapped == 1 {
            let path = std::env::temp_dir().join(format!(
                "wavefront_{}_{chunk}_{}.sgrid",
                std::process::id(),
                in_vals.len()
            ));
            stencil_engine::pack_grid(&path, &[in_idx.len()], &in_vals).expect("pack");
            let mut source = stencil_engine::MmapSource::open(&path).expect("map");
            let report = session.run_streaming(&mut source, &mut sink);
            std::fs::remove_file(&path).ok();
            report.expect("mapped streaming run")
        } else {
            let mut source = SliceSource::new(&in_vals);
            session.run_streaming(&mut source, &mut sink).expect("streaming run")
        };
        prop_assert!(
            sink.values.iter().map(|v| v.to_bits()).eq(golden.iter().map(|v| v.to_bits())),
            "{case:?} chunk {chunk}: streaming diverges from in core"
        );
        prop_assert_eq!(report.tile_plans_built, 0);
        prop_assert_eq!(planned, report.resident_bound);
        prop_assert!(report.peak_resident <= planned);
        for (k, stage) in report.stages.iter().enumerate() {
            let s = stage.stream.as_ref().expect("stream report");
            prop_assert_eq!(s.peak_resident, s.resident_bound, "{:?} stage {}", case, k);
            let stage_plan = session.stage_plan(k).expect("stage plan");
            let stage_in = stage_plan.input_domain().index().expect("input index");
            let stage_out = stage_plan.iteration_domain().index().expect("iteration index");
            prop_assert_eq!(s.values_in, stage_in.len(), "{:?} stage {}", case, k);
            prop_assert_eq!(s.rows_in, stage_in.rows().len() as u64, "{:?} stage {}", case, k);
            // Past 1-D a band emits whole index rows; in 1-D each band
            // emits its slice of the one row.
            let rows_out = if stage_out.dims() == 1 { s.bands } else { stage_out.rows().len() };
            prop_assert_eq!(s.rows_out, rows_out as u64, "{:?} stage {}", case, k);
        }
    }
}
