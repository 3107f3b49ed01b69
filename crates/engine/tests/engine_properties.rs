//! Property-based differential verification of the band-parallel
//! engine: over random windows, grids, stream counts, and thread counts,
//! the engine must agree bit-for-bit with the golden nested-loop
//! executor and the cycle-accurate machine.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use stencil_core::MemorySystemPlan;
use stencil_engine::{
    CompiledKernel, EngineError, ExecMode, InputGrid, KernelBackend, Session, SessionKernel,
    SliceSource, VecSink,
};
use stencil_kernels::{
    accelerate, extra_suite, paper_suite, run_golden, Benchmark, GridValues, KernelExpr, KernelOps,
    KernelStage,
};
use stencil_polyhedral::{DomainIndex, Point, Polyhedron};

/// Index-weighted window sum: sensitive to tap order, so a backend
/// that permutes the window is caught even when a plain sum would
/// agree.
fn weighted_sum(vals: &[f64]) -> f64 {
    vals.iter()
        .enumerate()
        .map(|(i, v)| (i as f64 + 1.0) * v)
        .sum()
}

/// [`weighted_sum`] authored as an expression tree. Mirrors the
/// closure's evaluation order exactly (including `sum()`'s leading
/// `0.0`) so bytecode and closure agree bit-for-bit.
fn weighted_expr(taps: usize) -> KernelExpr {
    (0..taps).fold(KernelExpr::constant(0.0), |acc, i| {
        acc + KernelExpr::constant(i as f64 + 1.0) * KernelExpr::tap(i)
    })
}

/// Deterministic pseudo-random grid values seeded per case.
fn seeded_grid(extents: &[i64], seed: u64) -> GridValues {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    GridValues::from_fn(&Polyhedron::grid(extents), |_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (1u64 << 25) as f64 - 128.0
    })
    .expect("grid")
}

/// Runs the engine on `plan` with input values drawn from `grid`.
fn engine_outputs(
    plan: &MemorySystemPlan,
    grid: &GridValues,
    mode: ExecMode,
    threads: usize,
) -> Result<Vec<f64>, TestCaseError> {
    let in_idx = plan
        .input_domain()
        .index()
        .map_err(|e| TestCaseError::fail(format!("input index: {e}")))?;
    let mut in_vals = Vec::with_capacity(in_idx.len() as usize);
    let mut c = in_idx.cursor();
    while let Some(p) = c.point(&in_idx) {
        match grid.value_at(&p) {
            Some(v) => in_vals.push(v),
            None => return Err(TestCaseError::fail(format!("grid misses {p:?}"))),
        }
        c.advance(&in_idx);
    }
    let input =
        InputGrid::new(&in_idx, &in_vals).map_err(|e| TestCaseError::fail(format!("{e}")))?;
    Session::new(plan)
        .kernel(SessionKernel::Closure(&weighted_sum))
        .mode(mode)
        .threads(threads)
        .run(&input)
        .map(|run| run.outputs)
        .map_err(|e| TestCaseError::fail(format!("engine: {e}")))
}

/// Small per-kernel grid extents: the window's span per dimension plus
/// a case-chosen slack, so every suite kernel runs on an arbitrary
/// (but always valid) shrunken grid.
fn suite_extents(bench: &Benchmark, slack: &[i64; 3]) -> Vec<i64> {
    (0..bench.dims())
        .map(|d| {
            let min = bench.window().iter().map(|p| p[d]).min().expect("window");
            let max = bench.window().iter().map(|p| p[d]).max().expect("window");
            (max - min + 1) + 2 + slack[d.min(2)]
        })
        .collect()
}

/// Input values of `plan`'s input domain drawn from `grid`.
fn domain_values(plan: &MemorySystemPlan, grid: &GridValues) -> Vec<f64> {
    let in_idx = plan.input_domain().index().expect("input index");
    let mut vals = Vec::with_capacity(in_idx.len() as usize);
    let mut c = in_idx.cursor();
    while let Some(p) = c.point(&in_idx) {
        vals.push(grid.value_at(&p).expect("covered"));
        c.advance(&in_idx);
    }
    vals
}

/// `plan` sharded into `streams` off-chip streams (at most one per
/// port), whose bands an in-core run follows (Appendix 9.4).
fn banded(plan: &MemorySystemPlan, streams: usize) -> MemorySystemPlan {
    plan.with_offchip_streams(streams.min(plan.port_count()))
        .expect("stream sharding")
}

fn bench_2d(offs: &[(i64, i64)], rows: i64, cols: i64) -> Benchmark {
    let window: Vec<Point> = offs.iter().map(|&(a, b)| Point::new(&[a, b])).collect();
    Benchmark::new(
        "PROP2D",
        vec![rows, cols],
        window,
        KernelOps::default(),
        weighted_sum,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine == golden == machine on random 2D windows, grid shapes,
    /// band counts, and worker counts.
    #[test]
    fn engine_matches_golden_and_machine_2d(
        offs in prop::collection::btree_set(((-2i64..=2), (-2i64..=2)), 2..=6),
        rows in 8i64..24,
        cols in 8i64..24,
        tiles in 1usize..=8,
        threads in 1usize..=4,
        seed in 0u64..1_000_000,
    ) {
        let offs: Vec<(i64, i64)> = offs.into_iter().collect();
        let bench = bench_2d(&offs, rows, cols);
        let extents = [rows, cols];
        let grid = seeded_grid(&extents, seed);

        let golden = run_golden(&bench, &extents, &grid).expect("golden");
        let machine = accelerate(&bench, &extents, &grid).expect("machine");
        prop_assert_eq!(&machine.outputs, &golden, "machine vs golden");

        let spec = bench.spec_for(&extents).expect("spec");
        let plan = MemorySystemPlan::generate(&spec).expect("plan");
        let engine = engine_outputs(&banded(&plan, tiles), &grid, ExecMode::InCore, threads)?;
        prop_assert_eq!(
            &engine, &golden,
            "engine({} tiles, {} threads) vs golden", tiles, threads
        );
    }

    /// Same three-way agreement on random 3D kernels.
    #[test]
    fn engine_matches_golden_and_machine_3d(
        offs in prop::collection::btree_set(
            ((-1i64..=1), (-1i64..=1), (-1i64..=1)), 2..=6),
        e0 in 5i64..9,
        e1 in 5i64..9,
        e2 in 5i64..9,
        tiles in 1usize..=5,
        seed in 0u64..1_000_000,
    ) {
        let offs: Vec<(i64, i64, i64)> = offs.into_iter().collect();
        let window: Vec<Point> = offs
            .iter()
            .map(|&(a, b, c)| Point::new(&[a, b, c]))
            .collect();
        let bench = Benchmark::new(
            "PROP3D",
            vec![e0, e1, e2],
            window,
            KernelOps::default(),
            weighted_sum,
        );
        let extents = [e0, e1, e2];
        let grid = seeded_grid(&extents, seed);

        let golden = run_golden(&bench, &extents, &grid).expect("golden");
        let machine = accelerate(&bench, &extents, &grid).expect("machine");
        prop_assert_eq!(&machine.outputs, &golden, "machine vs golden");

        let spec = bench.spec_for(&extents).expect("spec");
        let plan = MemorySystemPlan::generate(&spec).expect("plan");
        let engine = engine_outputs(&banded(&plan, tiles), &grid, ExecMode::InCore, 0)?;
        prop_assert_eq!(&engine, &golden, "engine({} tiles) vs golden", tiles);
    }

    /// On Appendix 9.4 tradeoff plans the engine's default sharding
    /// (one band per off-chip stream) stays exact, and its reported
    /// off-chip traffic never undercounts the input domain.
    #[test]
    fn engine_matches_golden_on_tradeoff_plans(
        offs in prop::collection::btree_set(((-2i64..=2), (-2i64..=2)), 2..=6),
        rows in 10i64..20,
        cols in 10i64..20,
        streams_pick in 0usize..6,
        seed in 0u64..1_000_000,
    ) {
        let offs: Vec<(i64, i64)> = offs.into_iter().collect();
        let bench = bench_2d(&offs, rows, cols);
        let extents = [rows, cols];
        let grid = seeded_grid(&extents, seed);
        let golden = run_golden(&bench, &extents, &grid).expect("golden");

        let spec = bench.spec_for(&extents).expect("spec");
        let base = MemorySystemPlan::generate(&spec).expect("plan");
        let streams = 1 + streams_pick % base.port_count();
        let plan = base.with_offchip_streams(streams).expect("tradeoff");
        prop_assert_eq!(plan.offchip_streams(), streams);

        let in_idx = plan.input_domain().index().expect("input index");
        let mut in_vals = Vec::with_capacity(in_idx.len() as usize);
        let mut c = in_idx.cursor();
        while let Some(p) = c.point(&in_idx) {
            in_vals.push(grid.value_at(&p).expect("covered"));
            c.advance(&in_idx);
        }
        let input = InputGrid::new(&in_idx, &in_vals).expect("input");
        let run = Session::new(&plan)
            .kernel(SessionKernel::Closure(&weighted_sum))
            .run(&input)
            .map_err(|e| TestCaseError::fail(format!("engine: {e}")))?;

        prop_assert_eq!(&run.outputs, &golden, "{} streams", streams);
        // Sharding into k bands re-fetches halo rows, never fewer
        // elements than the input domain itself.
        let report = run.report.stages[0].engine.as_ref().expect("engine report");
        prop_assert!(report.halo_elements >= in_idx.len());
        prop_assert!(report.tiles >= 1);
        prop_assert!(report.tiles <= streams);
    }

    /// The in-core report counts each band's halo from the input index
    /// exactly as the band's halo polyhedron holds it, on random 2D
    /// windows (windows on one side of the origin included) and their
    /// 1-D projections.
    #[test]
    fn in_core_band_halos_match_their_halo_domains(
        offs in prop::collection::btree_set(((-2i64..=2), (-2i64..=2)), 2..=5),
        rows in 8i64..20,
        cols in 8i64..16,
        streams_pick in 0usize..5,
    ) {
        let offs: Vec<(i64, i64)> = offs.into_iter().collect();
        let mut taps: Vec<i64> = offs.iter().map(|&(a, _)| a).collect();
        taps.dedup();
        let line = Benchmark::new(
            "PROP1D",
            vec![3 * rows],
            taps.iter().map(|&a| Point::new(&[a])).collect(),
            KernelOps::default(),
            weighted_sum,
        );
        for bench in [bench_2d(&offs, rows, cols), line] {
            let spec = bench.spec_for(bench.extents()).expect("spec");
            let base = MemorySystemPlan::generate(&spec).expect("plan");
            let streams = 1 + streams_pick % base.port_count();
            let plan = base.with_offchip_streams(streams).expect("tradeoff");
            let in_idx = plan.input_domain().index().expect("input index");
            let vals: Vec<f64> = (0..in_idx.len()).map(|r| r as f64).collect();
            let input = InputGrid::new(&in_idx, &vals).expect("input");
            let run = Session::new(&plan)
                .kernel(SessionKernel::Closure(&weighted_sum))
                .run(&input)
                .map_err(|e| TestCaseError::fail(format!("engine: {e}")))?;
            let report = run.report.stages[0].engine.as_ref().expect("engine report");
            let tiles = plan.tile_plan(streams).expect("bands");
            let halos: Vec<u64> = tiles
                .tiles()
                .iter()
                .map(|t| t.halo_domain.count().expect("count"))
                .collect();
            let counted: Vec<u64> = report.per_tile.iter().map(|t| t.halo_elements).collect();
            prop_assert_eq!(counted, halos, "{} over {} streams", bench.name(), streams);
        }
    }

    /// The bounded-memory streaming path agrees bit-for-bit with the
    /// in-core engine at every chunk size and thread count, and its
    /// measured peak residency honors the planned halo bound.
    #[test]
    fn streaming_matches_in_core_2d(
        offs in prop::collection::btree_set(((-2i64..=2), (-2i64..=2)), 2..=6),
        rows in 8i64..20,
        cols in 8i64..20,
        chunk in 1u64..=10,
        threads in 1usize..=4,
        seed in 0u64..1_000_000,
    ) {
        let offs: Vec<(i64, i64)> = offs.into_iter().collect();
        let bench = bench_2d(&offs, rows, cols);
        let extents = [rows, cols];
        let grid = seeded_grid(&extents, seed);
        let spec = bench.spec_for(&extents).expect("spec");
        let plan = MemorySystemPlan::generate(&spec).expect("plan");
        let in_core = engine_outputs(&plan, &grid, ExecMode::InCore, 0)?;

        let in_idx = plan.input_domain().index().expect("input index");
        let mut in_vals = Vec::with_capacity(in_idx.len() as usize);
        let mut c = in_idx.cursor();
        while let Some(p) = c.point(&in_idx) {
            in_vals.push(grid.value_at(&p).expect("covered"));
            c.advance(&in_idx);
        }
        let mut source = SliceSource::new(&in_vals);
        let mut sink = VecSink::new();
        let report = Session::new(&plan)
            .kernel(SessionKernel::Closure(&weighted_sum))
            .mode(ExecMode::Streaming { chunk_rows: Some(chunk) })
            .threads(threads)
            .run_streaming(&mut source, &mut sink)
            .map_err(|e| TestCaseError::fail(format!("streaming: {e}")))?;
        prop_assert_eq!(&sink.values, &in_core, "chunk={} threads={}", chunk, threads);
        prop_assert!(
            report.within_residency_bound(),
            "peak {} > bound {}", report.peak_resident, report.resident_bound
        );
        let stage = report.stages[0].stream.as_ref().expect("stream report");
        prop_assert_eq!(stage.values_in <= in_idx.len(), true);
    }

    /// Neither execution path may panic, whatever the spec shape, band
    /// count, thread count, or input consistency: oversized domains,
    /// scrambled hand-built indexes, and short value buffers must all
    /// surface as `Err`, never as an abort.
    #[test]
    fn engine_and_streaming_never_panic(
        offs in prop::collection::btree_set(((-2i64..=2), (-2i64..=2)), 1..=6),
        rows in 6i64..16,
        cols in 6i64..16,
        tiles in 1usize..=10,
        threads in 1usize..=4,
        chunk in 0u64..=20,
        scramble in 0usize..=3,
        seed in 0u64..1_000_000,
    ) {
        let offs: Vec<(i64, i64)> = offs.into_iter().collect();
        let bench = bench_2d(&offs, rows, cols);
        let spec = bench.spec_for(&[rows, cols]).expect("spec");
        let plan = MemorySystemPlan::generate(&spec).expect("plan");
        let in_idx = plan.input_domain().index().expect("input index");
        let mut idx_rows = in_idx.rows().to_vec();
        match scramble {
            // Shift one row left: same point count, broken coverage.
            1 if !idx_rows.is_empty() => {
                let k = (seed as usize) % idx_rows.len();
                idx_rows[k].lo -= 1;
                idx_rows[k].hi -= 1;
            }
            // Swap two bases: rank order inverts lexicographic order.
            2 if idx_rows.len() > 1 => {
                let k = (seed as usize) % (idx_rows.len() - 1);
                let b = idx_rows[k].base;
                idx_rows[k].base = idx_rows[k + 1].base;
                idx_rows[k + 1].base = b;
            }
            _ => {}
        }
        let idx = DomainIndex::from_rows(in_idx.dims(), idx_rows);
        // Case 3 starves the value buffer by one element.
        let n = if scramble == 3 { idx.len().saturating_sub(1) } else { idx.len() };
        let vals: Vec<f64> = (0..n).map(|r| r as f64 * 0.5 - 3.0).collect();

        let caught = catch_unwind(AssertUnwindSafe(|| {
            InputGrid::new(&idx, &vals).and_then(|input| {
                Session::new(&banded(&plan, tiles))
                    .kernel(SessionKernel::Closure(&weighted_sum))
                    .mode(ExecMode::InCore)
                    .threads(threads)
                    .run(&input)
            })
        }));
        prop_assert!(caught.is_ok(), "in-core session panicked (scramble={})", scramble);

        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut source = SliceSource::new(&vals);
            let mut sink = VecSink::new();
            Session::new(&plan)
                .kernel(SessionKernel::Closure(&weighted_sum))
                .mode(ExecMode::Streaming {
                    chunk_rows: if chunk > 0 { Some(chunk) } else { None },
                })
                .threads(threads)
                .run_streaming(&mut source, &mut sink)
        }));
        prop_assert!(caught.is_ok(), "streaming session panicked (scramble={})", scramble);
    }

    /// Every suite benchmark's expression compiles to bytecode that is
    /// bit-identical to its authoring closure on arbitrary windows
    /// (NaNs compare equal) — the compiled datapath is a drop-in
    /// replacement for the authored one on all twelve kernels.
    #[test]
    fn compiled_suite_kernels_match_closures_on_arbitrary_windows(
        raw in prop::collection::vec(-4_000_000_000i64..4_000_000_000, 8..=48),
    ) {
        for bench in paper_suite().into_iter().chain(extra_suite()) {
            let ck = CompiledKernel::for_benchmark(&bench)
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", bench.name())))?
                .expect("every suite benchmark carries an expression");
            let compute = bench.compute_fn();
            let window: Vec<f64> = (0..bench.window().len())
                .map(|i| raw[i % raw.len()] as f64 / 1e6)
                .collect();
            let got = ck.eval(&window);
            let want = compute(&window);
            prop_assert!(
                got == want || (got.is_nan() && want.is_nan()),
                "{}: bytecode {:?} vs closure {:?} on {:?}",
                bench.name(), got, want, window
            );
        }
    }

    /// Every compiled row sweep is bit-identical to the authored
    /// closure on every suite kernel, whatever the grid shape, thread
    /// count, and streaming chunk height: the built-in kernel's native
    /// row body, and the register program of a `compile_checked` copy
    /// without one, each in core and streaming. The varying extents
    /// exercise rows shorter than one lane chunk and the overlapping
    /// last chunk.
    #[test]
    fn unrolled_sweeps_match_closure_on_all_suite_kernels(
        s0 in 0i64..=10,
        s1 in 0i64..=10,
        s2 in 0i64..=5,
        threads in 1usize..=3,
        chunk in 1u64..=6,
        seed in 0u64..1_000_000,
    ) {
        for bench in paper_suite().into_iter().chain(extra_suite()) {
            let extents = suite_extents(&bench, &[s0, s1, s2]);
            let grid = seeded_grid(&extents, seed);
            let spec = bench.spec_for(&extents).expect("spec");
            let plan = MemorySystemPlan::generate(&spec).expect("plan");
            let in_idx = plan.input_domain().index().expect("input index");
            let in_vals = domain_values(&plan, &grid);
            let input = InputGrid::new(&in_idx, &in_vals).expect("input");
            let compute = bench.compute_fn();

            let closure = Session::new(&plan)
                .kernel(SessionKernel::Closure(&compute))
                .run(&input)
                .map_err(|e| TestCaseError::fail(format!("{}: closure: {e}", bench.name())))?
                .outputs;
            let native = CompiledKernel::for_benchmark(&bench)
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", bench.name())))?
                .expect("every suite benchmark carries an expression");
            let program = CompiledKernel::compile_checked(
                bench.expr().expect("every suite benchmark carries an expression"),
                bench.window().len(),
                &compute,
            )
            .map_err(|e| TestCaseError::fail(format!("{}: {e}", bench.name())))?;

            for (body, ck) in [("native", &native), ("program", &program)] {
                let incore = Session::new(&plan)
                    .kernel(SessionKernel::Compiled(ck))
                    .threads(threads)
                    .run(&input)
                    .map_err(|e| TestCaseError::fail(
                        format!("{}: {body}: {e}", bench.name())))?
                    .outputs;
                prop_assert_eq!(
                    &incore, &closure,
                    "{}: {} in core ({} threads) vs closure", bench.name(), body, threads
                );

                let mut source = SliceSource::new(&in_vals);
                let mut sink = VecSink::new();
                Session::new(&plan)
                    .kernel(SessionKernel::Compiled(ck))
                    .mode(ExecMode::Streaming { chunk_rows: Some(chunk) })
                    .run_streaming(&mut source, &mut sink)
                    .map_err(|e| TestCaseError::fail(
                        format!("{}: {body} streaming: {e}", bench.name())))?;
                prop_assert_eq!(
                    &sink.values, &closure,
                    "{}: {} streaming (chunk={}) vs closure", bench.name(), body, chunk
                );
            }
        }
    }

    /// Heterogeneous temporal chains over random window *pairs*: the
    /// fused two-stage streaming pipeline reassembles bit-identically
    /// to sequentially materialised stages, and every stage's observed
    /// peak residency stays within its own declared per-stage bound
    /// (whose sum in turn covers the whole session's peak).
    #[test]
    fn mixed_window_chains_stay_within_per_stage_bounds(
        offs1 in prop::collection::btree_set(((-2i64..=2), (-2i64..=2)), 2..=6),
        offs2 in prop::collection::btree_set(((-2i64..=2), (-2i64..=2)), 2..=6),
        rows in 14i64..24,
        cols in 14i64..24,
        chunk in 1u64..=6,
        threads in 1usize..=3,
        seed in 0u64..1_000_000,
    ) {
        let offs1: Vec<(i64, i64)> = offs1.into_iter().collect();
        let offs2: Vec<(i64, i64)> = offs2.into_iter().collect();
        let bench = bench_2d(&offs1, rows, cols);
        let extents = [rows, cols];
        let grid = seeded_grid(&extents, seed);
        let spec = bench.spec_for(&extents).expect("spec");
        let plan = MemorySystemPlan::generate(&spec).expect("plan");

        let window2: Vec<Point> = offs2.iter().map(|&(a, b)| Point::new(&[a, b])).collect();
        let stage2 = KernelStage::new("st2", window2, weighted_sum);

        // Some random pairs legitimately do not chain (the downstream
        // stage's dilation of the eroded domain misses upstream rows);
        // `then` rejects those with the typed Config error — skip them.
        let session = Session::new(&plan)
            .kernel(SessionKernel::Closure(&weighted_sum))
            .mode(ExecMode::Streaming { chunk_rows: Some(chunk) })
            .threads(threads);
        let session = match session.then(&stage2) {
            Ok(s) => s,
            Err(EngineError::Config { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("then: {e}"))),
        };

        // Sequential reference: materialise the intermediate grid.
        let in_idx = plan.input_domain().index().expect("input index");
        let in_vals = domain_values(&plan, &grid);
        let input = InputGrid::new(&in_idx, &in_vals).expect("input");
        let first = Session::new(&plan)
            .kernel(SessionKernel::Closure(&weighted_sum))
            .run(&input)
            .map_err(|e| TestCaseError::fail(format!("stage 1: {e}")))?
            .outputs;
        let next = plan
            .chain_next("st2", stage2.window())
            .map_err(|e| TestCaseError::fail(format!("chain_next: {e}")))?;
        let mid_idx = next.input_domain().index().expect("mid index");
        let mid = InputGrid::new(&mid_idx, &first).expect("intermediate");
        let golden = Session::new(&next)
            .kernel(SessionKernel::Closure(&weighted_sum))
            .run(&mid)
            .map_err(|e| TestCaseError::fail(format!("stage 2: {e}")))?
            .outputs;

        // Fused heterogeneous chain, streaming at a random chunk.
        let mut source = SliceSource::new(&in_vals);
        let mut sink = VecSink::new();
        let report = session
            .run_streaming(&mut source, &mut sink)
            .map_err(|e| TestCaseError::fail(format!("chained streaming: {e}")))?;
        prop_assert_eq!(&sink.values, &golden, "chunk={} threads={}", chunk, threads);

        let mut summed = 0u64;
        for s in &report.stages {
            let sm = s.stream.as_ref().expect("stream report");
            prop_assert!(
                sm.peak_resident <= s.resident_bound,
                "stage {}: peak {} > declared bound {}",
                s.label, sm.peak_resident, s.resident_bound
            );
            summed += s.resident_bound;
        }
        prop_assert!(
            report.peak_resident <= summed,
            "session peak {} > summed per-stage bounds {}",
            report.peak_resident, summed
        );
        prop_assert!(report.within_residency_bound());
    }

    /// The compiled row-sweep executor and the scalar bytecode
    /// interpreter both agree bit-for-bit with the closure engine on
    /// random 2D windows, grids, band counts, and thread counts — and
    /// the compiled streaming path matches them all.
    #[test]
    fn compiled_engine_matches_closure_engine_2d(
        offs in prop::collection::btree_set(((-2i64..=2), (-2i64..=2)), 2..=6),
        rows in 8i64..20,
        cols in 8i64..20,
        tiles in 1usize..=6,
        threads in 1usize..=4,
        chunk in 1u64..=8,
        seed in 0u64..1_000_000,
    ) {
        let offs: Vec<(i64, i64)> = offs.into_iter().collect();
        let bench = bench_2d(&offs, rows, cols);
        let extents = [rows, cols];
        let grid = seeded_grid(&extents, seed);
        let spec = bench.spec_for(&extents).expect("spec");
        let plan = MemorySystemPlan::generate(&spec).expect("plan");

        let kernel = CompiledKernel::compile_checked(
            &weighted_expr(offs.len()),
            offs.len(),
            &weighted_sum,
        )
        .map_err(|e| TestCaseError::fail(format!("compile: {e}")))?;

        let closure = engine_outputs(&banded(&plan, tiles), &grid, ExecMode::InCore, threads)?;

        let in_idx = plan.input_domain().index().expect("input index");
        let mut in_vals = Vec::with_capacity(in_idx.len() as usize);
        let mut c = in_idx.cursor();
        while let Some(p) = c.point(&in_idx) {
            in_vals.push(grid.value_at(&p).expect("covered"));
            c.advance(&in_idx);
        }
        let input = InputGrid::new(&in_idx, &in_vals).expect("input");

        let swept = Session::new(&banded(&plan, tiles))
            .kernel(SessionKernel::Compiled(&kernel))
            .mode(ExecMode::InCore)
            .threads(threads)
            .run(&input)
            .map_err(|e| TestCaseError::fail(format!("sweep: {e}")))?;
        prop_assert_eq!(
            &swept.outputs, &closure,
            "sweep vs closure ({} tiles, {} threads)", tiles, threads
        );

        let scalar = Session::new(&banded(&plan, tiles))
            .kernel(SessionKernel::Compiled(&kernel))
            .backend(KernelBackend::Closure)
            .mode(ExecMode::InCore)
            .threads(threads)
            .run(&input)
            .map_err(|e| TestCaseError::fail(format!("scalar: {e}")))?;
        prop_assert_eq!(&scalar.outputs, &closure, "scalar bytecode vs closure");

        let mut source = SliceSource::new(&in_vals);
        let mut sink = VecSink::new();
        Session::new(&plan)
            .kernel(SessionKernel::Compiled(&kernel))
            .mode(ExecMode::Streaming { chunk_rows: Some(chunk) })
            .threads(threads)
            .run_streaming(&mut source, &mut sink)
            .map_err(|e| TestCaseError::fail(format!("streaming: {e}")))?;
        prop_assert_eq!(
            &sink.values, &closure,
            "compiled streaming vs closure (chunk={})", chunk
        );
    }
}
