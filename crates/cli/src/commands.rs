//! The CLI's subcommand implementations, kept separate from argument
//! handling so they are directly testable.

use std::fmt::Write as _;

use stencil_core::{
    verify_plan, MappingPolicy, MemorySystemPlan, ModuloSchedulePlan, ReuseAnalysis, StencilSpec,
};
use stencil_engine::{
    pack_grid, CompiledKernel, EngineError, ExecMode, InputGrid, KernelBackend, MappedGrid,
    MmapSink, MmapSource, Session, SessionKernel, SessionRun, SliceSource, VecSink,
};
use stencil_fpga::{estimate_nonuniform, estimate_uniform};
use stencil_kernels::{KernelExpr, KernelOps, KernelStage};
use stencil_sim::{trace_to_vcd, Machine};
use stencil_telemetry::{validate_report, MetricsReport};
use stencil_uniform::{best_uniform, multidim_cyclic, survey, unpartitioned};

/// A command error: human-readable message, exit-code 1 semantics.
pub type CmdError = Box<dyn std::error::Error + Send + Sync>;

/// `stencil plan`: generate and verify the memory system; render the
/// Table 2-style report.
///
/// # Errors
///
/// Propagates planning/analysis failures.
pub fn cmd_plan(spec: &StencilSpec) -> Result<String, CmdError> {
    // The closed-form plan first: it refuses a box too large for 64-bit
    // ranks before the analysis starts walking its rows.
    let plan = MemorySystemPlan::generate(spec)?;
    let analysis = ReuseAnalysis::of(spec)?;
    let report = verify_plan(&plan, &analysis);
    let mut out = String::new();
    let _ = writeln!(out, "{plan}");
    let _ = writeln!(out, "{report}");
    let _ = writeln!(
        out,
        "linearity of max reuse distances holds: {}",
        analysis.linearity_holds()
    );
    match ModuloSchedulePlan::try_from_analysis(&analysis, &MappingPolicy::default()) {
        Ok(m) => {
            let _ = writeln!(
                out,
                "modulo-scheduled alternative: feasible ({} banks, delays {:?})",
                m.bank_count(),
                m.delays()
            );
        }
        Err(e) => {
            let _ = writeln!(out, "modulo-scheduled alternative: infeasible ({e})");
        }
    }
    Ok(out)
}

/// `stencil simulate`: run the design cycle-accurately, check the
/// paper's bounds against the live counters, and optionally emit a VCD
/// of the first `trace_cycles` cycles. The third result element is the
/// telemetry report as JSON (for `--metrics-out`); the fourth is the
/// validator's violation count, which drives the process exit code.
///
/// # Errors
///
/// Propagates planning and simulation failures.
pub fn cmd_simulate(
    spec: &StencilSpec,
    streams: usize,
    trace_cycles: usize,
) -> Result<(String, Option<String>, String, usize), CmdError> {
    let plan = MemorySystemPlan::generate(spec)?.with_offchip_streams(streams)?;
    let mut machine = Machine::new(&plan)?;
    machine.enable_occupancy_sampling();
    if trace_cycles > 0 {
        machine.enable_trace(0, trace_cycles);
    }
    let stats = machine.run(1_u64 << 34)?;
    let mut out = String::new();
    let _ = writeln!(out, "{stats}");
    let _ = writeln!(
        out,
        "bandwidth-limited: {} (ideal {} cycles)",
        stats.fully_pipelined(),
        stats.ideal_cycles
    );
    let mut report = MetricsReport::new(spec.name());
    report.machine = Some(machine.metrics());
    let violations = append_bound_checks(&mut out, &report);
    let vcd = machine
        .trace(0)
        .filter(|t| !t.is_empty())
        .map(|t| trace_to_vcd(t, spec.name(), 5.0));
    Ok((out, vcd, report.to_json(), violations))
}

/// Renders the validator's verdict on a telemetry report and returns
/// the violation count (the CLI exits non-zero when it is positive).
fn append_bound_checks(out: &mut String, report: &MetricsReport) -> usize {
    let violations = validate_report(report);
    if violations.is_empty() {
        let _ = writeln!(out, "runtime bound checks: all passed");
    } else {
        let _ = writeln!(out, "runtime bound checks: {} FAILED", violations.len());
        for v in &violations {
            let _ = writeln!(out, "  violation: {v}");
        }
    }
    violations.len()
}

/// `stencil engine`: execute the kernel through the unified [`Session`]
/// layer on a deterministic input grid, cross-check the result against
/// a direct nested-loop evaluation, and report throughput per band.
/// With `streaming`, additionally run the bounded-memory streaming mode
/// (band height `chunk_rows`) and verify it bit-exact against the
/// in-core run. With `chain`, append one temporally chained stage per
/// name and verify the pipeline against running the stages
/// sequentially. With `iterate`, apply the kernel to its own output for
/// the requested number of time steps as a self-chained ring and verify
/// it against sequential materialized runs — or, with `epsilon`, stop
/// early once the per-step max-abs delta falls under the threshold. The
/// second result element is the telemetry report as JSON (for
/// `--metrics-out`); the third is the validator's violation count,
/// which drives the exit code.
///
/// With `input_grid`, the input values come from a packed `.sgrid`
/// file instead of the deterministic generator: the file is
/// memory-mapped ([`MappedGrid`]) and both the in-core run and the
/// streaming run read the mapping directly — the streaming path pulls
/// zero payload copies, which the session's grid-io telemetry records.
/// With `output_grid` (streaming only), output rows are written
/// sequentially into an `.sgrid` file ([`MmapSink`], header last) and
/// the file is re-opened afterwards to verify it bit-exact against the
/// in-core outputs. The output must not be the input file, under any
/// name.
///
/// The datapath is the spec-file fallback (plain window sum), since a
/// spec file carries window geometry but no arithmetic. With
/// `backend == Compiled` (the default) the sum is authored as a
/// [`KernelExpr`], compiled to stack bytecode validated against the
/// closure, and executed through the register-program row sweep;
/// `Closure` keeps the original per-window call. The run must match a
/// direct loop bit for bit; `crosscheck` runs *both* backends and
/// demands bit-identical outputs.
///
/// # Errors
///
/// Propagates planning and engine failures, and reports any mismatch
/// against the direct loop or between the two execution paths.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub fn cmd_engine(
    spec: &StencilSpec,
    streams: usize,
    threads: usize,
    streaming: bool,
    chunk_rows: Option<u64>,
    backend: KernelBackend,
    crosscheck: bool,
    chain: &[String],
    iterate: Option<usize>,
    epsilon: Option<f64>,
    input_grid: Option<&std::path::Path>,
    output_grid: Option<&std::path::Path>,
) -> Result<(String, String, usize), CmdError> {
    if iterate.is_some() && !chain.is_empty() {
        return Err("--iterate cannot be combined with --chain; \
                    the ring is already a temporal chain of the kernel with itself"
            .into());
    }
    if output_grid.is_some() && !streaming {
        return Err("--output-grid needs --streaming; only the streaming \
                    path writes rows through an `.sgrid` sink"
            .into());
    }
    if let (Some(input), Some(output)) = (input_grid, output_grid) {
        // Sizing the sink would cut the mapped input under the run and
        // overwrite the values it reads.
        if same_file(input, output) {
            return Err(EngineError::Sink {
                detail: format!(
                    "output grid {} is also the input grid; write the output to another path",
                    output.display()
                ),
            }
            .into());
        }
    }
    let plan = MemorySystemPlan::generate(spec)?.with_offchip_streams(streams)?;
    let in_idx = plan.input_domain().index()?;

    // Input values: a memory-mapped `.sgrid` file when given, otherwise
    // deterministic pseudo-random values in rank order.
    let mapped_input = match input_grid {
        Some(path) => {
            let grid = MappedGrid::open(path)
                .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
            let bb = in_idx
                .bounding_box()
                .ok_or("the plan's input domain is empty")?;
            let want: Vec<u64> = bb.iter().map(|&(lo, hi)| (hi - lo + 1) as u64).collect();
            if grid.header().extents() != want.as_slice() {
                return Err(format!(
                    "{}: grid extents {:?} do not match the plan's input domain extents {want:?}",
                    path.display(),
                    grid.header().extents(),
                )
                .into());
            }
            Some(grid)
        }
        None => None,
    };
    let generated: Vec<f64>;
    let in_vals: &[f64] = if let Some(grid) = &mapped_input {
        grid.values()
    } else {
        let mut state = 0x5EED_BA5E_D00Du64;
        generated = (0..in_idx.len())
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005u64)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as f64) / 256.0
            })
            .collect();
        &generated
    };
    let input = InputGrid::new(&in_idx, in_vals)?;
    let compute = stencil_kernels::default_compute();

    // The spec-file datapath as an expression: compile it to bytecode,
    // validated bit-for-bit against the closure it mirrors.
    let kernel = CompiledKernel::compile_checked(
        &KernelExpr::window_sum(spec.window_size()),
        spec.window_size(),
        &compute,
    )?;

    let mode = ExecMode::InCore;
    let kernel_for = |backend| match backend {
        KernelBackend::Compiled => SessionKernel::Compiled(&kernel),
        KernelBackend::Closure => SessionKernel::Closure(&compute),
    };
    let session_kernel = kernel_for(backend);
    let run = Session::new(&plan)
        .kernel(session_kernel)
        .backend(backend)
        .mode(mode)
        .threads(threads)
        .run(&input)?;
    let engine_report = run.report.stages[0]
        .engine
        .clone()
        .ok_or("session produced no in-core stage report")?;

    // Cross-check against a direct nested loop in declared offset
    // order: the run must reproduce it bit for bit.
    let iter_idx = spec.iteration_domain().index()?;
    let mut expected = Vec::with_capacity(run.outputs.len());
    let mut cur = iter_idx.cursor();
    let mut window = vec![0.0; spec.window_size()];
    while let Some(p) = cur.point(&iter_idx) {
        for (slot, off) in window.iter_mut().zip(spec.offsets()) {
            *slot = input
                .value_at(&(p + *off))
                .ok_or_else(|| format!("input domain misses {:?}", p + *off))?;
        }
        expected.push(compute(&window));
        cur.advance(&iter_idx);
    }
    let rank = expected.len();
    if let Some(k) = (0..rank).find(|&k| run.outputs[k] != expected[k]) {
        return Err(format!(
            "engine mismatch at output rank {k}: got {}, direct loop says {}",
            run.outputs[k], expected[k]
        )
        .into());
    }

    let mut out = String::new();
    let _ = write!(out, "{engine_report}");
    let _ = writeln!(
        out,
        "fetch overhead vs single band: {:.3}x",
        engine_report.fetch_overhead(in_idx.len())
    );
    let _ = writeln!(out, "verified against direct loop: {rank} outputs match");
    let mut report = MetricsReport::new(spec.name());
    report.sessions.push(run.report.metrics());

    if crosscheck {
        // Run the *other* backend over the same plan: the two must
        // agree bit for bit.
        let other_backend = match backend {
            KernelBackend::Compiled => KernelBackend::Closure,
            KernelBackend::Closure => KernelBackend::Compiled,
        };
        let other = Session::new(&plan)
            .kernel(kernel_for(other_backend))
            .backend(other_backend)
            .mode(mode)
            .threads(threads)
            .run(&input)?;
        if other.outputs != run.outputs {
            return Err("cross-check failed: compiled and closure backends diverge".into());
        }
        let _ = writeln!(
            out,
            "cross-check compiled vs closure: {} outputs bit-identical",
            run.outputs.len()
        );
    }

    if streaming {
        // Mapped inputs stream straight off the page cache; plain runs
        // keep the in-memory slice source.
        let mut source: Box<dyn stencil_engine::RowSource> = match &mapped_input {
            Some(grid) => Box::new(MmapSource::from_grid(grid.clone())),
            None => Box::new(SliceSource::new(in_vals)),
        };
        let session = Session::new(&plan)
            .kernel(session_kernel)
            .backend(backend)
            .mode(ExecMode::Streaming { chunk_rows })
            .threads(threads);
        let stream = match output_grid {
            Some(path) => {
                let out_bb = iter_idx
                    .bounding_box()
                    .ok_or("the iteration domain is empty")?;
                let out_extents: Vec<u64> = out_bb
                    .iter()
                    .map(|&(lo, hi)| (hi - lo + 1) as u64)
                    .collect();
                let mut sink = MmapSink::create(path, &out_extents)
                    .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
                let stream = session.run_streaming(&mut source, &mut sink)?;
                // Re-open the finished file: the bytes on disk, not the
                // in-flight buffer, must match the in-core run.
                let written = MappedGrid::open(path)?;
                if written.values() != run.outputs.as_slice() {
                    return Err(format!(
                        "{}: streamed output grid diverged from the in-core run",
                        path.display()
                    )
                    .into());
                }
                let _ = writeln!(
                    out,
                    "output grid written to {} ({} values, verified bit-exact)",
                    path.display(),
                    written.values().len()
                );
                stream
            }
            None => {
                let mut sink = VecSink::new();
                let stream = session.run_streaming(&mut source, &mut sink)?;
                if sink.values != run.outputs {
                    return Err("streaming run diverged from the in-core run".into());
                }
                let _ = writeln!(
                    out,
                    "verified streaming against in-core: {} outputs match",
                    sink.values.len()
                );
                stream
            }
        };
        let stream_report = stream.stages[0]
            .stream
            .clone()
            .ok_or("session produced no streaming stage report")?;
        let _ = write!(out, "{stream_report}");
        if let Some(io) = &stream.grid_io {
            let _ = writeln!(out, "{io}");
        }
        report.sessions.push(stream.metrics());
    }

    let fused = Fused {
        plan: &plan,
        input: &input,
        spec,
        kernel: session_kernel,
        backend,
        threads,
        streaming,
        chunk_rows,
    };
    if !chain.is_empty() {
        report.sessions.push(run_chain(&fused, chain, &mut out)?);
    }
    if let Some(steps) = iterate {
        report
            .sessions
            .push(run_iterate(&fused, steps, epsilon, &mut out)?);
    }

    let violations = append_bound_checks(&mut out, &report);
    Ok((out, report.to_json(), violations))
}

/// Whether `a` and `b` name one existing file. On unix this compares
/// device and inode, which also catches a hard link; elsewhere it
/// compares canonical paths, which catches symlinks and `.` or `..`.
fn same_file(a: &std::path::Path, b: &std::path::Path) -> bool {
    #[cfg(unix)]
    let id = |p: &std::path::Path| {
        use std::os::unix::fs::MetadataExt;
        std::fs::metadata(p).ok().map(|m| (m.dev(), m.ino()))
    };
    #[cfg(not(unix))]
    let id = |p: &std::path::Path| std::fs::canonicalize(p).ok();
    id(a).is_some_and(|i| id(b) == Some(i))
}

/// The spec's kernel as `cmd_engine` configured it, for the fused
/// `--chain` and `--iterate` runs it verifies.
struct Fused<'p> {
    plan: &'p MemorySystemPlan,
    input: &'p InputGrid<'p>,
    spec: &'p StencilSpec,
    kernel: SessionKernel<'p>,
    backend: KernelBackend,
    threads: usize,
    streaming: bool,
    chunk_rows: Option<u64>,
}

impl<'p> Fused<'p> {
    /// A single-stage session over the spec's plan and kernel, in core
    /// or streaming as configured.
    fn session(&self) -> Session<'p> {
        let mode = if self.streaming {
            ExecMode::Streaming {
                chunk_rows: self.chunk_rows,
            }
        } else {
            ExecMode::InCore
        };
        Session::new(self.plan)
            .kernel(self.kernel)
            .backend(self.backend)
            .mode(mode)
            .threads(self.threads)
    }

    /// Runs the fused `session`, verifies it bit-exact against folding
    /// the spec's single-stage run through `stages` one materialized
    /// grid at a time ([`sequential_fold`]), and writes its report to
    /// `out`. With a `planned_bound`, also writes the `{what} residency`
    /// line and fails when the peak exceeds the bound. A divergence
    /// fails with `diverged`.
    fn verify(
        &self,
        session: &Session<'_>,
        stages: &[KernelStage],
        planned_bound: Option<u64>,
        what: &str,
        diverged: &str,
        out: &mut String,
    ) -> Result<SessionRun, CmdError> {
        let run = session.run(self.input)?;
        let first = Session::new(self.plan)
            .kernel(self.kernel)
            .backend(self.backend)
            .run(self.input)?
            .outputs;
        if run.outputs != sequential_fold(self.plan, first, stages)? {
            return Err(diverged.into());
        }
        let _ = write!(out, "{}", run.report);
        if let Some(bound) = planned_bound {
            let peak = run.report.peak_resident;
            let _ = writeln!(
                out,
                "{what} residency: peak {peak} values, planned bound {bound}"
            );
            if peak > bound {
                return Err(format!(
                    "{what} peak residency {peak} exceeds the planned bound {bound}"
                )
                .into());
            }
        }
        Ok(run)
    }
}

/// Runs the iterated time-stepping ring for `cmd_engine`: the spec's
/// kernel applied to its own output for `steps` time steps through
/// [`Session::iterate`], verified bit-exact against folding the grid
/// through one materialized single-step run per time step. With
/// `epsilon`, runs [`Session::iterate_until`] instead and reports
/// whether the per-step max-abs delta converged within the step budget
/// (the spec-file window-sum datapath is expansive, so expect
/// convergence only for loose thresholds).
fn run_iterate(
    fused: &Fused<'_>,
    steps: usize,
    epsilon: Option<f64>,
    out: &mut String,
) -> Result<stencil_telemetry::SessionMetrics, CmdError> {
    if let Some(eps) = epsilon {
        let run = fused.session().iterate_until(fused.input, eps, steps)?;
        let it = run
            .report
            .iterate
            .clone()
            .ok_or("iterate_until produced no iterate report")?;
        let _ = write!(out, "{}", run.report);
        let _ = writeln!(
            out,
            "convergence: {} after {} of {} step(s) (epsilon {eps}, final delta {:.6e})",
            if it.converged {
                "reached"
            } else {
                "NOT reached"
            },
            it.steps,
            it.max_steps,
            it.final_delta
        );
        return Ok(run.report.metrics());
    }

    let session = fused.session().iterate(steps)?;
    let planned_bound = fused
        .streaming
        .then(|| session.planned_residency_bound(fused.chunk_rows))
        .transpose()?;
    // Each step after the first is a self-chained stage over the spec's
    // own window.
    let compute = stencil_kernels::default_compute();
    let step_stages: Vec<KernelStage> = (1..steps)
        .map(|k| {
            KernelStage::new(
                format!("{}@t{}", fused.plan.name(), k + 1),
                fused.spec.offsets().to_vec(),
                compute,
            )
        })
        .collect();
    let run = fused.verify(
        &session,
        &step_stages,
        planned_bound,
        "iterate",
        "iterated ring diverged from sequential time steps",
        out,
    )?;
    let _ = writeln!(
        out,
        "verified iterate({steps}) against sequential time steps: {} outputs match",
        run.outputs.len()
    );
    Ok(run.report.metrics())
}

/// Folds a materialized grid through one single-stage closure session
/// per chained stage, deriving each stage's eroded plan with
/// [`MemorySystemPlan::chain_next`] from that stage's *own* window.
/// Both `--chain` and `--iterate` verify their fused pipelines
/// bit-exactly against this reference.
fn sequential_fold(
    plan: &MemorySystemPlan,
    seed: Vec<f64>,
    stages: &[KernelStage],
) -> Result<Vec<f64>, CmdError> {
    let mut cur_plan = plan.clone();
    let mut cur = seed;
    for stage in stages {
        let next = cur_plan.chain_next(stage.name(), stage.window())?;
        let idx = next.input_domain().index()?;
        let grid = InputGrid::new(&idx, &cur)?;
        let f = stage.compute_fn();
        cur = Session::new(&next)
            .kernel(SessionKernel::Closure(&f))
            .run(&grid)?
            .outputs;
        cur_plan = next;
    }
    Ok(cur)
}

/// Runs the temporally chained pipeline for `cmd_engine`: one stage per
/// name in `chain` appended after the spec's kernel, executed through
/// [`Session::then`] in the requested mode, and verified bit-exact
/// against running the stages sequentially with a materialized
/// intermediate grid between each pair. A chain name that matches a
/// suite benchmark (e.g. `blur3x3`) brings that benchmark's own window
/// and datapath, so stages may be heterogeneous; other names fall back
/// to the spec's window with the window-sum datapath.
fn run_chain(
    fused: &Fused<'_>,
    chain: &[String],
    out: &mut String,
) -> Result<stencil_telemetry::SessionMetrics, CmdError> {
    let compute = stencil_kernels::default_compute();
    let spec = fused.spec;
    // A chain name naming a suite benchmark chains that benchmark's own
    // window and datapath (heterogeneous chains like
    // `--chain denoise,blur3x3`); any other name reuses the spec's
    // window with the spec-file window-sum datapath, where compiled
    // backends get the expression form so chained stages sweep too.
    let stages: Vec<KernelStage> = chain
        .iter()
        .map(|name| match stencil_kernels::find_benchmark(name) {
            Some(bench) => bench.stage(),
            None => {
                let stage = KernelStage::new(name.clone(), spec.offsets().to_vec(), compute);
                match fused.backend {
                    KernelBackend::Compiled => {
                        stage.with_expr(KernelExpr::window_sum(spec.window_size()))
                    }
                    KernelBackend::Closure => stage,
                }
            }
        })
        .collect();

    let mut session = fused.session();
    for stage in &stages {
        session = session.then(stage)?;
    }
    let planned_bound = session.planned_residency_bound(fused.chunk_rows)?;
    let run = fused.verify(
        &session,
        &stages,
        Some(planned_bound),
        "chained",
        "chained pipeline diverged from sequential stage execution",
        out,
    )?;
    let _ = writeln!(
        out,
        "stage backends: {}",
        run.report
            .stages
            .iter()
            .map(|s| format!("{}={}", s.label, s.backend))
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    let _ = writeln!(
        out,
        "verified chained pipeline against sequential stages: {} outputs match",
        run.outputs.len()
    );
    Ok(run.report.metrics())
}

/// `stencil rtl`: generate the Verilog bundle.
///
/// # Errors
///
/// Propagates planning and RTL-generation failures.
pub fn cmd_rtl(spec: &StencilSpec) -> Result<stencil_rtl::RtlBundle, CmdError> {
    let plan = MemorySystemPlan::generate(spec)?;
    let bundle = stencil_rtl::generate(&plan)?;
    let problems = bundle.lint();
    if !problems.is_empty() {
        return Err(format!("generated RTL failed lint: {problems:?}").into());
    }
    Ok(bundle)
}

/// `stencil compare`: ours vs the best uniform partitioning, with
/// resource estimates.
///
/// # Errors
///
/// Propagates planning failures.
pub fn cmd_compare(spec: &StencilSpec, extents: &[i64]) -> Result<String, CmdError> {
    let plan = MemorySystemPlan::generate(spec)?;
    let base = best_uniform(spec.offsets(), extents);
    let orig = unpartitioned(spec.offsets(), extents);
    let ops = KernelOps::default();
    let ours_est = estimate_nonuniform(&plan, ops);
    let base_est = estimate_uniform(
        &base,
        spec.window_size(),
        spec.element_bits(),
        spec.iteration_domain(),
        ops,
    );
    let mut out = String::new();
    if let Some(art) = stencil_polyhedral::render_window(spec.offsets()) {
        out.push_str(&art);
    }
    let _ = writeln!(out, "original (1 bank):      II = {}", orig.ii);
    for r in survey(spec.offsets(), extents) {
        let _ = writeln!(out, "  {r}");
    }
    let _ = writeln!(
        out,
        "best uniform:           {} banks, size {}, {}",
        base.banks, base.total_size, base_est
    );
    let _ = writeln!(
        out,
        "non-uniform (ours):     {} banks, size {}, {}",
        plan.bank_count(),
        plan.total_buffer_size(),
        ours_est
    );
    let _ = writeln!(
        out,
        "savings: {} bank(s), {} buffer elements, {} BRAM18K",
        base.banks - plan.bank_count(),
        base.total_size - plan.total_buffer_size(),
        base_est.bram18k.saturating_sub(ours_est.bram18k),
    );
    Ok(out)
}

/// `stencil suite`: the paper's benchmark suite summary — Table 4's
/// partitioning columns plus Table 5's resource estimates, in one view.
///
/// # Errors
///
/// Propagates planning failures.
pub fn cmd_suite() -> Result<String, CmdError> {
    use stencil_fpga::Table5;
    use stencil_kernels::paper_suite;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>4} | {:>9} {:>9} | {:>12} {:>12}",
        "benchmark", "n", "[8] banks", "our banks", "[8] size", "our size"
    );
    for bench in paper_suite() {
        let spec = bench.spec()?;
        let plan = MemorySystemPlan::generate(&spec)?;
        let base = multidim_cyclic(bench.window(), bench.extents());
        let _ = writeln!(
            out,
            "{:<18} {:>4} | {:>9} {:>9} | {:>12} {:>12}",
            bench.name(),
            bench.window().len(),
            base.banks,
            plan.bank_count(),
            base.total_size,
            plan.total_buffer_size()
        );
    }
    let table = Table5::build(&paper_suite())?;
    let _ = writeln!(out);
    let _ = write!(out, "{table}");
    Ok(out)
}

/// `stencil grid pack`: generate a deterministic pseudo-random grid
/// (the same LCG recipe the `engine` subcommand uses) and pack it into
/// a `.sgrid` binary file that `engine --input-grid` and `serve`
/// manifests can memory-map without parsing.
///
/// # Errors
///
/// Rejects extents whose element count overflows, and propagates
/// filesystem failures from the packer.
pub fn cmd_grid_pack(
    path: &std::path::Path,
    extents: &[u64],
    seed: u64,
) -> Result<String, CmdError> {
    let elements = extents
        .iter()
        .try_fold(1u64, |acc, &e| acc.checked_mul(e))
        .ok_or_else(|| format!("grid extents {extents:?} overflow the element count"))?;
    let elements = usize::try_from(elements)
        .map_err(|_| format!("grid extents {extents:?} exceed the address space"))?;
    let mut state = seed;
    let values: Vec<f64> = (0..elements)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005u64)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f64) / 256.0
        })
        .collect();
    pack_grid(path, extents, &values)
        .map_err(|e| format!("cannot pack {}: {e}", path.display()))?;
    Ok(format!(
        "packed {} values ({} bytes) into {} (extents {:?}, seed {seed:#x})\n",
        values.len(),
        values.len() * 8,
        path.display(),
        extents,
    ))
}

/// `stencil grid inspect`: decode and print a `.sgrid` header, then map
/// the payload and report its value range — a quick integrity check
/// that exercises the same validation path the engine uses.
///
/// # Errors
///
/// Propagates the typed format errors for missing, truncated, or
/// corrupt files.
pub fn cmd_grid_inspect(path: &std::path::Path) -> Result<String, CmdError> {
    let header =
        stencil_engine::inspect_grid(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let grid = MappedGrid::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = String::new();
    let _ = writeln!(out, "{}: sgrid v1, dtype f64le", path.display());
    let _ = writeln!(
        out,
        "extents {:?}: {} values, {} payload bytes at offset {}",
        header.extents(),
        header.elements(),
        header.payload_bytes(),
        header.payload_offset(),
    );
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in grid.values() {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let _ = writeln!(
        out,
        "value range [{lo}, {hi}], {} bytes mapped",
        grid.bytes_mapped()
    );
    Ok(out)
}

/// One parsed manifest line: a job template, possibly repeated.
struct ManifestJob {
    bench: stencil_kernels::Benchmark,
    extents: Option<Vec<i64>>,
    mode: ExecMode,
    shards: stencil_engine::ShardPolicy,
    repeat: usize,
    input: Option<std::path::PathBuf>,
}

/// Parses one job-manifest line:
///
/// ```text
/// <benchmark> [e0 e1 ...] [mode=incore|streaming[:ROWS]]
///             [shards=auto|whole|N] [repeat=N] [input=FILE.sgrid]
/// ```
///
/// Bare integers are grid extents (defaulting to the benchmark's paper
/// problem size); `#` starts a comment. With `input=`, the job's input
/// values come from a memory-mapped `.sgrid` file instead of the
/// per-line pseudo-random generator, and the file's extents must agree
/// with any explicit extents on the line.
fn parse_manifest_line(line: &str, lineno: usize) -> Result<Option<ManifestJob>, CmdError> {
    use stencil_engine::ShardPolicy;
    let line = line.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(None);
    }
    let mut tokens = line.split_whitespace();
    let name = tokens.next().expect("non-empty line has a first token");
    let bench = stencil_kernels::find_benchmark(name)
        .ok_or_else(|| format!("manifest line {lineno}: unknown benchmark `{name}`"))?;
    let mut extents: Vec<i64> = Vec::new();
    let mut mode = ExecMode::Streaming { chunk_rows: None };
    let mut shards = ShardPolicy::Auto;
    let mut repeat = 1usize;
    let mut input: Option<std::path::PathBuf> = None;
    for tok in tokens {
        if let Ok(e) = tok.parse::<i64>() {
            if e <= 0 {
                return Err(format!("manifest line {lineno}: extent {e} must be positive").into());
            }
            extents.push(e);
        } else if let Some(v) = tok.strip_prefix("mode=") {
            mode =
                match v.split_once(':') {
                    None if v == "incore" => ExecMode::InCore,
                    None if v == "streaming" => ExecMode::Streaming { chunk_rows: None },
                    Some(("streaming", rows)) => ExecMode::Streaming {
                        chunk_rows: Some(rows.parse().map_err(|_| {
                            format!("manifest line {lineno}: bad chunk rows `{rows}`")
                        })?),
                    },
                    _ => return Err(format!("manifest line {lineno}: bad mode `{v}`").into()),
                };
        } else if let Some(v) = tok.strip_prefix("shards=") {
            shards = match v {
                "auto" => ShardPolicy::Auto,
                "whole" => ShardPolicy::Whole,
                n => ShardPolicy::Fixed(
                    n.parse()
                        .map_err(|_| format!("manifest line {lineno}: bad shard count `{n}`"))?,
                ),
            };
        } else if let Some(v) = tok.strip_prefix("repeat=") {
            repeat = v
                .parse()
                .ok()
                .filter(|&r: &usize| r > 0)
                .ok_or_else(|| format!("manifest line {lineno}: bad repeat `{v}`"))?;
        } else if let Some(v) = tok.strip_prefix("input=") {
            if v.is_empty() {
                return Err(format!("manifest line {lineno}: input= needs a path").into());
            }
            input = Some(std::path::PathBuf::from(v));
        } else {
            return Err(format!("manifest line {lineno}: unknown token `{tok}`").into());
        }
    }
    Ok(Some(ManifestJob {
        bench,
        extents: if extents.is_empty() {
            None
        } else {
            Some(extents)
        },
        mode,
        shards,
        repeat,
        input,
    }))
}

/// `stencil serve`: drive a batch of grid jobs from a manifest file
/// through the sharded serving front-end
/// ([`stencil_engine::ServiceFront`]) — a worker pool of sessions
/// behind a bounded queue with residency-budget admission control.
/// Rejected submissions are retried after the front-end's
/// `retry_after` hint (so backpressure shows up in the telemetry as
/// rejections, not as dropped jobs). The second result
/// element is the aggregated telemetry report as JSON (for
/// `--metrics-out`); the third is the validator's violation count,
/// which drives the exit code.
///
/// Inputs are deterministic pseudo-random grids seeded per manifest
/// line, so repeated jobs exercise the shared plan cache with
/// bit-identical expectations — unless the line names an
/// `input=FILE.sgrid`, in which case the file is memory-mapped once and
/// every repeat (and every shard) reads the same mapping with zero
/// payload copies.
///
/// # Errors
///
/// Propagates manifest parse errors and typed engine failures; a job
/// still rejected after `SERVE_MAX_RETRIES` backoffs is an error too.
pub fn cmd_serve(
    manifest: &str,
    workers: usize,
    queue_depth: usize,
    memory_budget: u64,
) -> Result<(String, String, usize), CmdError> {
    use std::sync::Arc;
    use stencil_engine::{JobRequest, ServiceConfig, ServiceFront, Submission};

    /// Backoff attempts before a persistently rejected job is an error.
    const SERVE_MAX_RETRIES: usize = 1000;

    let mut jobs: Vec<ManifestJob> = Vec::new();
    for (i, line) in manifest.lines().enumerate() {
        if let Some(job) = parse_manifest_line(line, i + 1)? {
            jobs.push(job);
        }
    }
    if jobs.is_empty() {
        return Err("manifest lists no jobs".into());
    }

    let front = ServiceFront::new(ServiceConfig {
        workers,
        queue_depth,
        memory_budget,
        session_threads: 1,
    });
    let mut labels: Vec<String> = Vec::new();
    for (line_idx, job) in jobs.iter().enumerate() {
        let (extents, input): (Vec<i64>, stencil_engine::JobInput) = match &job.input {
            Some(path) => {
                // Map the grid file once; repeats and shards share it.
                let grid = MappedGrid::open(path)
                    .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
                let file_extents: Vec<i64> = grid
                    .header()
                    .extents()
                    .iter()
                    .map(|&e| {
                        i64::try_from(e)
                            .map_err(|_| format!("{}: extent {e} too large", path.display()))
                    })
                    .collect::<Result<_, _>>()?;
                if let Some(explicit) = &job.extents {
                    if *explicit != file_extents {
                        return Err(format!(
                            "{}: grid extents {file_extents:?} contradict the manifest \
                             extents {explicit:?}",
                            path.display()
                        )
                        .into());
                    }
                }
                (file_extents, stencil_engine::JobInput::Mapped(grid))
            }
            None => {
                let extents: Vec<i64> = job
                    .extents
                    .clone()
                    .unwrap_or_else(|| job.bench.extents().to_vec());
                // A grid whose point count overflows, or whose values
                // cannot be allocated, is a manifest error, not a panic.
                let too_large = "manifest grid too large";
                let len = extents
                    .iter()
                    .try_fold(1i64, |n, &e| n.checked_mul(e))
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or(too_large)?;
                let mut values: Vec<f64> = Vec::new();
                values.try_reserve_exact(len).map_err(|_| too_large)?;
                // Deterministic pseudo-random input, seeded per line.
                let mut state = 0x5EED_BA5E_D00Du64 ^ ((line_idx as u64) << 17);
                values.extend((0..len).map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005u64)
                        .wrapping_add(1442695040888963407);
                    ((state >> 40) as f64) / 256.0
                }));
                (extents, Arc::new(values).into())
            }
        };
        let req = JobRequest {
            benchmark: job.bench.clone(),
            extents: Some(extents),
            mode: job.mode,
            shards: job.shards,
            input,
        };
        for r in 0..job.repeat {
            let mut attempts = 0usize;
            loop {
                match front.submit(&req)? {
                    Submission::Admitted(_) => break,
                    Submission::Rejected(rej) => {
                        attempts += 1;
                        if attempts > SERVE_MAX_RETRIES {
                            return Err(format!(
                                "job {}[{r}] still rejected ({:?}) after {SERVE_MAX_RETRIES} \
                                 retries; raise --queue-depth or --memory-budget",
                                job.bench.name(),
                                rej.reason
                            )
                            .into());
                        }
                        std::thread::sleep(rej.retry_after);
                    }
                }
            }
            labels.push(format!("{}[{r}]", job.bench.name()));
        }
    }

    let outcome = front.finish();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>7} {:>12}  status",
        "job", "shards", "outputs"
    );
    let mut failed = 0usize;
    for (label, job) in labels.iter().zip(&outcome.jobs) {
        let status = match &job.error {
            None => "ok".to_string(),
            Some(e) => {
                failed += 1;
                format!("FAILED: {e}")
            }
        };
        let _ = writeln!(
            out,
            "{:<22} {:>7} {:>12}  {}",
            label,
            job.shards,
            job.outputs.len(),
            status
        );
    }
    let m = &outcome.metrics;
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "pool: {} worker(s), queue depth {}, budget {}",
        m.workers,
        m.queue_depth,
        if m.memory_budget == 0 {
            "unbounded".to_string()
        } else {
            m.memory_budget.to_string()
        }
    );
    let _ = writeln!(
        out,
        "jobs: {} submitted, {} admitted, {} rejected (retried), {} failed",
        m.jobs_submitted, m.jobs_admitted, m.jobs_rejected, m.jobs_failed
    );
    let _ = writeln!(
        out,
        "shards: {} executed, peak resident {} of {} admitted bound",
        m.shards_executed, m.peak_resident, m.admitted_bound_peak
    );
    let _ = writeln!(
        out,
        "plan cache: {} hit(s), {} miss(es), {} tile plan(s) built in sessions",
        m.plan_cache_hits, m.plan_cache_misses, m.tile_plans_built
    );
    let _ = writeln!(
        out,
        "aggregate throughput: {:.1} Melem/s",
        m.throughput / 1e6
    );

    let report = outcome.report("serve");
    let mut violations = append_bound_checks(&mut out, &report);
    if failed > 0 {
        let _ = writeln!(out, "{failed} job(s) FAILED");
        violations += failed;
    }
    Ok((out, report.to_json(), violations))
}

/// `stencil report`: a complete markdown design report — window art,
/// plan, optimality, baseline comparison, resources, and simulation.
///
/// # Errors
///
/// Propagates planning and simulation failures.
pub fn cmd_report(spec: &StencilSpec, extents: &[i64]) -> Result<String, CmdError> {
    let analysis = ReuseAnalysis::of(spec)?;
    let plan = MemorySystemPlan::generate(spec)?;
    let report = verify_plan(&plan, &analysis);
    let mut out = String::new();
    let _ = writeln!(out, "# Design report: `{}`", spec.name());
    let _ = writeln!(out);
    if let Some(art) = stencil_polyhedral::render_window(spec.offsets()) {
        let _ = writeln!(out, "## Stencil window ({} points)", spec.window_size());
        let _ = writeln!(out, "```");
        out.push_str(&art);
        let _ = writeln!(out, "```");
    }
    let _ = writeln!(out, "## Memory system");
    let _ = writeln!(out, "```");
    let _ = writeln!(out, "{plan}");
    let _ = writeln!(out, "```");
    let _ = writeln!(out, "## Optimality");
    let _ = writeln!(out, "```");
    let _ = writeln!(out, "{report}");
    let _ = writeln!(out, "```");

    let _ = writeln!(out, "## Versus uniform partitioning");
    let orig = unpartitioned(spec.offsets(), extents);
    let best = best_uniform(spec.offsets(), extents);
    let gmp = multidim_cyclic(spec.offsets(), extents);
    let _ = writeln!(out, "| design | banks | buffer | II |");
    let _ = writeln!(out, "|---|---|---|---|");
    let _ = writeln!(out, "| original | 1 | {} | {} |", orig.total_size, orig.ii);
    let _ = writeln!(
        out,
        "| [8] multidim cyclic | {} | {} | 1 |",
        gmp.banks, gmp.total_size
    );
    let _ = writeln!(
        out,
        "| best uniform | {} | {} | 1 |",
        best.banks, best.total_size
    );
    let _ = writeln!(
        out,
        "| **non-uniform (ours)** | **{}** | **{}** | 1 |",
        plan.bank_count(),
        plan.total_buffer_size()
    );

    let _ = writeln!(
        out,
        "
## Resources (synthetic Virtex-7 model)"
    );
    let ops = KernelOps::default();
    let ours = estimate_nonuniform(&plan, ops);
    let base = estimate_uniform(
        &gmp,
        spec.window_size(),
        spec.element_bits(),
        spec.iteration_domain(),
        ops,
    );
    let _ = writeln!(out, "| design | BRAM18K | slices | DSP | CP (ns) |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    let _ = writeln!(
        out,
        "| [8] | {} | {} | {} | {:.2} |",
        base.bram18k,
        base.slices(),
        base.dsps,
        base.cp_ns
    );
    let _ = writeln!(
        out,
        "| ours | {} | {} | {} | {:.2} |",
        ours.bram18k,
        ours.slices(),
        ours.dsps,
        ours.cp_ns
    );

    let _ = writeln!(
        out,
        "
## Cycle-accurate simulation"
    );
    let mut machine = Machine::new(&plan)?;
    let stats = machine.run(1_u64 << 34)?;
    let _ = writeln!(out, "```");
    let _ = writeln!(out, "{stats}");
    let _ = writeln!(
        out,
        "bandwidth-limited: {} (ideal {} cycles)",
        stats.fully_pipelined(),
        stats.ideal_cycles
    );
    let _ = writeln!(out, "```");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec_file::SpecFile;

    fn denoise_spec() -> StencilSpec {
        SpecFile::parse(
            "name denoise\ngrid 64 96\nelement_bits 16\noffset -1 0\noffset 0 -1\n\
             offset 0 0\noffset 0 1\noffset 1 0\n",
        )
        .unwrap()
        .to_spec()
        .unwrap()
    }

    #[test]
    fn plan_command_reports_optimality() {
        let out = cmd_plan(&denoise_spec()).unwrap();
        assert!(out.contains("OPTIMAL"), "{out}");
        assert!(out.contains("deadlock-free: true"), "{out}");
        assert!(
            out.contains("modulo-scheduled alternative: feasible"),
            "{out}"
        );
    }

    #[test]
    fn simulate_command_runs_and_traces() {
        let (out, vcd, metrics, violations) = cmd_simulate(&denoise_spec(), 1, 32).unwrap();
        assert!(out.contains("bandwidth-limited: true"), "{out}");
        assert!(out.contains("runtime bound checks: all passed"), "{out}");
        assert_eq!(violations, 0);
        let vcd = vcd.expect("trace requested");
        assert!(vcd.contains("$enddefinitions"), "{vcd}");
        let report = MetricsReport::parse(&metrics).unwrap();
        assert_eq!(report.name, "denoise");
        assert!(report.machine.is_some());
        assert_eq!(validate_report(&report), Vec::new());
    }

    #[test]
    fn simulate_with_tradeoff_streams() {
        let (out, vcd, metrics, violations) = cmd_simulate(&denoise_spec(), 3, 0).unwrap();
        assert!(out.contains("bandwidth-limited: true"), "{out}");
        assert!(out.contains("runtime bound checks: all passed"), "{out}");
        assert_eq!(violations, 0);
        assert!(vcd.is_none());
        let report = MetricsReport::parse(&metrics).unwrap();
        assert_eq!(report.machine.as_ref().unwrap().offchip_streams, 3);
    }

    #[test]
    fn engine_command_reports_bands_and_verifies() {
        // Default config shards one band per off-chip stream.
        let (out, metrics, violations) = cmd_engine(
            &denoise_spec(),
            3,
            2,
            false,
            None,
            KernelBackend::Compiled,
            false,
            &[],
            None,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("3 band(s)"), "{out}");
        assert!(out.contains("[compiled kernel]"), "{out}");
        assert!(out.contains("verified against direct loop"), "{out}");
        assert!(out.contains("fetch overhead"), "{out}");
        assert!(out.contains("runtime bound checks: all passed"), "{out}");
        assert_eq!(violations, 0);
        let report = MetricsReport::parse(&metrics).unwrap();
        let engine = report.sessions[0].stages[0].engine.as_ref().unwrap();
        assert_eq!(engine.tiles, 3);
        assert_eq!(engine.backend, "compiled");
        assert!(engine.throughput.is_finite());
        assert_eq!(validate_report(&report), Vec::new());

        // The band count follows the plan's off-chip streams.
        let (out, _, _) = cmd_engine(
            &denoise_spec(),
            4,
            4,
            false,
            None,
            KernelBackend::Compiled,
            false,
            &[],
            None,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("4 band(s)"), "{out}");
    }

    #[test]
    fn engine_closure_backend_crosschecks_against_compiled() {
        let (out, metrics, violations) = cmd_engine(
            &denoise_spec(),
            1,
            2,
            false,
            None,
            KernelBackend::Closure,
            true,
            &[],
            None,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("[closure kernel]"), "{out}");
        assert!(
            out.contains("cross-check compiled vs closure: 5828 outputs bit-identical"),
            "{out}"
        );
        assert_eq!(violations, 0);
        let report = MetricsReport::parse(&metrics).unwrap();
        assert_eq!(
            report.sessions[0].stages[0]
                .engine
                .as_ref()
                .unwrap()
                .backend,
            "closure"
        );
    }

    #[test]
    fn engine_streaming_mode_verifies_and_reports_residency() {
        let (out, metrics, violations) = cmd_engine(
            &denoise_spec(),
            1,
            2,
            true,
            Some(4),
            KernelBackend::Compiled,
            true,
            &[],
            None,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("streaming run:"), "{out}");
        assert!(out.contains("cross-check compiled vs closure"), "{out}");
        assert!(out.contains("verified streaming against in-core"), "{out}");
        assert!(out.contains("runtime bound checks: all passed"), "{out}");
        assert_eq!(violations, 0);
        let report = MetricsReport::parse(&metrics).unwrap();
        let stream = report.sessions[1].stages[0].stream.as_ref().unwrap();
        assert_eq!(stream.chunk_rows, 4);
        assert_eq!(stream.backend, "compiled");
        assert!(stream.sweep_rows > 0);
        assert!(stream.peak_resident <= stream.resident_bound);
        assert_eq!(stream.outputs, 62 * 94);
        assert_eq!(validate_report(&report), Vec::new());
    }

    #[test]
    fn engine_chain_flag_runs_and_verifies_the_pipeline() {
        // In-core chained run: session report plus sequential check.
        let (out, metrics, violations) = cmd_engine(
            &denoise_spec(),
            1,
            1,
            false,
            None,
            KernelBackend::Compiled,
            false,
            &["s2".into()],
            None,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("session [incore]: 2 stage(s)"), "{out}");
        assert!(
            out.contains("verified chained pipeline against sequential stages"),
            "{out}"
        );
        assert!(out.contains("runtime bound checks: all passed"), "{out}");
        assert_eq!(violations, 0);
        let report = MetricsReport::parse(&metrics).unwrap();
        let session = &report.sessions[1];
        assert_eq!(session.mode, "incore");
        assert_eq!(session.stages.len(), 2);
        assert_eq!(session.stages[1].label, "s2");
        // 64x96 grid -> 62x94 after stage 1 -> 60x92 after stage 2.
        assert_eq!(session.outputs, 60 * 92);
        assert_eq!(validate_report(&report), Vec::new());

        // Streaming chained run keeps only the coupled halo windows
        // resident — far below the 62x94 intermediate grid.
        let (out, metrics, violations) = cmd_engine(
            &denoise_spec(),
            1,
            1,
            true,
            Some(1),
            KernelBackend::Compiled,
            false,
            &["s2".into()],
            None,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("session [streaming]: 2 stage(s)"), "{out}");
        assert!(out.contains("chained residency: peak"), "{out}");
        assert_eq!(violations, 0);
        let report = MetricsReport::parse(&metrics).unwrap();
        let session = &report.sessions[2];
        assert_eq!(session.mode, "streaming");
        assert_eq!(session.outputs, 60 * 92);
        assert_eq!(session.peak_resident, 3 * 96 + 3 * 94);
        assert!(session.peak_resident < 62 * 94);
        assert!(session.stages.iter().all(|s| s.stream.is_some()));
        assert_eq!(validate_report(&report), Vec::new());
    }

    #[test]
    fn engine_chain_depth_three_composes() {
        let (out, metrics, violations) = cmd_engine(
            &denoise_spec(),
            1,
            1,
            true,
            Some(2),
            KernelBackend::Closure,
            false,
            &["s2".into(), "s3".into()],
            None,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("session [streaming]: 3 stage(s)"), "{out}");
        assert_eq!(violations, 0);
        let report = MetricsReport::parse(&metrics).unwrap();
        let session = &report.sessions[2];
        assert_eq!(session.stages.len(), 3);
        assert_eq!(session.outputs, 58 * 90);
        assert_eq!(validate_report(&report), Vec::new());
    }

    #[test]
    fn engine_iterate_flag_runs_the_ring_in_both_modes() {
        // In-core ring: three time steps, verified against three
        // materialized sequential runs.
        let (out, metrics, violations) = cmd_engine(
            &denoise_spec(),
            1,
            1,
            false,
            None,
            KernelBackend::Compiled,
            false,
            &[],
            Some(3),
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("session [incore]: 3 stage(s)"), "{out}");
        assert!(out.contains("iterate: 3 / 3 step(s)"), "{out}");
        assert!(
            out.contains("verified iterate(3) against sequential time steps"),
            "{out}"
        );
        assert!(out.contains("runtime bound checks: all passed"), "{out}");
        assert_eq!(violations, 0);
        let report = MetricsReport::parse(&metrics).unwrap();
        let session = &report.sessions[1];
        let it = session.iterate.as_ref().unwrap();
        assert_eq!(it.steps, 3);
        assert!(!it.converged);
        // 64x96 grid erodes one ring per step: 58x90 after three.
        assert_eq!(session.outputs, 58 * 90);
        assert_eq!(validate_report(&report), Vec::new());

        // Streaming ring: the coupled halo windows stay far below the
        // full grid, and the planned bound holds.
        let (out, metrics, violations) = cmd_engine(
            &denoise_spec(),
            1,
            1,
            true,
            Some(1),
            KernelBackend::Compiled,
            false,
            &[],
            Some(3),
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("session [streaming]: 3 stage(s)"), "{out}");
        assert!(out.contains("iterate residency: peak"), "{out}");
        assert_eq!(violations, 0);
        let report = MetricsReport::parse(&metrics).unwrap();
        let session = &report.sessions[2];
        assert_eq!(session.mode, "streaming");
        assert_eq!(session.outputs, 58 * 90);
        assert!(session.peak_resident < 62 * 94);
        assert!(session.iterate.is_some());
        assert_eq!(validate_report(&report), Vec::new());
    }

    #[test]
    fn engine_iterate_with_epsilon_reports_convergence() {
        // The window-sum datapath is expansive, so a tight epsilon
        // exhausts the step budget without converging — the command
        // still succeeds and reports the outcome honestly.
        let (out, metrics, violations) = cmd_engine(
            &denoise_spec(),
            1,
            1,
            false,
            None,
            KernelBackend::Compiled,
            false,
            &[],
            Some(4),
            Some(1e-6),
            None,
            None,
        )
        .unwrap();
        assert!(
            out.contains("convergence: NOT reached after 4 of 4 step(s)"),
            "{out}"
        );
        assert!(out.contains("runtime bound checks: all passed"), "{out}");
        assert_eq!(violations, 0);
        let report = MetricsReport::parse(&metrics).unwrap();
        let it = &report.sessions[1].iterate.as_ref().unwrap();
        assert_eq!(it.steps, 4);
        assert!(!it.converged);
        assert!(it.final_delta > 1e-6);
        assert_eq!(validate_report(&report), Vec::new());

        // An absurdly loose threshold converges after the first
        // measured delta.
        let (out, metrics, _) = cmd_engine(
            &denoise_spec(),
            1,
            1,
            false,
            None,
            KernelBackend::Closure,
            false,
            &[],
            Some(4),
            Some(1e12),
            None,
            None,
        )
        .unwrap();
        assert!(
            out.contains("convergence: reached after 1 of 4 step(s)"),
            "{out}"
        );
        let report = MetricsReport::parse(&metrics).unwrap();
        let it = &report.sessions[1].iterate.as_ref().unwrap();
        assert!(it.converged);
        assert_eq!(it.steps, 1);
    }

    #[test]
    fn engine_iterate_rejects_chain_combination() {
        let err = cmd_engine(
            &denoise_spec(),
            1,
            1,
            false,
            None,
            KernelBackend::Compiled,
            false,
            &["s2".into()],
            Some(2),
            None,
            None,
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("--iterate"), "{err}");
    }

    #[test]
    fn rtl_command_generates_clean_bundle() {
        let bundle = cmd_rtl(&denoise_spec()).unwrap();
        assert!(bundle.files().len() > 3);
        assert!(bundle.concat().contains("module denoise_mem_system"));
    }

    #[test]
    fn suite_command_summarizes_everything() {
        let out = cmd_suite().unwrap();
        assert!(out.contains("SEGMENTATION_3D"), "{out}");
        assert!(out.contains("average ours/baseline"), "{out}");
    }

    #[test]
    fn report_command_is_complete() {
        let out = cmd_report(&denoise_spec(), &[64, 96]).unwrap();
        assert!(out.contains("# Design report: `denoise`"), "{out}");
        assert!(
            out.contains(
                ". o .
o o o
. o ."
            ),
            "{out}"
        );
        assert!(out.contains("| **non-uniform (ours)** |"), "{out}");
        assert!(out.contains("bandwidth-limited: true"), "{out}");
        assert!(out.contains("OPTIMAL"), "{out}");
    }

    #[test]
    fn compare_command_shows_savings() {
        let out = cmd_compare(&denoise_spec(), &[64, 96]).unwrap();
        assert!(out.contains("savings: 1 bank(s)"), "{out}");
        assert!(out.contains("II = 5"), "{out}");
    }

    /// The plan's input-domain extents for `denoise_spec`, as the
    /// `.sgrid` header wants them.
    fn input_grid_extents() -> Vec<u64> {
        let plan = MemorySystemPlan::generate(&denoise_spec()).unwrap();
        let bb = plan.input_domain().index().unwrap().bounding_box().unwrap();
        bb.iter().map(|&(lo, hi)| (hi - lo + 1) as u64).collect()
    }

    #[test]
    fn engine_grid_files_round_trip_with_zero_copies() {
        let dir = std::env::temp_dir().join("stencil_cli_gridio_test");
        std::fs::create_dir_all(&dir).unwrap();
        let in_path = dir.join("in.sgrid");
        let out_path = dir.join("out.sgrid");
        // Pack with the engine's own seed: the mapped run must agree
        // with the generator-driven direct-loop cross-check.
        let pack = cmd_grid_pack(&in_path, &input_grid_extents(), 0x5EED_BA5E_D00D).unwrap();
        assert!(pack.contains("packed"), "{pack}");
        let (out, metrics, violations) = cmd_engine(
            &denoise_spec(),
            1,
            1,
            true,
            Some(4),
            KernelBackend::Compiled,
            false,
            &[],
            None,
            None,
            Some(&in_path),
            Some(&out_path),
        )
        .unwrap();
        assert!(out.contains("output grid written to"), "{out}");
        assert!(out.contains("grid io:"), "{out}");
        assert!(out.contains("/ 0 copied in"), "{out}");
        assert!(out.contains("runtime bound checks: all passed"), "{out}");
        assert_eq!(violations, 0);
        let report = MetricsReport::parse(&metrics).unwrap();
        let io = &report.sessions[1].grid_io.as_ref().unwrap();
        assert_eq!(io.values_copied, 0);
        assert!(io.values_mapped > 0);
        assert!(io.sink_finalized);
        let inspect = cmd_grid_inspect(&out_path).unwrap();
        assert!(inspect.contains("sgrid v1"), "{inspect}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_mapped_chain_run_keeps_every_sessions_grid_io() {
        let dir = std::env::temp_dir().join("stencil_cli_gridio_chain");
        std::fs::create_dir_all(&dir).unwrap();
        let in_path = dir.join("in.sgrid");
        cmd_grid_pack(&in_path, &input_grid_extents(), 0x5EED_BA5E_D00D).unwrap();
        let (_, metrics, violations) = cmd_engine(
            &denoise_spec(),
            1,
            1,
            true,
            Some(4),
            KernelBackend::Compiled,
            false,
            &["blur3x3".into()],
            None,
            None,
            Some(&in_path),
            None,
        )
        .unwrap();
        assert_eq!(violations, 0);
        let report = MetricsReport::parse(&metrics).unwrap();
        // In-core, streaming, then the chain: one session per report
        // the command prints.
        let modes: Vec<&str> = report.sessions.iter().map(|s| s.mode.as_str()).collect();
        assert_eq!(modes, ["incore", "streaming", "streaming"]);
        assert_eq!(report.sessions[2].stages.len(), 2);
        // The mapped streaming run's zero-copy claim survives the chain.
        let points = MemorySystemPlan::generate(&denoise_spec())
            .unwrap()
            .input_domain()
            .index()
            .unwrap()
            .len();
        let io = report.sessions[1].grid_io.as_ref().unwrap();
        assert_eq!(io.values_copied, 0);
        assert_eq!(io.values_mapped, points);
        assert_eq!(validate_report(&report), Vec::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_rejects_mismatched_input_grid_extents() {
        let dir = std::env::temp_dir().join("stencil_cli_gridio_mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let in_path = dir.join("wrong.sgrid");
        cmd_grid_pack(&in_path, &[4, 4], 1).unwrap();
        let err = cmd_engine(
            &denoise_spec(),
            1,
            1,
            false,
            None,
            KernelBackend::Compiled,
            false,
            &[],
            None,
            None,
            Some(&in_path),
            None,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("do not match"),
            "unexpected error: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_rejects_the_input_grid_as_its_output_grid() {
        let dir = std::env::temp_dir().join("stencil_cli_gridio_same");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("same.sgrid");
        cmd_grid_pack(&path, &input_grid_extents(), 0x5EED_BA5E_D00D).unwrap();
        let before = std::fs::read(&path).unwrap();
        // The same name, another spelling of it, and (on unix, where
        // the check compares inodes) a hard link.
        let mut aliases = vec![path.clone(), dir.join(".").join("same.sgrid")];
        if cfg!(unix) {
            let link = dir.join("link.sgrid");
            let _ = std::fs::remove_file(&link);
            std::fs::hard_link(&path, &link).unwrap();
            aliases.push(link);
        }
        for alias in &aliases {
            let err = cmd_engine(
                &denoise_spec(),
                1,
                1,
                true,
                Some(4),
                KernelBackend::Compiled,
                false,
                &[],
                None,
                None,
                Some(&path),
                Some(alias),
            )
            .unwrap_err();
            assert!(
                matches!(err.downcast_ref(), Some(EngineError::Sink { .. })),
                "{}: unexpected error: {err}",
                alias.display()
            );
            assert!(err.to_string().contains("also the input grid"), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), before, "input grid changed");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_manifest_accepts_mapped_input_grids() {
        let dir = std::env::temp_dir().join("stencil_cli_serve_grid");
        std::fs::create_dir_all(&dir).unwrap();
        let grid = dir.join("denoise.sgrid");
        cmd_grid_pack(&grid, &[20, 12], 7).unwrap();
        let manifest = format!(
            "denoise 20 12 mode=incore shards=whole repeat=2 input={}\n",
            grid.display()
        );
        let (out, metrics, violations) = cmd_serve(&manifest, 1, 8, 0).unwrap();
        assert!(out.contains("DENOISE[0]"), "{out}");
        assert!(out.contains("DENOISE[1]"), "{out}");
        assert!(!out.contains("FAILED"), "{out}");
        assert_eq!(violations, 0);
        assert!(MetricsReport::parse(&metrics).is_ok());
        // Contradictory explicit extents are a manifest error.
        let bad = format!("denoise 21 12 mode=incore input={}\n", grid.display());
        let err = cmd_serve(&bad, 1, 8, 0).unwrap_err();
        assert!(err.to_string().contains("contradict"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_refuses_a_manifest_grid_too_large_to_count_or_allocate() {
        // 2^32 x 2^32 points overflow i64; 2^31 x 2^31 fit in i64 but
        // not in an allocation. Neither allocates anything.
        for line in [
            "DENOISE 4294967296 4294967296\n",
            "DENOISE 2147483648 2147483648\n",
        ] {
            let err = cmd_serve(line, 1, 8, 0).unwrap_err();
            assert_eq!(err.to_string(), "manifest grid too large", "{line}");
        }
    }

    #[test]
    fn serve_admits_an_auto_sharded_job_on_a_queue_shallower_than_the_pool() {
        // Four workers would split the job four ways; a depth-2 queue
        // can only ever hold two shards, so auto splits two ways.
        let (out, metrics, violations) = cmd_serve("denoise 64 48 shards=auto\n", 4, 2, 0).unwrap();
        assert!(
            out.contains("jobs: 1 submitted, 1 admitted, 0 rejected (retried), 0 failed"),
            "{out}"
        );
        assert_eq!(violations, 0);
        let service = MetricsReport::parse(&metrics).unwrap().service.unwrap();
        assert_eq!(service.shards_executed, 2);
    }

    #[test]
    fn a_tiled_manifest_mode_is_a_bad_mode() {
        // In core, the band count follows the plan's off-chip streams;
        // a band height is `mode=streaming:ROWS`.
        match parse_manifest_line("denoise 40 24 mode=tiled:3", 7) {
            Err(e) => assert_eq!(e.to_string(), "manifest line 7: bad mode `tiled:3`"),
            Ok(_) => panic!("mode=tiled:3 parsed"),
        }
    }

    /// Manifest parsing never panics on arbitrary token lines.
    mod manifest_fuzz {
        use super::*;
        use proptest::prelude::*;

        /// One manifest token: a benchmark name, a key with a value that
        /// is often malformed, an integer anywhere in `i64`, a comment
        /// mark or printable garbage.
        fn token() -> impl Strategy<Value = String> {
            let name = prop::sample::select(vec!["denoise", "SOBEL", "heat_1d", "nope"]);
            let key = prop::sample::select(vec![
                "mode=", "mode=", "shards=", "repeat=", "input=", "", "#",
            ]);
            let value = prop::sample::select(vec![
                "incore",
                "streaming",
                "streaming:",
                "tiled:",
                "auto",
                "whole",
                "",
                ":",
            ]);
            (0u8..4, name, key, value, i64::MIN..=i64::MAX, "[!-~]{1,8}").prop_map(
                |(kind, name, key, value, int, garbage)| match kind {
                    0 => name.to_string(),
                    1 => format!("{key}{value}{int}"),
                    2 => int.to_string(),
                    _ => format!("{key}{garbage}"),
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn manifest_lines_parse_or_fail_typed(
                tokens in prop::collection::vec(token(), 0..8),
            ) {
                let _ = parse_manifest_line(&tokens.join(" "), 1);
            }
        }
    }
}
