//! Emits `BENCH_4.json`: closure-vs-compiled kernel throughput on
//! full-size DENOISE (768x1024), the report the CI bench-smoke job
//! publishes and gates on.
//!
//! Runs the same plan through the original closure datapath and the
//! compiled row-sweep backend, in-core and streaming, best of three
//! timed runs each after one untimed warm-up run. The built-in kernel's
//! compiled backend runs its native row body on f64; an
//! expression-only copy of the kernel (same window, closure and
//! expression, no native row) times the register program in core on
//! the f64 and the f32 datapath. All f64 output buffers must agree
//! bit-for-bit, the f32 runs must stay inside the benchmark's declared
//! relative tolerance (`Benchmark::f32_rtol`), every telemetry report
//! must pass the runtime bound validator, and two throughput gates
//! hold: the compiled backend must not be slower than the closure it
//! replaces, and the native row body must not be slower than the
//! register program.
//! Correctness failures exit nonzero immediately; a missed throughput
//! gate earns fresh measurements (keeping the per-configuration
//! maximum) before it fails the pipeline, because a descheduled
//! best-of-N on a shared box is noise, not a regression.
//!
//! Usage: `bench4_compiled [--out OUT.json] [BENCHMARK]` (defaults:
//! `BENCH_4.json` at the workspace root, `DENOISE`; a leading
//! positional `.json` path is still accepted as OUT; any paper-suite
//! or extra benchmark name is accepted, e.g. `SOBEL`).

use std::process::ExitCode;

use stencil_bench::expression_only;
use stencil_core::MemorySystemPlan;
use stencil_engine::{
    max_rel_error, CompiledKernel, Datapath, ExecMode, InputGrid, Session, SessionKernel,
    SliceSource, VecSink,
};
use stencil_kernels::{extra_suite, paper_suite, Benchmark};
use stencil_telemetry::{validate_report, MetricsReport};

/// Measurement repetitions per configuration; the best run is kept.
/// Each configuration first runs once untimed (repetition 0), so no
/// configuration's figure depends on what ran before it.
const RUNS: usize = 3;

/// True for a timed repetition: every one but the warm-up.
fn timed(rep: usize) -> bool {
    rep > 0
}

/// Required in-core speedup of the native row body over the register
/// program: the native body must not be slower.
const NATIVE_GATE: f64 = 1.0;

/// The measured throughputs (elements per second).
struct Measurements {
    name: String,
    extents: Vec<i64>,
    incore_closure: f64,
    /// The built-in kernel's compiled in-core rate (its native row
    /// body, when it has one).
    incore_compiled: f64,
    /// The register program's in-core rate (the expression-only copy),
    /// f64 datapath: the baseline the native and f32 ratios divide by.
    incore_program: f64,
    /// The register program's in-core rate, f32 datapath.
    incore_f32: f64,
    streaming_closure: f64,
    streaming_compiled: f64,
    streaming_f32: f64,
    f32_max_rel_error: f64,
    f32_rtol: f64,
    outputs: u64,
    violations: usize,
}

impl Measurements {
    fn incore_speedup(&self) -> f64 {
        self.incore_compiled / self.incore_closure
    }

    fn native_speedup(&self) -> f64 {
        self.incore_compiled / self.incore_program
    }

    fn f32_speedup(&self) -> f64 {
        self.incore_f32 / self.incore_program
    }

    fn streaming_speedup(&self) -> f64 {
        self.streaming_compiled / self.streaming_closure
    }

    /// Folds a fresh measurement in, keeping the maximum per
    /// configuration and accumulating validator violations.
    fn keep_max(&mut self, fresh: &Measurements) {
        self.incore_closure = self.incore_closure.max(fresh.incore_closure);
        self.incore_compiled = self.incore_compiled.max(fresh.incore_compiled);
        self.incore_program = self.incore_program.max(fresh.incore_program);
        self.incore_f32 = self.incore_f32.max(fresh.incore_f32);
        self.streaming_closure = self.streaming_closure.max(fresh.streaming_closure);
        self.streaming_compiled = self.streaming_compiled.max(fresh.streaming_compiled);
        self.streaming_f32 = self.streaming_f32.max(fresh.streaming_f32);
        self.f32_max_rel_error = self.f32_max_rel_error.max(fresh.f32_max_rel_error);
        self.violations += fresh.violations;
    }

    /// The flat JSON document written to `BENCH_4.json`.
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"{}\",\n  \"extents\": {:?},\n  \
             \"outputs\": {},\n  \
             \"incore_closure_elem_per_s\": {:.1},\n  \
             \"incore_compiled_elem_per_s\": {:.1},\n  \"incore_speedup\": {:.4},\n  \
             \"incore_program_elem_per_s\": {:.1},\n  \"native_speedup\": {:.4},\n  \
             \"incore_f32_elem_per_s\": {:.1},\n  \"f32_speedup\": {:.4},\n  \
             \"streaming_closure_elem_per_s\": {:.1},\n  \
             \"streaming_compiled_elem_per_s\": {:.1},\n  \"streaming_speedup\": {:.4},\n  \
             \"streaming_f32_elem_per_s\": {:.1},\n  \
             \"f32_max_rel_error\": {:.3e},\n  \"f32_rtol\": {:.1e},\n  \
             \"violations\": {}\n}}\n",
            self.name,
            self.extents,
            self.outputs,
            self.incore_closure,
            self.incore_compiled,
            self.incore_speedup(),
            self.incore_program,
            self.native_speedup(),
            self.incore_f32,
            self.f32_speedup(),
            self.streaming_closure,
            self.streaming_compiled,
            self.streaming_speedup(),
            self.streaming_f32,
            self.f32_max_rel_error,
            self.f32_rtol,
            self.violations,
        )
    }
}

/// Whether a throughput gate missed (retry-worthy; correctness and
/// validator failures are handled separately and never retried). With
/// `report`, prints the verdict of each gate.
fn gate_fails(m: &Measurements, report: bool) -> bool {
    let mut failed = false;
    if m.incore_speedup() < 1.0 {
        if report {
            eprintln!(
                "compiled backend is SLOWER than the closure in-core: {:.2}x",
                m.incore_speedup()
            );
        }
        failed = true;
    }
    if m.native_speedup() < NATIVE_GATE {
        if report {
            eprintln!(
                "native row body is SLOWER than the register program in-core: {:.2}x",
                m.native_speedup()
            );
        }
        failed = true;
    }
    failed
}

fn main() -> ExitCode {
    let (out_path, rest) = match stencil_bench::bench_args("BENCH_4.json") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench4_compiled: {e}");
            return ExitCode::FAILURE;
        }
    };
    let name = rest.first().cloned().unwrap_or_else(|| "DENOISE".into());
    let Some(bench) = paper_suite()
        .into_iter()
        .chain(extra_suite())
        .find(|b| b.name() == name)
    else {
        eprintln!("bench4_compiled: unknown benchmark `{name}`");
        return ExitCode::FAILURE;
    };
    let mut m = match measure(&bench) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench4_compiled: {e}");
            return ExitCode::FAILURE;
        }
    };
    // A shared box can deschedule one whole process for long enough to
    // halve its best-of-N numbers, so a failed throughput gate earns a
    // fresh measurement (keeping the per-configuration maximum) before
    // it fails the pipeline; correctness checks never get a retry.
    for attempt in 0..2 {
        if m.violations > 0 || !gate_fails(&m, false) {
            break;
        }
        eprintln!(
            "throughput gate missed; re-measuring (attempt {})",
            attempt + 2
        );
        match measure(&bench) {
            Ok(fresh) => m.keep_max(&fresh),
            Err(e) => {
                eprintln!("bench4_compiled: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&out_path, m.to_json()) {
        eprintln!("bench4_compiled: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {out_path}: {} {} outputs; in-core {:.1} -> {:.1} Melem/s ({:.2}x), \
         native/program {:.2}x (program {:.1} Melem/s), f32 {:.1} Melem/s ({:.2}x, \
         max rel err {:.2e} <= {:.0e}); streaming {:.1} -> {:.1} Melem/s ({:.2}x)",
        m.name,
        m.outputs,
        m.incore_closure / 1e6,
        m.incore_compiled / 1e6,
        m.incore_speedup(),
        m.native_speedup(),
        m.incore_program / 1e6,
        m.incore_f32 / 1e6,
        m.f32_speedup(),
        m.f32_max_rel_error,
        m.f32_rtol,
        m.streaming_closure / 1e6,
        m.streaming_compiled / 1e6,
        m.streaming_speedup(),
    );
    if m.violations > 0 {
        eprintln!("runtime bound checks: {} FAILED", m.violations);
        return ExitCode::FAILURE;
    }
    if gate_fails(&m, true) {
        return ExitCode::FAILURE;
    }
    println!("runtime bound checks: all passed");
    ExitCode::SUCCESS
}

/// Plans the benchmark at its full paper extents and measures every
/// configuration, cross-checking every f64 output buffer bit-for-bit,
/// holding the f32 runs to the benchmark's declared tolerance, and
/// validating each run's telemetry.
fn measure(bench: &Benchmark) -> Result<Measurements, Box<dyn std::error::Error>> {
    let extents: Vec<i64> = bench.extents().to_vec();
    let spec = bench.spec_for(&extents)?;
    let plan = MemorySystemPlan::generate(&spec)?;

    let in_idx = plan.input_domain().index()?;
    let mut state = 0x5EED_BA5E_D00Du64;
    let in_vals: Vec<f64> = (0..in_idx.len())
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005u64)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f64) / 256.0
        })
        .collect();
    let input = InputGrid::new(&in_idx, &in_vals)?;
    let compute = bench.compute_fn();
    let kernel = CompiledKernel::for_benchmark(bench)?
        .ok_or_else(|| format!("{} carries no expression", bench.name()))?;
    // The same kernel without its native row body: every compiled run
    // of it is the register program.
    let program = CompiledKernel::for_benchmark(&expression_only(bench))?
        .ok_or_else(|| format!("{} carries no expression", bench.name()))?;

    let stream_mode = ExecMode::Streaming {
        chunk_rows: Some(64),
    };

    let mut violations = 0usize;
    let mut validate = |report: &MetricsReport| {
        let v = validate_report(report);
        for violation in &v {
            eprintln!("  violation: {violation}");
        }
        violations += v.len();
    };

    // In-core, closure datapath.
    let mut reference: Option<Vec<f64>> = None;
    let mut incore_closure = 0.0f64;
    for rep in 0..=RUNS {
        let run = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .run(&input)?;
        let engine = run.report.stages[0]
            .engine
            .clone()
            .ok_or("session produced no in-core stage report")?;
        if timed(rep) {
            incore_closure = incore_closure.max(engine.throughput());
        }
        let mut report = MetricsReport::new(spec.name());
        report.sessions.push(run.report.metrics());
        validate(&report);
        reference = Some(run.outputs);
    }
    let reference = reference.expect("at least one run");
    let outputs = reference.len() as u64;

    // In-core, the built-in kernel's compiled backend.
    let mut incore_compiled = 0.0f64;
    for rep in 0..=RUNS {
        let run = Session::new(&plan)
            .kernel(SessionKernel::Compiled(&kernel))
            .run(&input)?;
        let engine = run.report.stages[0]
            .engine
            .clone()
            .ok_or("session produced no in-core stage report")?;
        if timed(rep) {
            incore_compiled = incore_compiled.max(engine.throughput());
        }
        let mut report = MetricsReport::new(spec.name());
        report.sessions.push(run.report.metrics());
        validate(&report);
        if run.outputs != reference {
            return Err("compiled in-core outputs diverge from the closure run".into());
        }
    }

    // In-core, the register program on both datapaths. The f64 run
    // must reproduce the closure bits exactly; the f32 run must stay
    // inside the declared tolerance.
    let mut incore_program = 0.0f64;
    let mut incore_f32 = 0.0f64;
    let mut f32_max_rel_error = 0.0f64;
    let mut f32_reference: Option<Vec<f64>> = None;
    for (slot, datapath) in [
        (&mut incore_program, Datapath::F64),
        (&mut incore_f32, Datapath::F32),
    ] {
        for rep in 0..=RUNS {
            let run = Session::new(&plan)
                .kernel(SessionKernel::Compiled(&program))
                .datapath(datapath)
                .run(&input)?;
            let engine = run.report.stages[0]
                .engine
                .clone()
                .ok_or("session produced no in-core stage report")?;
            if timed(rep) {
                *slot = slot.max(engine.throughput());
            }
            let mut report = MetricsReport::new(spec.name());
            report.sessions.push(run.report.metrics());
            validate(&report);
            if datapath == Datapath::F64 {
                if run.outputs != reference {
                    return Err(
                        "register-program in-core outputs diverge from the closure run".into(),
                    );
                }
                continue;
            }
            let err = max_rel_error(&run.outputs, &reference);
            if err > bench.f32_rtol() {
                return Err(format!(
                    "f32 in-core outputs drift {err:.3e} from the f64 reference, over the \
                     declared tolerance {:.1e}",
                    bench.f32_rtol()
                )
                .into());
            }
            f32_max_rel_error = f32_max_rel_error.max(err);
            f32_reference = Some(run.outputs);
        }
    }
    let f32_reference = f32_reference.expect("the f32 datapath ran");

    // Streaming, closure datapath.
    let mut streaming_closure = 0.0f64;
    for rep in 0..=RUNS {
        let mut source = SliceSource::new(&in_vals);
        let mut sink = VecSink::new();
        let session = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .mode(stream_mode)
            .threads(4)
            .run_streaming(&mut source, &mut sink)?;
        let streamed = session.stages[0]
            .stream
            .clone()
            .ok_or("session produced no streaming stage report")?;
        if timed(rep) {
            streaming_closure = streaming_closure.max(streamed.throughput());
        }
        let mut report = MetricsReport::new(spec.name());
        report.sessions.push(session.metrics());
        validate(&report);
        if sink.values != reference {
            return Err("closure streaming outputs diverge from the in-core run".into());
        }
    }

    // Streaming, compiled row sweep: f64 and f32.
    let mut streaming_compiled = 0.0f64;
    let mut streaming_f32 = 0.0f64;
    for (slot, datapath) in [
        (&mut streaming_compiled, Datapath::F64),
        (&mut streaming_f32, Datapath::F32),
    ] {
        for rep in 0..=RUNS {
            let mut source = SliceSource::new(&in_vals);
            let mut sink = VecSink::new();
            let session = Session::new(&plan)
                .kernel(SessionKernel::Compiled(&kernel))
                .mode(stream_mode)
                .threads(4)
                .datapath(datapath)
                .run_streaming(&mut source, &mut sink)?;
            let streamed = session.stages[0]
                .stream
                .clone()
                .ok_or("session produced no streaming stage report")?;
            if timed(rep) {
                *slot = slot.max(streamed.throughput());
            }
            let mut report = MetricsReport::new(spec.name());
            report.sessions.push(session.metrics());
            validate(&report);
            let expected = if datapath == Datapath::F32 {
                &f32_reference
            } else {
                &reference
            };
            if &sink.values != expected {
                return Err(format!(
                    "compiled streaming outputs ({datapath}) diverge from the in-core run"
                )
                .into());
            }
        }
    }

    Ok(Measurements {
        name: bench.name().to_string(),
        extents,
        incore_closure,
        incore_compiled,
        incore_program,
        incore_f32,
        streaming_closure,
        streaming_compiled,
        streaming_f32,
        f32_max_rel_error,
        f32_rtol: bench.f32_rtol(),
        outputs,
        violations,
    })
}
