//! Emits `BENCH_5.json`: Session-layer throughput and chained-pipeline
//! residency on full-size DENOISE (768x1024), the report the CI
//! bench-smoke job publishes and gates on.
//!
//! Four measurements, best of five runs each:
//!
//! * single-stage in-core throughput through the `Session` builder
//!   (compiled row-sweep backend),
//! * single-stage streaming throughput through the same builder,
//! * a 2-stage temporally chained streaming pipeline
//!   (`Session::then`), whose outputs must match running the stages
//!   sequentially with a fully materialised intermediate grid, and
//!   whose peak residency must stay within the planned per-stage
//!   halo-window bound (Sec. 2.3),
//! * a *heterogeneous* 2-stage chain — the benchmark's kernel feeding
//!   the 9-tap BLUR3X3 box — where each stage erodes by its own halo
//!   and buffers by its own reuse distances. Its per-stage backends
//!   are recorded, its outputs are verified the same way, and its
//!   throughput must hold [`HETERO_TOLERANCE`] of the homogeneous
//!   chain's (the mixed-window pipeline rides the same machinery). The
//!   two chains alternate run by run, each keeping its best.
//!
//! If `BENCH_4.json` exists next to the output path (or at the path
//! given as the third argument), the single-stage numbers are gated
//! against its compiled-backend throughputs: the Session layer must
//! retain at least [`BASELINE_TOLERANCE`] of each. The binary exits
//! nonzero on any regression, residency-bound breach, output
//! divergence, or telemetry bound violation, so CI fails loudly.
//!
//! Usage: `bench5_session [--out OUT.json] [BENCHMARK [BASELINE.json]]`
//! (defaults: `BENCH_5.json` at the workspace root, `DENOISE`,
//! workspace-root `BENCH_4.json`; a leading positional `.json` path is
//! still accepted as OUT).

use std::process::ExitCode;

use stencil_core::MemorySystemPlan;
use stencil_engine::{
    CompiledKernel, ExecMode, InputGrid, Session, SessionKernel, SliceSource, VecSink,
};
use stencil_kernels::{blur3x3, extra_suite, paper_suite, Benchmark};
use stencil_telemetry::{validate_report, MetricsReport};

/// Measurement repetitions per configuration; the best run is kept.
const RUNS: usize = 5;

/// The Session layer must retain at least this fraction of the
/// `BENCH_4.json` compiled-backend throughput. It is the same executor
/// behind a builder, so the true ratio is ~1.0x, but the baseline
/// comes from a different process run and best-of-N throughput jitters
/// by 10-20% between processes on shared hardware; the gate is sized
/// to catch a real regression (an extra copy, a lost parallel path)
/// without tripping on scheduler noise.
const BASELINE_TOLERANCE: f64 = 0.75;

/// The heterogeneous (mixed-window) chain must hold this fraction of
/// the homogeneous 2-stage chain's throughput, measured in the same
/// process. Both pipelines run the same per-stage machinery — the blur
/// stage merely carries a wider window — so a larger gap means the
/// per-stage planning layer added real overhead.
const HETERO_TOLERANCE: f64 = 0.9;

/// The measured Session-layer numbers written to `BENCH_5.json`.
struct Measurements {
    name: String,
    extents: Vec<i64>,
    outputs: u64,
    incore: f64,
    streaming: f64,
    chained: f64,
    chained_stages: usize,
    chained_peak_resident: u64,
    chained_resident_bound: u64,
    hetero: f64,
    hetero_stage_backends: String,
    hetero_peak_resident: u64,
    hetero_resident_bound: u64,
    violations: usize,
}

/// Clamps a rate to something JSON can carry: `{:.1}` would happily
/// interpolate `inf`/`NaN` (a zero-elapsed timer on a coarse clock),
/// which no JSON parser accepts back.
fn finite_or_zero(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

impl Measurements {
    /// The flat JSON document written to `BENCH_5.json`.
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"{}\",\n  \"extents\": {:?},\n  \
             \"outputs\": {},\n  \"session_incore_elem_per_s\": {:.1},\n  \
             \"session_streaming_elem_per_s\": {:.1},\n  \
             \"chained_streaming_elem_per_s\": {:.1},\n  \"chained_stages\": {},\n  \
             \"chained_peak_resident\": {},\n  \"chained_resident_bound\": {},\n  \
             \"hetero_chained_elem_per_s\": {:.1},\n  \
             \"hetero_stage_backends\": \"{}\",\n  \
             \"hetero_peak_resident\": {},\n  \"hetero_resident_bound\": {},\n  \
             \"violations\": {}\n}}\n",
            self.name,
            self.extents,
            self.outputs,
            finite_or_zero(self.incore),
            finite_or_zero(self.streaming),
            finite_or_zero(self.chained),
            self.chained_stages,
            self.chained_peak_resident,
            self.chained_resident_bound,
            finite_or_zero(self.hetero),
            self.hetero_stage_backends,
            self.hetero_peak_resident,
            self.hetero_resident_bound,
            self.violations,
        )
    }
}

/// Pulls `"key": <number>` out of a flat JSON document. Good enough
/// for the hand-formatted reports the bench binaries write.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() -> ExitCode {
    let (out_path, rest) = match stencil_bench::bench_args("BENCH_5.json") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench5_session: {e}");
            return ExitCode::FAILURE;
        }
    };
    let name = rest.first().cloned().unwrap_or_else(|| "DENOISE".into());
    let baseline_path = rest
        .get(1)
        .cloned()
        .unwrap_or_else(|| stencil_bench::workspace_path("BENCH_4.json"));
    let Some(bench) = paper_suite()
        .into_iter()
        .chain(extra_suite())
        .find(|b| b.name() == name)
    else {
        eprintln!("bench5_session: unknown benchmark `{name}`");
        return ExitCode::FAILURE;
    };
    // A shared box can deschedule one whole process for long enough to
    // halve its best-of-N numbers, so a failed throughput gate earns a
    // fresh measurement (keeping the per-configuration maximum) before
    // it fails the pipeline; correctness checks never get a retry.
    let mut m = match measure(&bench) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench5_session: {e}");
            return ExitCode::FAILURE;
        }
    };
    for attempt in 0..2 {
        if m.violations > 0 || (!gate_fails(&m, &baseline_path) && !hetero_gate(&m, false)) {
            break;
        }
        eprintln!(
            "throughput gate missed; re-measuring (attempt {})",
            attempt + 2
        );
        match measure(&bench) {
            Ok(again) => {
                m.incore = m.incore.max(again.incore);
                m.streaming = m.streaming.max(again.streaming);
                m.chained = m.chained.max(again.chained);
                m.hetero = m.hetero.max(again.hetero);
                m.violations += again.violations;
            }
            Err(e) => {
                eprintln!("bench5_session: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&out_path, m.to_json()) {
        eprintln!("bench5_session: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {out_path}: {} {} outputs; session in-core {:.1} Melem/s, \
         streaming {:.1} Melem/s; {}-stage chain {:.1} Melem/s, \
         peak resident {} <= bound {}; hetero chain (+BLUR3X3) {:.1} Melem/s \
         [{}], peak resident {} <= bound {}",
        m.name,
        m.outputs,
        m.incore / 1e6,
        m.streaming / 1e6,
        m.chained_stages,
        m.chained / 1e6,
        m.chained_peak_resident,
        m.chained_resident_bound,
        m.hetero / 1e6,
        m.hetero_stage_backends,
        m.hetero_peak_resident,
        m.hetero_resident_bound,
    );

    let mut failed = false;
    if m.violations > 0 {
        eprintln!("runtime bound checks: {} FAILED", m.violations);
        failed = true;
    }
    if m.chained_peak_resident > m.chained_resident_bound {
        eprintln!(
            "chained peak residency {} exceeds the planned bound {}",
            m.chained_peak_resident, m.chained_resident_bound
        );
        failed = true;
    }
    if m.hetero_peak_resident > m.hetero_resident_bound {
        eprintln!(
            "heterogeneous chain peak residency {} exceeds the planned bound {}",
            m.hetero_peak_resident, m.hetero_resident_bound
        );
        failed = true;
    }
    if baseline_gate(&m, &baseline_path, true) {
        failed = true;
    }
    if hetero_gate(&m, true) {
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!("runtime bound checks: all passed");
    ExitCode::SUCCESS
}

/// Whether a retry is worth it: true when the baseline throughput gate
/// currently fails. Quiet so the retry loop can probe without spamming.
fn gate_fails(m: &Measurements, baseline_path: &str) -> bool {
    baseline_gate(m, baseline_path, false)
}

/// Evaluates the heterogeneous-chain gate: the mixed-window pipeline
/// must hold [`HETERO_TOLERANCE`] of the homogeneous chain's
/// throughput. Both numbers come from the same process, so this gate
/// is far less jitter-prone than the cross-process baseline one.
fn hetero_gate(m: &Measurements, report: bool) -> bool {
    if m.chained <= 0.0 || !m.chained.is_finite() || !m.hetero.is_finite() {
        return false;
    }
    let ratio = m.hetero / m.chained;
    if ratio < HETERO_TOLERANCE {
        if report {
            eprintln!(
                "heterogeneous chain throughput fell to {ratio:.2}x of the homogeneous \
                 chain ({:.1} vs {:.1} elem/s)",
                m.hetero, m.chained
            );
        }
        true
    } else {
        if report {
            println!("heterogeneous chain throughput holds {ratio:.2}x of the homogeneous chain");
        }
        false
    }
}

/// Evaluates the `BENCH_4.json` throughput gate, returning true on a
/// regression. With `report` set, prints the verdict for each number;
/// a missing or key-less baseline skips the gate (with a note) rather
/// than failing, so the first pipeline run bootstraps cleanly.
fn baseline_gate(m: &Measurements, baseline_path: &str, report: bool) -> bool {
    let Ok(doc) = std::fs::read_to_string(baseline_path) else {
        if report {
            println!("no baseline at {baseline_path}; skipping the throughput gate");
        }
        return false;
    };
    let mut failed = false;
    for (key, measured, label) in [
        ("incore_compiled_elem_per_s", m.incore, "in-core"),
        ("streaming_compiled_elem_per_s", m.streaming, "streaming"),
    ] {
        let Some(baseline) = json_number(&doc, key) else {
            if report {
                eprintln!("baseline {baseline_path} carries no `{key}`; skipping that gate");
            }
            continue;
        };
        let ratio = measured / baseline;
        if ratio < BASELINE_TOLERANCE {
            if report {
                eprintln!(
                    "session {label} throughput regressed to {ratio:.2}x of the \
                     {baseline_path} baseline ({measured:.1} vs {baseline:.1} elem/s)"
                );
            }
            failed = true;
        } else if report {
            println!("session {label} throughput holds {ratio:.2}x of the baseline");
        }
    }
    failed
}

/// Plans the benchmark at its full paper extents and measures the
/// Session layer single-stage and chained, cross-checking the chained
/// outputs against sequential stage execution and validating every
/// telemetry report.
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

    // Untimed warm-up: fault the input pages in and let the frequency
    // governor settle before anything is measured, matching the state
    // the `BENCH_4.json` baseline's compiled runs start from.
    Session::new(&plan)
        .kernel(SessionKernel::Compiled(&kernel))
        .run(&input)?;

    // Single-stage in-core through the Session builder.
    let mut reference: Option<Vec<f64>> = None;
    let mut incore = 0.0f64;
    for _ in 0..RUNS {
        let run = Session::new(&plan)
            .kernel(SessionKernel::Compiled(&kernel))
            .telemetry(spec.name())
            .run(&input)?;
        let engine = run.report.stages[0]
            .engine
            .as_ref()
            .ok_or("session produced no in-core stage report")?;
        incore = incore.max(engine.throughput());
        let mut report = MetricsReport::new(spec.name());
        report.sessions.push(run.report.metrics());
        validate(&report);
        reference = Some(run.outputs);
    }
    let reference = reference.expect("at least one run");
    let outputs = reference.len() as u64;

    // Single-stage streaming through the Session builder.
    let mut streaming = 0.0f64;
    for _ in 0..RUNS {
        let mut source = SliceSource::new(&in_vals);
        let mut sink = VecSink::new();
        let session = Session::new(&plan)
            .kernel(SessionKernel::Compiled(&kernel))
            .mode(stream_mode)
            .threads(4)
            .telemetry(spec.name())
            .run_streaming(&mut source, &mut sink)?;
        let streamed = session.stages[0]
            .stream
            .as_ref()
            .ok_or("session produced no streaming stage report")?;
        streaming = streaming.max(streamed.throughput());
        let mut report = MetricsReport::new(spec.name());
        report.sessions.push(session.metrics());
        validate(&report);
        if sink.values != reference {
            return Err("session streaming outputs diverge from the in-core run".into());
        }
    }

    // Two-stage chained streaming pipeline, verified against running
    // the stages sequentially with a materialised intermediate grid.
    let stage2 = bench.stage();
    let chained_plan = plan.chain_next(stage2.name(), stage2.window())?;
    let mid_idx = chained_plan.input_domain().index()?;
    let mid_input = InputGrid::new(&mid_idx, &reference)?;
    let golden = Session::new(&chained_plan)
        .kernel(SessionKernel::Closure(&compute))
        .run(&mid_input)?
        .outputs;

    let chain = Session::new(&plan)
        .kernel(SessionKernel::Compiled(&kernel))
        .mode(stream_mode)
        .threads(4)
        .telemetry(spec.name())
        .then(&stage2)?;
    let chained_resident_bound = chain.planned_residency_bound(Some(64))?;
    let chained_stages = chain.stage_count();

    // Heterogeneous chain: the benchmark's kernel feeding the 9-tap
    // BLUR3X3 box. The blur stage erodes by its own 3x3 halo and sizes
    // its inter-stage buffer from its own reuse distances; the session
    // records each stage's resolved backend in its report.
    let blur = blur3x3();
    let blur_stage = blur.stage();
    let hetero_plan = plan.chain_next(blur_stage.name(), blur_stage.window())?;
    let hetero_mid_idx = hetero_plan.input_domain().index()?;
    let hetero_mid = InputGrid::new(&hetero_mid_idx, &reference)?;
    let blur_compute = blur.compute_fn();
    let hetero_golden = Session::new(&hetero_plan)
        .kernel(SessionKernel::Closure(&blur_compute))
        .run(&hetero_mid)?
        .outputs;

    let hetero_chain = Session::new(&plan)
        .kernel(SessionKernel::Compiled(&kernel))
        .mode(stream_mode)
        .threads(4)
        .telemetry(spec.name())
        // Both stages sweep their built-in kernels' native row bodies,
        // as the homogeneous chain's do, so the gate times per-stage
        // planning, not a different row body.
        .then(&blur_stage)?;
    let hetero_resident_bound = hetero_chain.planned_residency_bound(Some(64))?;

    // The two chains alternate run by run, so drift in the machine's
    // speed lands on both sides of the gate's ratio alike.
    let mut chained = 0.0f64;
    let mut chained_peak_resident = 0u64;
    let mut hetero = 0.0f64;
    let mut hetero_peak_resident = 0u64;
    let mut hetero_stage_backends = String::new();
    for _ in 0..RUNS {
        let mut source = SliceSource::new(&in_vals);
        let mut sink = VecSink::new();
        let report = chain.run_streaming(&mut source, &mut sink)?;
        chained = chained.max(report.throughput());
        chained_peak_resident = chained_peak_resident.max(report.peak_resident);
        let mut metrics = MetricsReport::new(spec.name());
        metrics.sessions.push(report.metrics());
        validate(&metrics);
        if sink.values != golden {
            return Err("chained pipeline outputs diverge from sequential stage execution".into());
        }

        let mut source = SliceSource::new(&in_vals);
        let mut sink = VecSink::new();
        let report = hetero_chain.run_streaming(&mut source, &mut sink)?;
        hetero = hetero.max(report.throughput());
        hetero_peak_resident = hetero_peak_resident.max(report.peak_resident);
        hetero_stage_backends = report
            .stages
            .iter()
            .map(|s| s.backend.as_str())
            .collect::<Vec<_>>()
            .join(",");
        let mut metrics = MetricsReport::new(spec.name());
        metrics.sessions.push(report.metrics());
        validate(&metrics);
        if sink.values != hetero_golden {
            return Err(
                "heterogeneous chained outputs diverge from sequential stage execution".into(),
            );
        }
    }

    Ok(Measurements {
        name: bench.name().to_string(),
        extents,
        outputs,
        incore,
        streaming,
        chained,
        chained_stages,
        chained_peak_resident,
        chained_resident_bound,
        hetero,
        hetero_stage_backends,
        hetero_peak_resident,
        hetero_resident_bound,
        violations,
    })
}
