//! Emits `BENCH_6.json`: iterated time-stepping throughput, residency,
//! and convergence on full-size DENOISE (768x1024), the report the CI
//! bench-smoke job publishes and gates on.
//!
//! Four measurements, best of five runs each where timed:
//!
//! * a T-step in-core ring through `Session::iterate`, bit-identical
//!   to folding the grid through T materialised single-step runs,
//! * the same ring streaming at a 64-row chunk, whose peak residency
//!   must stay within the planned per-step halo-window bound
//!   (Sec. 2.3 applied to every coupled step),
//! * `Session::iterate_until` on a contractive Jacobi-style
//!   relaxation, which must converge well inside its step budget with
//!   the step count recorded in telemetry,
//! * every telemetry report re-validated by the runtime bound checker.
//!
//! If `BENCH_5.json` exists next to the output path (or at the path
//! given as the third argument), the streaming ring is gated against
//! the equivalent depth-T chain extrapolated from its 2-stage chained
//! baseline: per-stage work rate `chained * stages`, divided by the
//! ring depth, scaled by [`BASELINE_TOLERANCE`]. The binary exits
//! nonzero on any regression, residency-bound breach, output
//! divergence, missed convergence, or telemetry bound violation, so CI
//! fails loudly.
//!
//! Usage: `bench6_iterate [--out OUT.json] [BENCHMARK [BASELINE.json]]`
//! (defaults: `BENCH_6.json` at the workspace root, `DENOISE`,
//! workspace-root `BENCH_5.json`; a leading positional `.json` path is
//! still accepted as OUT).

use std::process::ExitCode;

use stencil_core::MemorySystemPlan;
use stencil_engine::{
    CompiledKernel, ExecMode, InputGrid, Session, SessionKernel, SliceSource, VecSink,
};
use stencil_kernels::{extra_suite, paper_suite, Benchmark};
use stencil_telemetry::{validate_report, MetricsReport};

/// Measurement repetitions per configuration; the best run is kept.
const RUNS: usize = 5;

/// Time steps in the fixed-count ring.
const STEPS: usize = 8;

/// The streaming ring must retain at least this fraction of the
/// depth-T chain rate extrapolated from the `BENCH_5.json` 2-stage
/// chained baseline. The ring is the same coupled-stage executor, and
/// domain erosion even shaves a little work off the later steps, so
/// the true ratio sits at or above 1.0x; the margin absorbs the
/// 10-20% best-of-N jitter between processes on shared hardware.
const BASELINE_TOLERANCE: f64 = 0.9;

/// The measured iterate-ring numbers written to `BENCH_6.json`.
struct Measurements {
    name: String,
    extents: Vec<i64>,
    steps: usize,
    outputs: u64,
    incore: f64,
    streaming: f64,
    peak_resident: u64,
    resident_bound: u64,
    converge_steps: u64,
    converge_budget: u64,
    converged: bool,
    final_delta: f64,
    violations: usize,
}

/// Clamps a rate to something JSON can carry: `{:.1}`/`{:.6e}` would
/// happily interpolate `inf`/`NaN` (a zero-elapsed timer on a coarse
/// clock, or a diverged delta), which no JSON parser accepts back.
fn finite_or_zero(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

impl Measurements {
    /// The flat JSON document written to `BENCH_6.json`.
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"{}\",\n  \"extents\": {:?},\n  \
             \"iterate_steps\": {},\n  \"outputs\": {},\n  \
             \"iterate_incore_elem_per_s\": {:.1},\n  \
             \"iterate_streaming_elem_per_s\": {:.1},\n  \
             \"iterate_peak_resident\": {},\n  \"iterate_resident_bound\": {},\n  \
             \"converge_steps\": {},\n  \"converge_budget\": {},\n  \
             \"converged\": {},\n  \"final_delta\": {:.6e},\n  \
             \"violations\": {}\n}}\n",
            self.name,
            self.extents,
            self.steps,
            self.outputs,
            finite_or_zero(self.incore),
            finite_or_zero(self.streaming),
            self.peak_resident,
            self.resident_bound,
            self.converge_steps,
            self.converge_budget,
            self.converged,
            finite_or_zero(self.final_delta),
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
    let (out_path, rest) = match stencil_bench::bench_args("BENCH_6.json") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench6_iterate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let name = rest.first().cloned().unwrap_or_else(|| "DENOISE".into());
    let baseline_path = rest
        .get(1)
        .cloned()
        .unwrap_or_else(|| stencil_bench::workspace_path("BENCH_5.json"));
    let Some(bench) = paper_suite()
        .into_iter()
        .chain(extra_suite())
        .find(|b| b.name() == name)
    else {
        eprintln!("bench6_iterate: unknown benchmark `{name}`");
        return ExitCode::FAILURE;
    };
    // A shared box can deschedule one whole process for long enough to
    // halve its best-of-N numbers, so a failed throughput gate earns a
    // fresh measurement (keeping the per-configuration maximum) before
    // it fails the pipeline; correctness checks never get a retry.
    let mut m = match measure(&bench) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench6_iterate: {e}");
            return ExitCode::FAILURE;
        }
    };
    for attempt in 0..2 {
        if m.violations > 0 || !gate_fails(&m, &baseline_path) {
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
                m.violations += again.violations;
            }
            Err(e) => {
                eprintln!("bench6_iterate: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&out_path, m.to_json()) {
        eprintln!("bench6_iterate: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {out_path}: {} T={} ring, {} outputs; iterate in-core {:.1} Melem/s, \
         streaming {:.1} Melem/s, peak resident {} <= bound {}; \
         converged after {} of {} step(s) (delta {:.3e})",
        m.name,
        m.steps,
        m.outputs,
        m.incore / 1e6,
        m.streaming / 1e6,
        m.peak_resident,
        m.resident_bound,
        m.converge_steps,
        m.converge_budget,
        m.final_delta,
    );

    let mut failed = false;
    if m.violations > 0 {
        eprintln!("runtime bound checks: {} FAILED", m.violations);
        failed = true;
    }
    if m.peak_resident > m.resident_bound {
        eprintln!(
            "iterate peak residency {} exceeds the planned bound {}",
            m.peak_resident, m.resident_bound
        );
        failed = true;
    }
    if !m.converged {
        eprintln!(
            "iterate_until failed to converge within {} step(s) (final delta {:.3e})",
            m.converge_budget, m.final_delta
        );
        failed = true;
    }
    if baseline_gate(&m, &baseline_path, true) {
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

/// Evaluates the `BENCH_5.json` throughput gate, returning true on a
/// regression. The 2-stage chained baseline is normalised to a
/// per-stage work rate and extrapolated to the ring's depth before
/// comparing final-output throughputs. With `report` set, prints the
/// verdict; a missing or key-less baseline skips the gate (with a
/// note) rather than failing, so the first pipeline run bootstraps
/// cleanly.
fn baseline_gate(m: &Measurements, baseline_path: &str, report: bool) -> bool {
    let Ok(doc) = std::fs::read_to_string(baseline_path) else {
        if report {
            println!("no baseline at {baseline_path}; skipping the throughput gate");
        }
        return false;
    };
    let (Some(chained), Some(stages)) = (
        json_number(&doc, "chained_streaming_elem_per_s"),
        json_number(&doc, "chained_stages"),
    ) else {
        if report {
            eprintln!("baseline {baseline_path} carries no chained throughput; skipping that gate");
        }
        return false;
    };
    // Final-output rate of an equivalent depth-T chain: the baseline's
    // per-stage work rate spread across the ring's steps.
    let equivalent = chained * stages / m.steps as f64;
    let ratio = m.streaming / equivalent;
    if ratio < BASELINE_TOLERANCE {
        if report {
            eprintln!(
                "iterate streaming throughput regressed to {ratio:.2}x of the equivalent \
                 depth-{} chain from {baseline_path} ({:.1} vs {equivalent:.1} elem/s)",
                m.steps, m.streaming
            );
        }
        return true;
    }
    if report {
        println!(
            "iterate streaming throughput holds {ratio:.2}x of the equivalent depth-{} chain",
            m.steps
        );
    }
    false
}

/// Plans the benchmark at its full paper extents and measures the
/// T-step ring in core and streaming, cross-checking the ring outputs
/// against sequential materialised time steps, proving the streaming
/// residency bound, driving `iterate_until` to convergence on a
/// contractive relaxation, and validating every telemetry report.
#[allow(clippy::too_many_lines)]
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

    let mut violations = 0usize;
    let mut validate = |report: &MetricsReport| {
        let v = validate_report(report);
        for violation in &v {
            eprintln!("  violation: {violation}");
        }
        violations += v.len();
    };

    // Golden reference: fold the grid through one materialised
    // single-step run per time step (closure backend; `for_benchmark`
    // compiles checked against it, so the ring must match bit for
    // bit either way).
    let mut golden = Session::new(&plan)
        .kernel(SessionKernel::Closure(&compute))
        .run(&input)?
        .outputs;
    let mut cur_plan = plan.clone();
    for k in 1..STEPS {
        let next = cur_plan.chain_next(format!("{}@t{}", plan.name(), k + 1), bench.window())?;
        let idx = next.input_domain().index()?;
        let grid = InputGrid::new(&idx, &golden)?;
        golden = Session::new(&next)
            .kernel(SessionKernel::Closure(&compute))
            .run(&grid)?
            .outputs;
        cur_plan = next;
    }
    let outputs = golden.len() as u64;

    // T-step in-core ring; the warm-up doubles as the first
    // correctness check.
    let session = Session::new(&plan)
        .kernel(SessionKernel::Compiled(&kernel))
        .telemetry(spec.name())
        .iterate(STEPS)?;
    let mut incore = 0.0f64;
    for _ in 0..=RUNS {
        let run = session.run(&input)?;
        incore = incore.max(run.report.throughput());
        let mut report = MetricsReport::new(spec.name());
        report.sessions.push(run.report.metrics());
        validate(&report);
        if run.outputs != golden {
            return Err("in-core ring outputs diverge from sequential time steps".into());
        }
    }

    // The same ring streaming at a 64-row chunk, holding only the
    // coupled halo windows of the T steps resident.
    let session = Session::new(&plan)
        .kernel(SessionKernel::Compiled(&kernel))
        .mode(ExecMode::Streaming {
            chunk_rows: Some(64),
        })
        .threads(4)
        .telemetry(spec.name())
        .iterate(STEPS)?;
    let resident_bound = session.planned_residency_bound(Some(64))?;
    let mut streaming = 0.0f64;
    let mut peak_resident = 0u64;
    for _ in 0..RUNS {
        let mut source = SliceSource::new(&in_vals);
        let mut sink = VecSink::new();
        let report = session.run_streaming(&mut source, &mut sink)?;
        streaming = streaming.max(report.throughput());
        peak_resident = peak_resident.max(report.peak_resident);
        let mut metrics = MetricsReport::new(spec.name());
        metrics.sessions.push(report.metrics());
        validate(&metrics);
        if sink.values != golden {
            return Err("streaming ring outputs diverge from sequential time steps".into());
        }
    }

    // Convergence: a contractive Jacobi-style relaxation (tap weights
    // sum to 0.4) over the benchmark's own window, which must early-exit
    // well inside its step budget. The center tap is located from the
    // window so the weighting survives offset reordering.
    let center = bench
        .window()
        .iter()
        .position(|off| off.as_slice().iter().all(|&c| c == 0))
        .ok_or("benchmark window has no center tap")?;
    let taps = bench.window().len();
    let relax = move |w: &[f64]| -> f64 {
        let mut acc = 0.2 * w[center];
        let side = 0.2 / (taps - 1) as f64;
        for (i, v) in w.iter().enumerate() {
            if i != center {
                acc += side * v;
            }
        }
        acc
    };
    let budget = 64usize;
    let run = Session::new(&plan)
        .kernel(SessionKernel::Closure(&relax))
        .telemetry(spec.name())
        .iterate_until(&input, 1e-3, budget)?;
    let it = run
        .report
        .iterate
        .clone()
        .ok_or("iterate_until produced no iterate report")?;
    let mut report = MetricsReport::new(spec.name());
    report.sessions.push(run.report.metrics());
    validate(&report);

    Ok(Measurements {
        name: bench.name().to_string(),
        extents,
        steps: STEPS,
        outputs,
        incore,
        streaming,
        peak_resident,
        resident_bound,
        converge_steps: it.steps,
        converge_budget: it.max_steps,
        converged: it.converged,
        final_delta: it.final_delta,
        violations,
    })
}
