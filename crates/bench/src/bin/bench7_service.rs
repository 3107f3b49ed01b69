//! Emits `BENCH_7.json`: sharded serving front-end throughput, plan
//! cache behaviour, and backpressure under saturation.
//!
//! Three phases:
//!
//! * **Baseline.** Best-of-N single-session in-core throughput with the
//!   exact configuration a pool worker uses (one session thread), so
//!   the pool speedup below compares like with like.
//! * **Saturating stream.** A batch of identical auto-sharded jobs
//!   through a 4-worker [`ServiceFront`] with a residency budget; the
//!   aggregate rate divided by the baseline is the pool speedup.
//! * **Backpressure flood.** A separate depth-2/1-worker front absorbs
//!   a burst of instant submissions; some must be rejected with a
//!   retry-after hint.
//!
//! Three CI gates:
//!
//! * the pool speedup must reach `SERVICE_SPEEDUP_FLOOR` (2.5x at pool
//!   width 4), prorated by the machine's available parallelism — a
//!   1-core container cannot run a pool 4 wide, so the floor scales by
//!   `min(cores, workers) / workers` with the usual best-of-N
//!   tolerance, and a missed gate earns one fresh measurement;
//! * both phases' aggregated telemetry must pass the runtime bound
//!   validator (`Residency` and `Admission` included) with zero violations;
//! * the plan cache must reach steady state: `tile_plans_built == 0`
//!   (every session is seeded from the shared cache) and at most one
//!   miss per distinct shard geometry — repeat jobs never rebuild.
//!
//! Usage: `bench7_service [--out OUT.json] [BENCHMARK [BASELINE.json]]`
//! (defaults: `BENCH_7.json` at the workspace root, `DENOISE`,
//! workspace-root `BENCH_5.json`; a leading positional `.json` path is
//! still accepted as OUT). When the
//! `BENCH_5.json` baseline exists its single-session in-core rate is
//! reported alongside for cross-process comparison, but the gate uses
//! the in-process baseline.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use stencil_core::MemorySystemPlan;
use stencil_engine::{
    ExecMode, InputGrid, JobRequest, ServiceConfig, ServiceFront, Session, ShardPolicy, Submission,
};
use stencil_kernels::{extra_suite, paper_suite, Benchmark};
use stencil_telemetry::validate_report;

/// Required pool-4 aggregate speedup over the single-session baseline
/// at full pool parallelism.
const SERVICE_SPEEDUP_FLOOR: f64 = 2.5;

/// Margin for scheduler noise. Wider than the other bench binaries'
/// 0.75: their gates compare one measured quantity against a stored
/// baseline, while this gate is a *ratio of two fresh measurements* —
/// jitter in the single-session denominator (best-of-3 spikes on a
/// shared box) compounds with jitter in the aggregate numerator.
const BASELINE_TOLERANCE: f64 = 0.6;

/// Worker pool width of the measured front.
const WORKERS: usize = 4;

/// Jobs in the saturating stream.
const JOBS: usize = 12;

/// The measured serving numbers written to `BENCH_7.json`.
struct Measurements {
    name: String,
    extents: Vec<i64>,
    jobs: u64,
    workers: u64,
    outputs: u64,
    single: f64,
    aggregate: f64,
    speedup: f64,
    peak_resident: u64,
    admitted_bound_peak: u64,
    plan_cache_hits: u64,
    plan_cache_misses: u64,
    tile_plans_built: u64,
    rejections_observed: u64,
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
    /// The flat JSON document written to `BENCH_7.json`.
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"{}\",\n  \"extents\": {:?},\n  \
             \"jobs\": {},\n  \"workers\": {},\n  \"outputs\": {},\n  \
             \"single_session_elem_per_s\": {:.1},\n  \
             \"service_aggregate_elem_per_s\": {:.1},\n  \
             \"service_speedup\": {:.3},\n  \
             \"service_peak_resident\": {},\n  \
             \"service_admitted_bound_peak\": {},\n  \
             \"plan_cache_hits\": {},\n  \"plan_cache_misses\": {},\n  \
             \"tile_plans_built\": {},\n  \"rejections_observed\": {},\n  \
             \"violations\": {}\n}}\n",
            self.name,
            self.extents,
            self.jobs,
            self.workers,
            self.outputs,
            finite_or_zero(self.single),
            finite_or_zero(self.aggregate),
            finite_or_zero(self.speedup),
            self.peak_resident,
            self.admitted_bound_peak,
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.tile_plans_built,
            self.rejections_observed,
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

/// Deterministic pseudo-random input values in rank order.
fn input_values(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005u64)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f64) / 256.0
        })
        .collect()
}

fn measure(bench: &Benchmark) -> Result<Measurements, Box<dyn std::error::Error>> {
    let extents = bench.extents().to_vec();
    let n: i64 = extents.iter().product();
    let input = Arc::new(input_values(usize::try_from(n)?, 0x5EED_BA5E_D00D));

    // Phase 1: single-session baseline, one session thread — the exact
    // worker configuration, so the speedup isolates pool parallelism.
    let spec = bench.spec_for(&extents)?;
    let plan = MemorySystemPlan::generate(&spec)?;
    let idx = plan.input_domain().index()?;
    let grid = InputGrid::new(&idx, &input)?;
    let stage = bench.stage();
    // Wall-clock rate, not the run report's kernel-only rate: the
    // service's aggregate below is wall-clock (it includes session
    // setup, validation, and merge), so the baseline must be too.
    let mut single = 0.0f64;
    let mut reference: Vec<f64> = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let session = Session::build(&plan, &stage)?.threads(1);
        let run = session.run(&grid)?;
        single = single.max(stencil_engine::finite_throughput(
            run.outputs.len() as u64,
            t0.elapsed(),
        ));
        reference = run.outputs;
    }

    // Phase 2: saturating stream through the 4-worker front. The
    // budget holds half the batch, so admission control is active, and
    // every job auto-shards to the pool width.
    let single_bound = idx.len();

    // Untimed warm-up batch: fault pages in, spin the pool up, and let
    // the frequency governor settle before anything is measured —
    // the same role as the other bench binaries' warm-up runs.
    {
        let warm = ServiceFront::new(ServiceConfig {
            workers: WORKERS,
            queue_depth: JOBS * WORKERS,
            memory_budget: 0,
            session_threads: 1,
        });
        let warm_req = JobRequest {
            benchmark: bench.clone(),
            extents: Some(extents.clone()),
            mode: ExecMode::InCore,
            shards: ShardPolicy::Auto,
            input: Arc::clone(&input).into(),
        };
        for _ in 0..2 {
            let _ = warm.submit(&warm_req)?;
        }
        let _ = warm.finish();
    }
    let front = ServiceFront::new(ServiceConfig {
        workers: WORKERS,
        queue_depth: JOBS * WORKERS,
        memory_budget: single_bound.saturating_mul(JOBS as u64).saturating_div(2)
            + single_bound * 2,
        session_threads: 1,
    });
    let req = JobRequest {
        benchmark: bench.clone(),
        extents: Some(extents.clone()),
        mode: ExecMode::InCore,
        shards: ShardPolicy::Auto,
        input: Arc::clone(&input).into(),
    };
    let started = Instant::now();
    let mut submitted = 0usize;
    while submitted < JOBS {
        match front.submit(&req)? {
            Submission::Admitted(_) => submitted += 1,
            Submission::Rejected(rej) => std::thread::sleep(rej.retry_after),
        }
    }
    let outcome = front.finish();
    let elapsed = started.elapsed();
    for job in &outcome.jobs {
        if let Some(e) = &job.error {
            return Err(format!("{}: {e}", job.label).into());
        }
        if job.outputs != reference {
            return Err(format!(
                "{}: sharded service outputs diverge from the single session",
                job.label
            )
            .into());
        }
    }
    let report = outcome.report(bench.name());
    let mut violations = 0usize;
    for v in validate_report(&report) {
        eprintln!("  violation: {v}");
        violations += 1;
    }
    let m = outcome.metrics;
    let aggregate = stencil_engine::finite_throughput(m.outputs_produced, elapsed);

    // Phase 3: backpressure flood on a deliberately tiny front. Small
    // grids keep it fast; the burst must overflow a depth-2 queue.
    let flood_extents = vec![96i64, 64];
    let flood_input = Arc::new(input_values(96 * 64, 0xF100D));
    let flood = ServiceFront::new(ServiceConfig {
        workers: 1,
        queue_depth: 2,
        memory_budget: 0,
        session_threads: 1,
    });
    let flood_req = JobRequest {
        benchmark: bench.clone(),
        extents: Some(flood_extents),
        mode: ExecMode::InCore,
        shards: ShardPolicy::Whole,
        input: flood_input.into(),
    };
    for _ in 0..64 {
        let _ = flood.submit(&flood_req)?;
    }
    let flood_outcome = flood.finish();
    for v in validate_report(&flood_outcome.report("flood")) {
        eprintln!("  violation (flood): {v}");
        violations += 1;
    }
    let rejections_observed = flood_outcome.metrics.jobs_rejected;

    Ok(Measurements {
        name: bench.name().to_string(),
        extents,
        jobs: JOBS as u64,
        workers: WORKERS as u64,
        outputs: m.outputs_produced,
        single,
        aggregate,
        speedup: if single > 0.0 {
            aggregate / single
        } else {
            0.0
        },
        peak_resident: m.peak_resident,
        admitted_bound_peak: m.admitted_bound_peak,
        plan_cache_hits: m.plan_cache_hits,
        plan_cache_misses: m.plan_cache_misses,
        tile_plans_built: m.tile_plans_built,
        rejections_observed,
        violations,
    })
}

/// The speedup floor prorated to the machine: a pool cannot run wider
/// than the cores it has, so the 2.5x-at-4-workers requirement scales
/// by `min(cores, workers) / workers`, with the best-of-N tolerance.
fn speedup_floor() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let width = cores.min(WORKERS) as f64 / WORKERS as f64;
    SERVICE_SPEEDUP_FLOOR * width * BASELINE_TOLERANCE
}

/// The hard structural gates (no retry): zero validator violations,
/// observable backpressure, and a steady-state plan cache.
fn structural_failures(m: &Measurements) -> Vec<String> {
    let mut fails = Vec::new();
    if m.violations > 0 {
        fails.push(format!("{} validator violation(s)", m.violations));
    }
    if m.rejections_observed == 0 {
        fails.push("flooded depth-2 queue produced no backpressure rejections".into());
    }
    if m.tile_plans_built > 0 {
        fails.push(format!(
            "{} tile plan(s) built inside sessions; the shared cache should seed them all",
            m.tile_plans_built
        ));
    }
    // Auto-sharding one geometry yields at most two distinct band
    // heights (floor and ceil of the even split); repeats must hit.
    if m.plan_cache_misses > 2 {
        fails.push(format!(
            "{} plan-cache misses for a single repeated geometry (steady state is <= 2)",
            m.plan_cache_misses
        ));
    }
    fails
}

fn main() -> ExitCode {
    let (out_path, rest) = match stencil_bench::bench_args("BENCH_7.json") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench7_service: {e}");
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
        eprintln!("bench7_service: unknown benchmark `{name}`");
        return ExitCode::FAILURE;
    };
    // A shared box can deschedule one whole process for long enough to
    // halve its best-of-N numbers, so a failed speedup gate earns a
    // fresh measurement (keeping the better ratio) before it fails the
    // pipeline; correctness and structural checks never get a retry.
    let mut m = match measure(&bench) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench7_service: {e}");
            return ExitCode::FAILURE;
        }
    };
    let floor = speedup_floor();
    for attempt in 0..2 {
        if !structural_failures(&m).is_empty() || m.speedup >= floor {
            break;
        }
        eprintln!(
            "speedup gate missed ({:.3} < {floor:.3}); re-measuring (attempt {})",
            m.speedup,
            attempt + 2
        );
        match measure(&bench) {
            Ok(again) => {
                if again.speedup > m.speedup {
                    m = again;
                } else {
                    m.violations += again.violations;
                }
            }
            Err(e) => {
                eprintln!("bench7_service: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&out_path, m.to_json()) {
        eprintln!("bench7_service: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {out_path}: {} x{} jobs on {} workers; single {:.1} Melem/s, \
         aggregate {:.1} Melem/s ({:.2}x), cache {}H/{}M, {} rejection(s) under flood",
        m.name,
        m.jobs,
        m.workers,
        m.single / 1e6,
        m.aggregate / 1e6,
        m.speedup,
        m.plan_cache_hits,
        m.plan_cache_misses,
        m.rejections_observed
    );
    if let Ok(doc) = std::fs::read_to_string(&baseline_path) {
        if let Some(b5) = json_number(&doc, "session_incore_elem_per_s") {
            println!(
                "cross-process: aggregate is {:.2}x the {baseline_path} in-core session",
                m.aggregate / b5
            );
        }
    } else {
        println!("no baseline at {baseline_path}; skipping the cross-process comparison");
    }
    let fails = structural_failures(&m);
    for f in &fails {
        eprintln!("bench7_service: gate FAILED: {f}");
    }
    if m.speedup < floor {
        eprintln!(
            "bench7_service: gate FAILED: pool speedup {:.3} below the prorated floor {floor:.3}",
            m.speedup
        );
        return ExitCode::FAILURE;
    }
    if fails.is_empty() {
        println!("all serving gates passed (speedup floor {floor:.3})");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
