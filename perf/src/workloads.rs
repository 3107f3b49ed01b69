//! The three workloads, their inputs and references, and the closed
//! job loop every workload shares.
//!
//! A workload function does its set-up, runs one untimed warm-up job
//! (whose completion ends the set-up clock), computes its reference
//! outputs, verifies the warm-up job and then, when measuring, runs
//! jobs back to back until the run length is spent. Every job's output
//! is compared bit for bit with the reference after the job's clock
//! stops. The references come from an in-core `Session` on the closure
//! backend, which the library's differential suite pins to the golden
//! model.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::json::{field, object, FromValue, JsonError, ToValue, Value};
use stencil_core::MemorySystemPlan;
use stencil_engine::{
    EngineError, ExecMode, InputGrid, JobId, JobInput, JobRequest, KernelBackend, MappedGrid,
    MmapSink, MmapSource, RowSink, RowSource, ServiceConfig, ServiceFront, ServiceOutcome, Session,
    SessionKernel, SessionReport, ShardPolicy, Submission,
};
use stencil_kernels::{blur3x3, denoise, rician, sobel, Benchmark};
use stencil_telemetry::ServiceMetrics;

use crate::stats::median;
use crate::trace::{Span, TimedSink, TimedSource, Tracer};

/// Workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 3] = ["warm_incore", "ring8_stream", "serve_mixed"];

/// End-to-end metrics (name, unit), reported by untraced runs.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_melem_s", "Melem/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (name, unit), reported by traced runs. A `_share`
/// is a layer's time per job divided by the traced job's wall time.
pub const LAYERS: [(&str, &str); 38] = [
    ("format.open_share", "ratio"),
    ("format.sink_create_share", "ratio"),
    ("plan.generate_share", "ratio"),
    ("session.build_share", "ratio"),
    ("stream.source_pull_share", "ratio"),
    ("stream.sink_push_share", "ratio"),
    ("stream.sink_finish_share", "ratio"),
    ("stream.sink_rows", "count"),
    ("stream.values_copied", "count"),
    ("stream.peak_resident", "values"),
    ("stream.resident_bound", "values"),
    ("engine.run_share", "ratio"),
    ("engine.exec_share", "ratio"),
    ("rowexec.bands", "count"),
    ("rowexec.threads_used", "count"),
    ("rowexec.busy_share", "ratio"),
    ("rowexec.sweep_rows", "count"),
    ("rowexec.fast_rows", "count"),
    ("rowexec.gather_rows", "count"),
    ("rowexec.sweep_share", "ratio"),
    ("rowexec.computed_gb_s", "GB/s"),
    ("chain.stages", "count"),
    ("chain.handoff_values", "count"),
    ("chain.exec_share_per_stage", "ratio"),
    ("serve.front_new_share", "ratio"),
    ("serve.submit_share", "ratio"),
    ("serve.drain_share", "ratio"),
    ("serve.finish_share", "ratio"),
    ("serve.plan_cache_hits", "count"),
    ("serve.plan_cache_misses", "count"),
    ("serve.tile_plans_built", "count"),
    ("serve.shards_executed", "count"),
    ("serve.jobs_failed", "count"),
    ("serve.rejected_share", "ratio"),
    ("serve.peak_resident", "values"),
    ("serve.admitted_bound_peak", "values"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_share", "ratio"),
];

/// The `_share` metrics and the span each one divides by the job time.
const SPAN_SHARES: [(&str, &str); 12] = [
    ("format.open_share", "format.open"),
    ("format.sink_create_share", "format.sink_create"),
    ("plan.generate_share", "plan.generate"),
    ("session.build_share", "session.build"),
    ("stream.source_pull_share", "stream.source_pull"),
    ("stream.sink_push_share", "stream.sink_push"),
    ("stream.sink_finish_share", "stream.sink_finish"),
    ("engine.run_share", "engine.run"),
    ("serve.front_new_share", "serve.front_new"),
    ("serve.submit_share", "serve.submit"),
    ("serve.drain_share", "serve.drain"),
    ("serve.finish_share", "serve.finish"),
];

/// Streaming band height of every streaming job.
const CHUNK_ROWS: Option<u64> = Some(64);

/// Time steps of the `ring8_stream` ring.
const RING_STEPS: usize = 8;

/// Jobs a measured run completes even when its run length is shorter.
const MIN_ROUNDS: u64 = 3;

/// What one run of a workload does and where its grids live.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Grid extents divided by 8, for the smoke test.
    pub small: bool,
    pub dir: PathBuf,
}

impl Ctx {
    fn extents(&self, full: [i64; 2]) -> Vec<i64> {
        if self.small {
            full.iter().map(|e| (e / 8).max(16)).collect()
        } else {
            full.to_vec()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Set up and run the first job only: one `setup_s` sample.
    Setup,
    /// Set up, warm up, then run jobs for the run length.
    Measure,
}

/// One input grid: a kernel, its extents and the file holding it.
struct Grid {
    bench: Benchmark,
    extents: Vec<i64>,
    tag: u64,
    path: PathBuf,
}

impl Grid {
    fn new(ctx: &Ctx, tag: u64, bench: Benchmark, full: [i64; 2]) -> Grid {
        Grid {
            bench,
            extents: ctx.extents(full),
            tag,
            path: ctx.dir.join(format!("in-{tag}.sgrid")),
        }
    }

    /// The grid's values from the seed: the repository's LCG, started
    /// from a state that mixes the seed with the grid's tag.
    fn values(&self, seed: u64) -> Vec<f64> {
        let n: i64 = self.extents.iter().product();
        let mut state = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.tag);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as f64) / 256.0
            })
            .collect()
    }

    fn file_extents(&self) -> Vec<u64> {
        self.extents.iter().map(|&e| e as u64).collect()
    }

    /// Output extents after `steps` applications of the kernel's
    /// window: each step erodes every dimension by the window's span.
    fn output_extents(&self, steps: usize) -> Vec<u64> {
        let w = self.bench.window();
        (0..self.extents.len())
            .map(|d| {
                let lo = w.iter().map(|p| p[d]).min().unwrap_or(0);
                let hi = w.iter().map(|p| p[d]).max().unwrap_or(0);
                (self.extents[d] - steps as i64 * (hi - lo)) as u64
            })
            .collect()
    }

    /// The closure-backend in-core reference outputs for this grid's
    /// values after `steps` kernel applications.
    fn reference(&self, values: &[f64], steps: usize) -> Result<Vec<f64>, String> {
        let spec = self.bench.spec_for(&self.extents).map_err(err)?;
        let plan = MemorySystemPlan::generate(&spec).map_err(err)?;
        let index = plan.input_domain().index().map_err(err)?;
        let grid = InputGrid::new(&index, values).map_err(err)?;
        let compute = self.bench.compute_fn();
        let session = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .backend(KernelBackend::Closure);
        let session = if steps > 1 {
            session.iterate(steps).map_err(err)?
        } else {
            session
        };
        Ok(session.run(&grid).map_err(err)?.outputs)
    }
}

/// The grids a workload reads from `.sgrid` files.
fn file_inputs(workload: &str, ctx: &Ctx) -> Vec<Grid> {
    match workload {
        "ring8_stream" => vec![Grid::new(ctx, 2, denoise(), [768, 1024])],
        "serve_mixed" => vec![
            Grid::new(ctx, 10, denoise(), [768, 1024]),
            Grid::new(ctx, 11, sobel(), [1024, 1024]),
            Grid::new(ctx, 12, denoise(), [128, 128]),
            Grid::new(ctx, 13, rician(), [128, 128]),
            Grid::new(ctx, 14, blur3x3(), [128, 128]),
            Grid::new(ctx, 15, sobel(), [128, 128]),
        ],
        _ => Vec::new(),
    }
}

/// Writes the workload's input files (before any timed process runs).
pub fn prepare(workload: &str, ctx: &Ctx) -> Result<(), String> {
    std::fs::create_dir_all(&ctx.dir).map_err(err)?;
    for g in file_inputs(workload, ctx) {
        stencil_engine::pack_grid(&g.path, &g.file_extents(), &g.values(ctx.seed)).map_err(err)?;
    }
    Ok(())
}

/// Removes the files [`prepare`] and the jobs wrote.
pub fn cleanup(workload: &str, ctx: &Ctx) {
    for g in file_inputs(workload, ctx) {
        let _ = std::fs::remove_file(&g.path);
    }
    let _ = std::fs::remove_file(output_path(workload, ctx));
}

fn output_path(workload: &str, ctx: &Ctx) -> PathBuf {
    ctx.dir.join(format!("{workload}-out.sgrid"))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// What a child process reports back for one workload.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// From the first library call to the end of the first job.
    pub setup_s: f64,
    /// Wall time of each untraced timed job, in order.
    pub latency_ms: Vec<f64>,
    /// Stencil point updates (summed over stages) of each of those jobs.
    pub outputs: Vec<u64>,
    /// Jobs attempted and jobs that errored or mismatched (a
    /// `serve_mixed` batch counts each of its jobs).
    pub attempted: u64,
    pub failed: u64,
    /// The first error or mismatch seen, for the log.
    pub first_error: Option<String>,
    /// The process's high-water mark when the first job completed, and
    /// at the end of the run.
    pub peak_rss_mib: f64,
    pub steady_rss_mib: f64,
    /// Memory the benchmark itself holds: inputs and references.
    pub bench_buffers_mib: f64,
    /// The CPU the process was pinned to, if it was.
    pub pinned_cpu: Option<u64>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Median total and self milliseconds per traced job of each span.
    pub span_ms: BTreeMap<String, (f64, f64)>,
}

impl Outcome {
    /// Stops the set-up clock: the first job has just completed.
    fn set_up(&mut self, started: Instant) {
        self.setup_s = started.elapsed().as_secs_f64();
        self.peak_rss_mib = peak_rss_mib();
    }

    fn tally(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.first_error.is_none() {
            self.first_error = Some(format!(
                "{what}: {failed} output(s) differ from the reference"
            ));
        }
    }

    fn error(&mut self, attempted: u64, e: String) {
        self.attempted += attempted;
        self.failed += attempted;
        self.first_error.get_or_insert(e);
    }
}

impl ToValue for Outcome {
    fn to_value(&self) -> Value {
        object(vec![
            ("setup_s", self.setup_s.to_value()),
            ("latency_ms", self.latency_ms.to_value()),
            ("outputs", self.outputs.to_value()),
            ("attempted", self.attempted.to_value()),
            ("failed", self.failed.to_value()),
            ("first_error", self.first_error.to_value()),
            ("peak_rss_mib", self.peak_rss_mib.to_value()),
            ("steady_rss_mib", self.steady_rss_mib.to_value()),
            ("bench_buffers_mib", self.bench_buffers_mib.to_value()),
            ("pinned_cpu", self.pinned_cpu.to_value()),
            (
                "layers",
                Value::Object(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_value()))
                        .collect(),
                ),
            ),
            (
                "span_ms",
                Value::Object(
                    self.span_ms
                        .iter()
                        .map(|(k, &(t, s))| (k.clone(), vec![t, s].to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromValue for Outcome {
    fn from_value(v: &Value) -> Result<Self, JsonError> {
        let entries = |key: &str| match v.get(key) {
            Some(Value::Object(fields)) => fields.clone(),
            _ => Vec::new(),
        };
        let span_ms = entries("span_ms")
            .into_iter()
            .map(|(k, x)| match Vec::<f64>::from_value(&x)?[..] {
                [total, own] => Ok((k, (total, own))),
                _ => Err(JsonError::conversion(format!(
                    "span `{k}`: not [total, self]"
                ))),
            })
            .collect::<Result<_, JsonError>>()?;
        Ok(Outcome {
            setup_s: field(v, "setup_s")?,
            latency_ms: field(v, "latency_ms")?,
            outputs: field(v, "outputs")?,
            attempted: field(v, "attempted")?,
            failed: field(v, "failed")?,
            first_error: field(v, "first_error")?,
            peak_rss_mib: field(v, "peak_rss_mib")?,
            steady_rss_mib: field(v, "steady_rss_mib")?,
            bench_buffers_mib: field(v, "bench_buffers_mib")?,
            pinned_cpu: field(v, "pinned_cpu")?,
            layers: entries("layers")
                .into_iter()
                .map(|(k, x)| Ok((k, f64::from_value(&x)?)))
                .collect::<Result<_, JsonError>>()?,
            span_ms,
        })
    }
}

/// The library report a job returns, read after its clock stops.
enum Rep {
    Session(SessionReport),
    Service(ServiceMetrics),
}

/// A finished job: stencil point updates, its report and its output.
struct Done<T> {
    outputs: u64,
    rep: Rep,
    out: T,
}

type JobFn<'a, T> = dyn FnMut(&Tracer) -> Result<Done<T>, String> + 'a;

/// Runs `workload` in this process and reports what it measured.
pub fn run(workload: &str, ctx: &Ctx, phase: Phase, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match workload {
        "ring8_stream" => ring_stream(ctx, phase, tracer, &mut out)?,
        "warm_incore" => warm_incore(ctx, phase, tracer, &mut out)?,
        "serve_mixed" => serve_mixed(ctx, phase, tracer, &mut out)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    out.steady_rss_mib = peak_rss_mib();
    Ok(out)
}

/// `.sgrid` in, a `RING_STEPS`-step streaming ring, `.sgrid` out;
/// planning, session construction and the files are part of each job.
fn ring_stream(ctx: &Ctx, phase: Phase, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let workload = "ring8_stream";
    let grid = file_inputs(workload, ctx)
        .pop()
        .ok_or("workload has no input grid")?;
    let output = output_path(workload, ctx);
    let out_extents = grid.output_extents(RING_STEPS);
    let stage = grid.bench.stage();

    let started = Instant::now();
    let spec = grid.bench.spec_for(&grid.extents).map_err(err)?;
    let mut job = |t: &Tracer| -> Result<Done<()>, String> {
        let mut source = t
            .span("format.open", || MmapSource::open(&grid.path))
            .map_err(err)?;
        let plan = t
            .span("plan.generate", || MemorySystemPlan::generate(&spec))
            .map_err(err)?;
        let session = t
            .span("session.build", || {
                Session::build(&plan, &stage)?
                    .mode(ExecMode::Streaming {
                        chunk_rows: CHUNK_ROWS,
                    })
                    .iterate(RING_STEPS)
            })
            .map_err(err)?;
        let mut sink = t
            .span("format.sink_create", || {
                MmapSink::create(&output, &out_extents)
            })
            .map_err(err)?;
        let report = run_streaming(t, &session, &mut source, &mut sink).map_err(err)?;
        Ok(Done {
            outputs: stage_outputs(&report),
            rep: Rep::Session(report),
            out: (),
        })
    };
    let first = job(&Tracer::new(false));
    out.set_up(started);

    let input = MappedGrid::open(&grid.path).map_err(err)?;
    let reference = grid.reference(input.values(), RING_STEPS)?;
    out.bench_buffers_mib = mib(reference.len() * 8);
    let verify = |_: &()| {
        let ok = MappedGrid::open(&output).is_ok_and(|g| same_bits(g.values(), &reference));
        (1, u64::from(!ok))
    };
    finish(ctx, phase, tracer, first, &mut job, &verify, out)
}

/// One resident grid and one in-core session built at set-up; a job is
/// one `Session::run`.
fn warm_incore(ctx: &Ctx, phase: Phase, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let grid = Grid::new(ctx, 1, denoise(), [768, 1024]);
    let values = grid.values(ctx.seed);
    let stage = grid.bench.stage();

    let started = Instant::now();
    let spec = grid.bench.spec_for(&grid.extents).map_err(err)?;
    let plan = tracer
        .span("plan.generate", || MemorySystemPlan::generate(&spec))
        .map_err(err)?;
    let index = plan.input_domain().index().map_err(err)?;
    let input = InputGrid::new(&index, &values).map_err(err)?;
    let session = tracer
        .span("session.build", || Session::build(&plan, &stage))
        .map_err(err)?;
    let mut job = |t: &Tracer| -> Result<Done<Vec<f64>>, String> {
        let run = t.span("engine.run", || session.run(&input)).map_err(err)?;
        Ok(Done {
            outputs: stage_outputs(&run.report),
            rep: Rep::Session(run.report),
            out: run.outputs,
        })
    };
    let first = job(&Tracer::new(false));
    out.set_up(started);

    let reference = grid.reference(&values, 1)?;
    out.bench_buffers_mib = mib((values.len() + reference.len()) * 8);
    let verify = |o: &Vec<f64>| (1, u64::from(!same_bits(o, &reference)));
    finish(ctx, phase, tracer, first, &mut job, &verify, out)
}

/// One batch through a fresh `ServiceFront`: 24 mapped jobs of mixed
/// kernels, sizes and modes, submitted in a seed-shuffled order.
fn serve_mixed(ctx: &Ctx, phase: Phase, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let grids = file_inputs("serve_mixed", ctx);
    let incore = ExecMode::InCore;
    let streaming = ExecMode::Streaming {
        chunk_rows: CHUNK_ROWS,
    };
    // (grid, mode, copies): 4x DENOISE full in core, 2x DENOISE full
    // streaming, 2x SOBEL 1024^2, and 4 each of the small kernels.
    let mix = [
        (0, incore, 4),
        (0, streaming, 2),
        (1, incore, 2),
        (2, incore, 4),
        (3, incore, 4),
        (4, incore, 4),
        (5, incore, 4),
    ];
    let mut order: Vec<(usize, ExecMode)> = mix
        .iter()
        .flat_map(|&(g, mode, n)| std::iter::repeat_n((g, mode), n))
        .collect();
    shuffle(&mut order, ctx.seed);
    let mut requests: Vec<JobRequest> = order
        .iter()
        .map(|&(g, mode)| JobRequest {
            benchmark: grids[g].bench.clone(),
            extents: Some(grids[g].extents.clone()),
            mode,
            shards: ShardPolicy::Auto,
            input: JobInput::InMemory(Default::default()),
        })
        .collect();
    let config = ServiceConfig {
        workers: cores(),
        session_threads: 1,
        queue_depth: 64,
        memory_budget: 0,
    };

    let started = Instant::now();
    let mut job = |t: &Tracer| -> Result<Done<(Vec<JobId>, ServiceOutcome)>, String> {
        let front = t.span("serve.front_new", || ServiceFront::new(config.clone()));
        let mut ids = Vec::with_capacity(order.len());
        for (req, &(g, _)) in requests.iter_mut().zip(&order) {
            req.input = t
                .span("format.open", || MappedGrid::open(&grids[g].path))
                .map_err(err)?
                .into();
            loop {
                match t.span("serve.submit", || front.submit(req)).map_err(err)? {
                    Submission::Admitted(id) => break ids.push(id),
                    Submission::Rejected(r) => std::thread::sleep(r.retry_after),
                }
            }
        }
        t.span("serve.drain", || front.wait_idle());
        let outcome = t.span("serve.finish", || front.finish());
        Ok(Done {
            outputs: outcome.metrics.outputs_produced,
            rep: Rep::Service(outcome.metrics.clone()),
            out: (ids, outcome),
        })
    };
    let first = job(&Tracer::new(false));
    out.set_up(started);

    let mut references = Vec::with_capacity(grids.len());
    for g in &grids {
        let input = MappedGrid::open(&g.path).map_err(err)?;
        references.push(g.reference(input.values(), 1)?);
    }
    out.bench_buffers_mib = mib(references.iter().map(|r| r.len() * 8).sum());
    let verify = |(ids, outcome): &(Vec<JobId>, ServiceOutcome)| {
        let good = ids
            .iter()
            .zip(&order)
            .filter(|&(&id, &(g, _))| {
                outcome
                    .jobs
                    .get(id)
                    .is_some_and(|j| j.error.is_none() && same_bits(&j.outputs, &references[g]))
            })
            .count();
        (order.len() as u64, (order.len() - good) as u64)
    };
    finish(ctx, phase, tracer, first, &mut job, &verify, out)
}

/// Verifies the warm-up job and, when measuring, runs the job loop.
fn finish<T>(
    ctx: &Ctx,
    phase: Phase,
    tracer: &Tracer,
    first: Result<Done<T>, String>,
    job: &mut JobFn<'_, T>,
    verify: &dyn Fn(&T) -> (u64, u64),
    out: &mut Outcome,
) -> Result<(), String> {
    let per_job = match &first {
        Ok(done) => {
            let (attempted, failed) = verify(&done.out);
            out.tally(attempted, failed, "warm-up job");
            attempted
        }
        Err(e) => return Err(format!("warm-up job failed: {e}")),
    };
    if phase == Phase::Measure {
        measure(ctx, tracer, job, verify, per_job, out);
    }
    Ok(())
}

/// The closed job loop: one client, each job starting when the last
/// one's output has been checked, until the run length is spent. With
/// tracing on, every round runs one untraced job and one traced job, so
/// the traced run measures its own overhead.
fn measure<T>(
    ctx: &Ctx,
    tracer: &Tracer,
    job: &mut JobFn<'_, T>,
    verify: &dyn Fn(&T) -> (u64, u64),
    per_job: u64,
    out: &mut Outcome,
) {
    let off = Tracer::new(false);
    let mut layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut spans_ms: BTreeMap<&'static str, Vec<(f64, f64)>> = BTreeMap::new();
    let mut traced = (0u64, 0.0f64);
    let start = Instant::now();
    let mut round = 0u64;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < ctx.seconds {
        round += 1;
        let clock = Instant::now();
        let result = job(&off);
        let ms = clock.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(done) => {
                out.latency_ms.push(ms);
                out.outputs.push(done.outputs);
                let (a, f) = verify(&done.out);
                out.tally(a, f, "job");
            }
            Err(e) => out.error(per_job, e),
        }
        if !tracer.on() {
            continue;
        }
        let mark = tracer.mark();
        let clock = Instant::now();
        let result = tracer.job(round, || job(tracer));
        let elapsed = clock.elapsed();
        match result {
            Ok(done) => {
                let spans = tracer.since(mark);
                traced.0 += done.outputs;
                traced.1 += elapsed.as_secs_f64();
                layers.push(layer_values(&spans, mark, &done));
                for (name, total, own) in span_times(&spans, mark) {
                    spans_ms.entry(name).or_default().push((total, own));
                }
                let (a, f) = verify(&done.out);
                out.tally(a, f, "traced job");
            }
            Err(e) => out.error(per_job, e),
        }
    }
    if !tracer.on() {
        return;
    }
    for (name, _) in LAYERS {
        let values: Vec<f64> = layers.iter().map(|m| m[name]).collect();
        out.layers.insert(name.to_string(), median(&values));
    }
    let untraced_rate = out.outputs.iter().sum::<u64>() as f64 / out.latency_ms.iter().sum::<f64>();
    let traced_rate = traced.0 as f64 / (traced.1 * 1e3);
    out.layers.insert(
        "trace.overhead_pct".into(),
        (untraced_rate / traced_rate - 1.0) * 100.0,
    );
    for (name, samples) in spans_ms {
        let totals: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let owns: Vec<f64> = samples.iter().map(|s| s.1).collect();
        out.span_ms
            .insert(name.to_string(), (median(&totals), median(&owns)));
    }
}

/// Runs a streaming session between the endpoints, wrapping them in
/// the timing pass-throughs when the tracer is on.
fn run_streaming(
    t: &Tracer,
    session: &Session<'_>,
    source: &mut dyn RowSource,
    sink: &mut dyn RowSink,
) -> Result<SessionReport, EngineError> {
    if !t.on() {
        return session.run_streaming(source, sink);
    }
    let mut source = TimedSource::new(source, t);
    let mut sink = TimedSink::new(sink, t);
    t.span("engine.run", || {
        session.run_streaming(&mut source, &mut sink)
    })
}

/// Stencil point updates of a run: outputs summed over its stages.
fn stage_outputs(report: &SessionReport) -> u64 {
    report
        .stages
        .iter()
        .map(|s| {
            s.engine
                .as_ref()
                .map(|r| r.outputs)
                .or_else(|| s.stream.as_ref().map(|r| r.outputs))
                .unwrap_or(0)
        })
        .sum()
}

/// Total and self milliseconds of every span name in one traced job;
/// `spans[0]` is the job span and `base` its index in the tracer.
fn span_times(spans: &[Span], base: usize) -> Vec<(&'static str, f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            child_ns[p] += s.ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let e = by_name.entry(s.name).or_default();
        e.0 += s.ns();
        e.1 += s.ns().saturating_sub(c);
    }
    by_name
        .into_iter()
        .map(|(n, (t, o))| (n, t as f64 / 1e6, o as f64 / 1e6))
        .collect()
}

/// The per-layer metrics of one traced job.
fn layer_values<T>(spans: &[Span], base: usize, done: &Done<T>) -> BTreeMap<&'static str, f64> {
    let mut v: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&(n, _)| (n, 0.0)).collect();
    let job_ns = spans[0].ns().max(1) as f64;
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .sum()
    };
    for (metric, span) in SPAN_SHARES {
        v.insert(metric, total(span) / job_ns);
    }
    let run_ns = total("engine.run");
    let exec_ns = run_ns
        - total("stream.source_pull")
        - total("stream.sink_push")
        - total("stream.sink_finish");
    v.insert("engine.exec_share", exec_ns.max(0.0) / job_ns);
    let top: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(base))
        .map(|s| s.ns() as f64)
        .sum();
    v.insert("trace.attributed_share", top / job_ns);
    match &done.rep {
        Rep::Session(r) => session_layers(r, done.outputs, run_ns, &mut v),
        Rep::Service(m) => {
            v.insert("serve.plan_cache_hits", m.plan_cache_hits as f64);
            v.insert("serve.plan_cache_misses", m.plan_cache_misses as f64);
            v.insert("serve.tile_plans_built", m.tile_plans_built as f64);
            v.insert("serve.shards_executed", m.shards_executed as f64);
            v.insert("serve.jobs_failed", m.jobs_failed as f64);
            v.insert(
                "serve.rejected_share",
                m.jobs_rejected as f64 / m.jobs_submitted.max(1) as f64,
            );
            v.insert("serve.peak_resident", m.peak_resident as f64);
            v.insert("serve.admitted_bound_peak", m.admitted_bound_peak as f64);
        }
    }
    v
}

/// The `stream`, `rowexec` and `chain` metrics a session report holds.
fn session_layers(
    r: &SessionReport,
    outputs: u64,
    run_ns: f64,
    v: &mut BTreeMap<&'static str, f64>,
) {
    let stages = r.stages.len().max(1) as f64;
    v.insert("chain.stages", stages);
    let handoff: u64 = r
        .stages
        .iter()
        .skip(1)
        .filter_map(|s| s.stream.as_ref().map(|x| x.values_in))
        .sum();
    v.insert("chain.handoff_values", handoff as f64);
    v.insert(
        "chain.exec_share_per_stage",
        v["engine.exec_share"] / stages,
    );
    if let Some(io) = &r.grid_io {
        v.insert("stream.values_copied", io.values_copied as f64);
    }
    if matches!(r.mode, ExecMode::Streaming { .. }) {
        let rows_out = r.stages.last().and_then(|s| s.stream.as_ref());
        v.insert(
            "stream.sink_rows",
            rows_out.map_or(0, |x| x.rows_out) as f64,
        );
        v.insert("stream.peak_resident", r.peak_resident as f64);
        v.insert("stream.resident_bound", r.resident_bound as f64);
    }

    let (mut sweep, mut fast, mut gather) = (0u64, 0u64, 0u64);
    let (mut busy, mut elapsed) = (Duration::ZERO, Duration::ZERO);
    for s in &r.stages {
        if let Some(e) = &s.engine {
            for t in &e.per_tile {
                sweep += t.sweep_rows;
                fast += t.fast_rows;
                gather += t.gather_rows;
                busy += t.elapsed;
            }
            elapsed += e.elapsed;
        }
        if let Some(x) = &s.stream {
            sweep += x.sweep_rows;
            fast += x.fast_rows;
            gather += x.gather_rows;
        }
    }
    let bands = r.stages.first().map_or(0, |s| {
        s.engine
            .as_ref()
            .map(|e| e.tiles)
            .or_else(|| s.stream.as_ref().map(|x| x.bands))
            .unwrap_or(0)
    });
    v.insert("rowexec.bands", bands as f64);
    v.insert("rowexec.threads_used", r.threads as f64);
    v.insert("rowexec.sweep_rows", sweep as f64);
    v.insert("rowexec.fast_rows", fast as f64);
    v.insert("rowexec.gather_rows", gather as f64);
    v.insert(
        "rowexec.sweep_share",
        sweep as f64 / (sweep + fast + gather).max(1) as f64,
    );
    if !elapsed.is_zero() {
        v.insert(
            "rowexec.busy_share",
            busy.as_secs_f64() / (cores() as f64 * elapsed.as_secs_f64()),
        );
    }
    if run_ns > 0.0 {
        // Computed traffic: one 8-byte read and one 8-byte write per
        // output, ignoring caches (bytes per ns = GB/s).
        v.insert("rowexec.computed_gb_s", 16.0 * outputs as f64 / run_ns);
    }
}

/// Fisher-Yates with the same LCG, so the submission order is a
/// function of the seed alone.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed ^ 0x5EED_5EED;
    for i in (1..items.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (state >> 33) as usize % (i + 1));
    }
}

/// The CPUs this process may run on: the library's default thread
/// count, which is 1 in a pinned child process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
