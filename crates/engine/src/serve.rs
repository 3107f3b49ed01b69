//! Sharded multi-grid serving front-end.
//!
//! The paper's bounded reuse buffers make per-run memory exactly
//! predictable ([`MemorySystemPlan::planned_residency_bound`]), which
//! is precisely the property a serving layer needs for *admission
//! control*: a job is admitted only when the sum of admitted bounds
//! still fits a configured memory budget. [`ServiceFront`] builds on
//! that:
//!
//! * many independent grid jobs are dispatched across a worker pool of
//!   [`Session`]s (the SASA shape — duplicated PEs behind one queue —
//!   in software);
//! * an oversized grid is auto-sharded into halo-overlapped row bands
//!   along the outermost dimension (Zohouri-style spatial blocking) and
//!   the band outputs merged back in row order, bit-identical to the
//!   unsharded run for [shard-stable](stencil_kernels::Benchmark::shard_stable)
//!   kernels;
//! * a shared **plan cache** keyed by `(benchmark, extents, mode,
//!   chunk)` takes [`MemorySystemPlan`]/[`stencil_core::TilePlan`]
//!   construction off the hot path — shard sessions are seeded with the
//!   cached band schedule, so steady-state runs report
//!   `tile_plans_built == 0`;
//! * the pending-task queue is **bounded**: when the pool saturates,
//!   submission rejects with a retry-after hint instead of buffering
//!   without limit;
//! * per-shard telemetry aggregates into one validated
//!   [`stencil_telemetry::ServiceMetrics`] block, checked by the
//!   `ServiceResidency` validator rule (aggregate peak resident ≤ the
//!   sum of admitted bounds; shard merge conserves every output).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stencil_core::{MemorySystemPlan, TilePlan};
use stencil_kernels::{Benchmark, KernelStage};
use stencil_telemetry::{MetricsReport, ServiceMetrics};

use crate::compile::CompiledKernel;
use crate::error::EngineError;
use crate::format::MappedGrid;
use crate::input::InputGrid;
use crate::rowexec::lock_recover;
use crate::session::{ExecMode, Session, SessionKernel};

/// Configuration of a [`ServiceFront`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker pool size (each worker runs one shard session at a time).
    pub workers: usize,
    /// Bounded-queue capacity in pending shard tasks; submissions that
    /// would overflow it are rejected with a retry-after hint.
    pub queue_depth: usize,
    /// Admission budget in resident f64 elements: a job is admitted
    /// only while the sum of admitted jobs' planned residency bounds
    /// stays within it. `0` disables the budget (queue-bounded only).
    pub memory_budget: u64,
    /// Worker threads *inside* each shard session (1 keeps parallelism
    /// at the pool level, which is what a saturated service wants).
    pub session_threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            memory_budget: 0,
            session_threads: 1,
        }
    }
}

/// How a job should be split into row-band shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Run the grid whole, in one session.
    Whole,
    /// Split into exactly this many halo-overlapped row bands (clamped
    /// to the number of output slabs).
    Fixed(usize),
    /// Split to the pool width (`min(workers, output slabs)`) when the
    /// kernel is shard-stable; run whole otherwise.
    Auto,
}

/// A job's row-major input values: either an in-memory vector or a
/// memory-mapped `.sgrid` payload. Both are cheaply cloneable shared
/// handles, so shard tasks fan out without duplicating the grid.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// Values held in an owned, shared vector.
    InMemory(Arc<Vec<f64>>),
    /// Values borrowed straight from a mapped `.sgrid` file — no parse,
    /// no copy; shards slice the mapped payload.
    Mapped(MappedGrid),
}

impl JobInput {
    /// The full row-major value slice.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        match self {
            JobInput::InMemory(v) => v,
            JobInput::Mapped(g) => g.values(),
        }
    }

    /// Total values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values().len()
    }

    /// Whether the input holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values().is_empty()
    }
}

impl From<Arc<Vec<f64>>> for JobInput {
    fn from(v: Arc<Vec<f64>>) -> Self {
        JobInput::InMemory(v)
    }
}

impl From<Vec<f64>> for JobInput {
    fn from(v: Vec<f64>) -> Self {
        JobInput::InMemory(Arc::new(v))
    }
}

impl From<MappedGrid> for JobInput {
    fn from(g: MappedGrid) -> Self {
        JobInput::Mapped(g)
    }
}

/// One grid job offered to the front-end.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// The kernel to run (window, datapath, compilable expression).
    pub benchmark: Benchmark,
    /// Grid extents; `None` uses the benchmark's paper problem size.
    pub extents: Option<Vec<i64>>,
    /// Execution mode for every shard session of this job.
    pub mode: ExecMode,
    /// Sharding policy.
    pub shards: ShardPolicy,
    /// Row-major input values over the full grid.
    pub input: JobInput,
}

impl JobRequest {
    /// A whole-grid job over the benchmark's paper problem size.
    #[must_use]
    pub fn new(benchmark: Benchmark, mode: ExecMode, input: impl Into<JobInput>) -> Self {
        Self {
            benchmark,
            extents: None,
            mode,
            shards: ShardPolicy::Whole,
            input: input.into(),
        }
    }
}

/// Identifier of an admitted job, index into
/// [`ServiceOutcome::jobs`].
pub type JobId = usize;

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded pending-task queue cannot take the job's shards.
    QueueFull,
    /// Admitting the job would push the summed residency bounds past
    /// the memory budget.
    BudgetExhausted,
}

/// A backpressure rejection: try again after the hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// What admission control objected to.
    pub reason: RejectReason,
    /// Estimated wait until capacity frees up (derived from the
    /// observed per-shard service time; a floor of 1 ms before any
    /// shard has completed).
    pub retry_after: Duration,
}

/// The outcome of offering a job to the front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// The job was admitted and its shards queued.
    Admitted(JobId),
    /// The job was rejected under backpressure; resubmit later.
    Rejected(Rejection),
}

/// A completed job's merged result.
#[derive(Debug)]
pub struct JobResult {
    /// `benchmark` (whole) or `benchmark×S` (sharded) label.
    pub label: String,
    /// Merged outputs in full-grid row order (empty if the job failed).
    pub outputs: Vec<f64>,
    /// Row-band shards the job ran as.
    pub shards: usize,
    /// The first typed error any shard reported, if the job failed.
    pub error: Option<EngineError>,
}

/// Everything a served batch produced: per-job results plus the
/// aggregated, validator-checkable service telemetry.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// Per-job results, in admission order ([`JobId`] indexes this).
    pub jobs: Vec<JobResult>,
    /// Aggregated service counters.
    pub metrics: ServiceMetrics,
}

impl ServiceOutcome {
    /// Wraps the service counters into a named [`MetricsReport`] for
    /// validation and emission.
    #[must_use]
    pub fn report(&self, name: impl Into<String>) -> MetricsReport {
        let mut report = MetricsReport::new(name);
        report.service = Some(self.metrics.clone());
        report
    }
}

/// Key of the shared plan cache: one entry per distinct
/// `(benchmark, extents, mode, chunk)` a shard geometry resolves to.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct PlanKey {
    bench: String,
    extents: Vec<i64>,
    /// Band count and chunk height included: they select different band
    /// schedules.
    mode: ExecMode,
}

/// One shared cache entry: everything expensive about a shard geometry,
/// built once and reused by every session over the same key.
struct CachedPlan {
    plan: MemorySystemPlan,
    /// The input-domain index, built once per geometry: constructing it
    /// walks the whole domain, which would otherwise dominate small
    /// shard runs.
    index: stencil_polyhedral::DomainIndex,
    /// The band schedule the session's mode would build.
    tile: TilePlan,
    /// Pre-compiled checked bytecode, when the benchmark has an
    /// expression.
    kernel: Option<CompiledKernel>,
    /// Stage metadata for the closure fallback ([`Session::build`]).
    stage: KernelStage,
    /// Admission bound in resident f64 elements: the full input grid
    /// in core, the Sec. 2.3 halo-window bound when streaming.
    bound: u64,
    /// Output elements the geometry promises.
    outputs: u64,
}

impl CachedPlan {
    fn build(bench: &Benchmark, extents: &[i64], mode: ExecMode) -> Result<Self, EngineError> {
        let spec = bench.spec_for(extents)?;
        let plan = MemorySystemPlan::generate(&spec)?;
        let index = plan
            .input_domain()
            .index()
            .map_err(|e| EngineError::Plan(e.into()))?;
        let tile = mode.bands(&plan)?;
        let bound = match mode {
            ExecMode::Streaming { .. } => plan.planned_residency_bound(&tile)?,
            _ => index.len(),
        };
        let outputs = plan
            .iteration_domain()
            .count()
            .map_err(|e| EngineError::Plan(e.into()))?;
        let kernel = CompiledKernel::for_benchmark(bench)?;
        Ok(Self {
            plan,
            index,
            tile,
            kernel,
            stage: bench.stage(),
            bound,
            outputs,
        })
    }
}

/// One queued unit of work: a row-band shard of an admitted job.
struct ShardTask {
    job: JobId,
    shard: usize,
    cached: Arc<CachedPlan>,
    input: JobInput,
    /// Element offset of the shard's input band in the job input.
    input_offset: usize,
    mode: ExecMode,
    threads: usize,
    label: String,
}

/// Book-keeping of one admitted job.
struct JobSlot {
    label: String,
    /// Per-shard outputs, merged in shard order at finish.
    shard_outputs: Vec<Option<Vec<f64>>>,
    remaining: usize,
    error: Option<EngineError>,
    /// The job's admitted residency bound (sum of shard bounds),
    /// released when the job completes.
    bound: u64,
    done: bool,
}

/// Monotonic counters of the batch.
#[derive(Default)]
struct Counters {
    jobs_submitted: u64,
    jobs_admitted: u64,
    jobs_rejected: u64,
    jobs_failed: u64,
    shards_executed: u64,
    shards_over_bound: u64,
    outputs_expected: u64,
    outputs_produced: u64,
    tile_plans_built: u64,
    cache_hits: u64,
    cache_misses: u64,
    shard_ns_total: u64,
}

/// Residency gauges with high-water tracking.
#[derive(Default)]
struct Gauges {
    /// Σ bounds of shards currently executing.
    resident_now: u64,
    resident_peak: u64,
    /// Σ bounds of admitted, not-yet-completed jobs.
    admitted_now: u64,
    admitted_peak: u64,
}

struct QueueState {
    tasks: VecDeque<ShardTask>,
    shutdown: bool,
}

struct Inner {
    cfg: ServiceConfig,
    queue: Mutex<QueueState>,
    task_ready: Condvar,
    job_done: Condvar,
    jobs: Mutex<Vec<JobSlot>>,
    plan_cache: Mutex<HashMap<PlanKey, Arc<CachedPlan>>>,
    counters: Mutex<Counters>,
    gauges: Mutex<Gauges>,
}

impl Inner {
    /// Looks a shard geometry up in the shared plan cache, building and
    /// inserting it on miss.
    fn cached_plan(
        &self,
        bench: &Benchmark,
        extents: &[i64],
        mode: ExecMode,
    ) -> Result<Arc<CachedPlan>, EngineError> {
        let key = PlanKey {
            bench: bench.name().to_string(),
            extents: extents.to_vec(),
            mode,
        };
        if let Some(hit) = lock_recover(&self.plan_cache).get(&key) {
            lock_recover(&self.counters).cache_hits += 1;
            return Ok(Arc::clone(hit));
        }
        // Build outside the cache lock: plan generation is the
        // expensive part this cache exists to amortize.
        let built = Arc::new(CachedPlan::build(bench, extents, mode)?);
        let mut cache = lock_recover(&self.plan_cache);
        if let Some(racer) = cache.get(&key) {
            lock_recover(&self.counters).cache_hits += 1;
            return Ok(Arc::clone(racer));
        }
        lock_recover(&self.counters).cache_misses += 1;
        cache.insert(key, Arc::clone(&built));
        Ok(built)
    }

    /// Runs one shard task through a warm session and returns its
    /// merged-order outputs.
    fn run_shard(&self, task: &ShardTask) -> Result<Vec<f64>, EngineError> {
        let cached = &task.cached;
        let in_idx = &cached.index;
        let len = usize::try_from(in_idx.len()).map_err(|_| EngineError::DomainTooLarge {
            points: in_idx.len(),
        })?;
        let band = task
            .input
            .values()
            .get(task.input_offset..task.input_offset + len)
            .ok_or_else(|| EngineError::InputSizeMismatch {
                expected: (task.input_offset as u64) + in_idx.len(),
                got: task.input.len() as u64,
            })?;
        let grid = InputGrid::new(in_idx, band)?;
        let session = match &cached.kernel {
            Some(ck) => Session::new(&cached.plan).kernel(SessionKernel::Compiled(ck)),
            None => Session::build(&cached.plan, &cached.stage)?,
        }
        .mode(task.mode)
        .threads(task.threads)
        .telemetry(task.label.clone());
        session.seed_tiles(cached.tile.clone());

        let started = Instant::now();
        {
            let mut g = lock_recover(&self.gauges);
            g.resident_now += cached.bound;
            g.resident_peak = g.resident_peak.max(g.resident_now);
        }
        let run = session.run(&grid);
        {
            let mut g = lock_recover(&self.gauges);
            g.resident_now = g.resident_now.saturating_sub(cached.bound);
        }
        let run = run?;
        let mut c = lock_recover(&self.counters);
        c.shards_executed += 1;
        c.shard_ns_total += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        c.tile_plans_built += run.report.tile_plans_built;
        c.outputs_produced += run.outputs.len() as u64;
        if run.report.peak_resident > cached.bound {
            c.shards_over_bound += 1;
        }
        Ok(run.outputs)
    }

    /// The worker loop: pull shard tasks until shutdown drains the
    /// queue.
    fn work(&self) {
        loop {
            let task = {
                let mut q = lock_recover(&self.queue);
                loop {
                    if let Some(t) = q.tasks.pop_front() {
                        break t;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = self
                        .task_ready
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let result = self.run_shard(&task);
            let mut jobs = lock_recover(&self.jobs);
            let slot = &mut jobs[task.job];
            match result {
                Ok(outputs) => slot.shard_outputs[task.shard] = Some(outputs),
                Err(e) => {
                    if slot.error.is_none() {
                        slot.error = Some(e);
                        lock_recover(&self.counters).jobs_failed += 1;
                    }
                }
            }
            slot.remaining -= 1;
            if slot.remaining == 0 {
                slot.done = true;
                let released = slot.bound;
                drop(jobs);
                let mut g = lock_recover(&self.gauges);
                g.admitted_now = g.admitted_now.saturating_sub(released);
                drop(g);
                self.job_done.notify_all();
            }
        }
    }
}

/// The serving front-end: a bounded queue, admission control, and a
/// worker pool of sessions (see the module docs).
#[derive(Debug)]
pub struct ServiceFront {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
    started: Instant,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner").finish_non_exhaustive()
    }
}

impl ServiceFront {
    /// Starts the worker pool. Zero `workers`/`queue_depth` are clamped
    /// to 1.
    #[must_use]
    pub fn new(mut cfg: ServiceConfig) -> Self {
        cfg.workers = cfg.workers.max(1);
        cfg.queue_depth = cfg.queue_depth.max(1);
        let inner = Arc::new(Inner {
            cfg: cfg.clone(),
            queue: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            task_ready: Condvar::new(),
            job_done: Condvar::new(),
            jobs: Mutex::new(Vec::new()),
            plan_cache: Mutex::new(HashMap::new()),
            counters: Mutex::new(Counters::default()),
            gauges: Mutex::new(Gauges::default()),
        });
        let handles = (0..cfg.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.work())
            })
            .collect();
        Self {
            inner,
            handles,
            started: Instant::now(),
        }
    }

    /// The retry hint for a rejected submission: pending work divided
    /// across the pool at the observed per-shard service time.
    fn retry_after(&self, pending: usize) -> Duration {
        let c = lock_recover(&self.inner.counters);
        let avg_ns = c
            .shard_ns_total
            .checked_div(c.shards_executed)
            .unwrap_or(1_000_000); // 1 ms floor before any observation
        drop(c);
        let per_worker = (pending as u64 + 1).div_ceil(self.inner.cfg.workers as u64);
        Duration::from_nanos((per_worker * avg_ns).max(1_000_000))
    }

    /// Offers a job. Admission checks run in order: geometry and plan
    /// validation (typed errors), then the memory budget, then queue
    /// capacity; budget and queue failures are *not* errors but
    /// [`Submission::Rejected`] backpressure with a retry hint.
    ///
    /// # Errors
    ///
    /// * [`EngineError::Plan`] if the grid/shard geometry is invalid.
    /// * [`EngineError::InputSizeMismatch`] if `input` does not cover
    ///   the grid.
    /// * [`EngineError::KernelCompile`] / [`EngineError::KernelMismatch`]
    ///   if the benchmark's expression fails checked compilation.
    pub fn submit(&self, req: &JobRequest) -> Result<Submission, EngineError> {
        let bench = &req.benchmark;
        let extents = req
            .extents
            .clone()
            .unwrap_or_else(|| bench.extents().to_vec());
        let geom = ShardGeometry::plan(bench, &extents, req.shards, self.inner.cfg.workers)?;
        if req.input.len() as u64 != geom.input_elements {
            return Err(EngineError::InputSizeMismatch {
                expected: geom.input_elements,
                got: req.input.len() as u64,
            });
        }

        // Resolve every shard's cached plan first: typed errors must
        // surface before any admission state changes. Only well-formed
        // jobs count as submissions, which keeps the admission
        // arithmetic (`admitted + rejected == submitted`) exact.
        let mut cached: Vec<Arc<CachedPlan>> = Vec::with_capacity(geom.bands.len());
        for band in &geom.bands {
            cached.push(self.inner.cached_plan(bench, &band.extents, req.mode)?);
        }
        let job_bound: u64 = cached.iter().map(|c| c.bound).sum();
        let expected: u64 = cached.iter().map(|c| c.outputs).sum();
        lock_recover(&self.inner.counters).jobs_submitted += 1;

        // Admission control: budget first, then queue capacity.
        let budget = self.inner.cfg.memory_budget;
        if budget > 0 {
            let mut g = lock_recover(&self.inner.gauges);
            if g.admitted_now + job_bound > budget {
                drop(g);
                let pending = lock_recover(&self.inner.queue).tasks.len();
                lock_recover(&self.inner.counters).jobs_rejected += 1;
                return Ok(Submission::Rejected(Rejection {
                    reason: RejectReason::BudgetExhausted,
                    retry_after: self.retry_after(pending),
                }));
            }
            g.admitted_now += job_bound;
            g.admitted_peak = g.admitted_peak.max(g.admitted_now);
        }

        let mut q = lock_recover(&self.inner.queue);
        if q.tasks.len() + geom.bands.len() > self.inner.cfg.queue_depth {
            let pending = q.tasks.len();
            drop(q);
            if budget > 0 {
                let mut g = lock_recover(&self.inner.gauges);
                g.admitted_now = g.admitted_now.saturating_sub(job_bound);
            }
            lock_recover(&self.inner.counters).jobs_rejected += 1;
            return Ok(Submission::Rejected(Rejection {
                reason: RejectReason::QueueFull,
                retry_after: self.retry_after(pending),
            }));
        }

        // Admitted: register the job slot and enqueue its shards.
        if budget == 0 {
            let mut g = lock_recover(&self.inner.gauges);
            g.admitted_now += job_bound;
            g.admitted_peak = g.admitted_peak.max(g.admitted_now);
        }
        let label = if geom.bands.len() > 1 {
            format!("{}×{}", bench.name(), geom.bands.len())
        } else {
            bench.name().to_string()
        };
        let job_id = {
            let mut jobs = lock_recover(&self.inner.jobs);
            jobs.push(JobSlot {
                label: label.clone(),
                shard_outputs: vec![None; geom.bands.len()],
                remaining: geom.bands.len(),
                error: None,
                bound: job_bound,
                done: false,
            });
            jobs.len() - 1
        };
        {
            let mut c = lock_recover(&self.inner.counters);
            c.jobs_admitted += 1;
            c.outputs_expected += expected;
        }
        for (shard, (band, cp)) in geom.bands.iter().zip(cached).enumerate() {
            q.tasks.push_back(ShardTask {
                job: job_id,
                shard,
                cached: cp,
                input: req.input.clone(),
                input_offset: band.input_offset,
                mode: req.mode,
                threads: self.inner.cfg.session_threads,
                label: format!("{label}/shard{shard}"),
            });
        }
        drop(q);
        self.task_ready_notify(geom.bands.len());
        Ok(Submission::Admitted(job_id))
    }

    fn task_ready_notify(&self, tasks: usize) {
        if tasks > 1 {
            self.inner.task_ready.notify_all();
        } else {
            self.inner.task_ready.notify_one();
        }
    }

    /// Blocks until every admitted job has completed.
    pub fn wait_idle(&self) {
        let mut jobs = lock_recover(&self.inner.jobs);
        while jobs.iter().any(|j| !j.done) {
            jobs = self
                .inner
                .job_done
                .wait(jobs)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Waits for all admitted jobs, stops the pool, and returns the
    /// merged per-job results plus aggregated service telemetry.
    #[must_use]
    pub fn finish(mut self) -> ServiceOutcome {
        self.wait_idle();
        {
            let mut q = lock_recover(&self.inner.queue);
            q.shutdown = true;
        }
        self.inner.task_ready.notify_all();
        for h in self.handles.drain(..) {
            // A worker that panicked outside a job is already accounted
            // for by its job's error slot; nothing to propagate here.
            let _ = h.join();
        }
        let elapsed = self.started.elapsed();
        let jobs: Vec<JobResult> = lock_recover(&self.inner.jobs)
            .drain(..)
            .map(|slot| {
                let shards = slot.shard_outputs.len();
                let outputs = if slot.error.is_none() {
                    let mut merged = Vec::new();
                    for piece in slot.shard_outputs.into_iter().flatten() {
                        merged.extend_from_slice(&piece);
                    }
                    merged
                } else {
                    Vec::new()
                };
                JobResult {
                    label: slot.label,
                    outputs,
                    shards,
                    error: slot.error,
                }
            })
            .collect();
        let c = lock_recover(&self.inner.counters);
        let g = lock_recover(&self.inner.gauges);
        let elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let metrics = ServiceMetrics {
            workers: self.inner.cfg.workers as u64,
            queue_depth: self.inner.cfg.queue_depth as u64,
            memory_budget: self.inner.cfg.memory_budget,
            jobs_submitted: c.jobs_submitted,
            jobs_admitted: c.jobs_admitted,
            jobs_rejected: c.jobs_rejected,
            jobs_failed: c.jobs_failed,
            shards_executed: c.shards_executed,
            admitted_bound_peak: g.admitted_peak,
            peak_resident: g.resident_peak,
            shards_over_bound: c.shards_over_bound,
            outputs_expected: c.outputs_expected,
            outputs_produced: c.outputs_produced,
            tile_plans_built: c.tile_plans_built,
            plan_cache_hits: c.cache_hits,
            plan_cache_misses: c.cache_misses,
            elapsed_ns,
            throughput: finite_throughput(c.outputs_produced, elapsed),
        };
        drop(c);
        drop(g);
        ServiceOutcome { jobs, metrics }
    }
}

impl Drop for ServiceFront {
    fn drop(&mut self) {
        // finish() drains handles; a dropped-without-finish front still
        // stops its workers instead of leaking them.
        {
            let mut q = lock_recover(&self.inner.queue);
            q.shutdown = true;
        }
        self.inner.task_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Elements per second, clamped to 0.0 below timer resolution so the
/// figure stays finite (JSON cannot carry `inf`).
#[must_use]
pub fn finite_throughput(outputs: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 && secs.is_finite() {
        let t = (outputs as f64) / secs;
        if t.is_finite() {
            t
        } else {
            0.0
        }
    } else {
        0.0
    }
}

/// One row band of a sharded grid.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShardBand {
    /// The band's own grid extents (output slabs + halo overlap).
    extents: Vec<i64>,
    /// Element offset of the band's first input value in the job's
    /// row-major input buffer.
    input_offset: usize,
}

/// The halo-overlapped row-band decomposition of one grid job.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShardGeometry {
    bands: Vec<ShardBand>,
    input_elements: u64,
}

impl ShardGeometry {
    /// Splits `extents` into halo-overlapped row bands along the
    /// outermost dimension. Band `k` owns a contiguous run of output
    /// slabs; its input is that run dilated by the window's
    /// outer-dimension reach, so every band computes exactly the values
    /// the unsharded run computes for those slabs (the Zohouri spatial
    /// blocking argument, and the same halo math as
    /// [`stencil_core::TilePlan`] bands — applied here *between*
    /// independent plans rather than within one).
    fn plan(
        bench: &Benchmark,
        extents: &[i64],
        policy: ShardPolicy,
        workers: usize,
    ) -> Result<Self, EngineError> {
        if extents.is_empty() || extents.iter().any(|&e| e <= 0) {
            return Err(EngineError::Config {
                detail: format!("invalid grid extents {extents:?}"),
            });
        }
        // Overflow is a typed rejection, not a saturated count that
        // fails later as a confusing length mismatch.
        let too_large = || EngineError::JobTooLarge {
            extents: extents.to_vec(),
        };
        let mut input_elements = 1u64;
        for &e in extents {
            input_elements = input_elements.checked_mul(e as u64).ok_or_else(too_large)?;
        }
        // The elements must also be addressable as payload bytes.
        input_elements.checked_mul(8).ok_or_else(too_large)?;
        // Window reach along the outermost dimension.
        let min0 = bench.window().iter().map(|p| p[0]).min().unwrap_or(0);
        let max0 = bench.window().iter().map(|p| p[0]).max().unwrap_or(0);
        let r_lo = (-min0).max(0);
        let r_hi = max0.max(0);
        let n_out = extents[0] - r_lo - r_hi;
        if n_out < 1 {
            return Err(EngineError::Config {
                detail: format!(
                    "window reach {r_lo}+{r_hi} leaves no output slabs in extent {}",
                    extents[0]
                ),
            });
        }
        let requested = match policy {
            ShardPolicy::Whole => 1,
            ShardPolicy::Fixed(n) => n.max(1),
            ShardPolicy::Auto => workers.max(1),
        };
        let shards = if requested > 1 && !bench.shard_stable() {
            1 // unmarked kernels always run whole
        } else {
            requested.min(usize::try_from(n_out).unwrap_or(1))
        };
        let mut slab = 1u64;
        for &e in &extents[1..] {
            slab = slab.checked_mul(e as u64).ok_or_else(too_large)?;
        }
        let shards_u = shards as u64;
        let n_out_u = n_out as u64;
        let base = n_out_u / shards_u;
        let rem = n_out_u % shards_u;
        let mut bands = Vec::with_capacity(shards);
        let mut first_slab = 0u64; // first owned output slab, 0-based
        for k in 0..shards_u {
            let owned = base + u64::from(k < rem);
            let mut band_extents = extents.to_vec();
            band_extents[0] = i64::try_from(owned)
                .ok()
                .and_then(|o| o.checked_add(r_lo))
                .and_then(|o| o.checked_add(r_hi))
                .ok_or_else(too_large)?;
            let input_offset =
                usize::try_from(first_slab * slab).map_err(|_| EngineError::DomainTooLarge {
                    points: first_slab * slab,
                })?;
            bands.push(ShardBand {
                extents: band_extents,
                input_offset,
            });
            first_slab += owned;
        }
        Ok(Self {
            bands,
            input_elements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_kernels::{denoise, paper_suite, sobel};

    /// The repo's deterministic input generator (same LCG as the CLI).
    fn lcg_input(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64) / f64::from(1u32 << 31)
            })
            .collect()
    }

    fn unsharded_outputs(bench: &Benchmark, extents: &[i64], input: &[f64]) -> Vec<f64> {
        let spec = bench.spec_for(extents).unwrap();
        let plan = MemorySystemPlan::generate(&spec).unwrap();
        let idx = plan.input_domain().index().unwrap();
        let grid = InputGrid::new(&idx, input).unwrap();
        Session::build(&plan, &bench.stage())
            .unwrap()
            .run(&grid)
            .unwrap()
            .outputs
    }

    #[test]
    fn shard_geometry_covers_every_output_slab_once() {
        let bench = denoise();
        let extents = [24i64, 16];
        for shards in [1usize, 2, 3, 5, 22, 100] {
            let g = ShardGeometry::plan(&bench, &extents, ShardPolicy::Fixed(shards), 4).unwrap();
            // 5-point cross: reach 1 above and below, 22 output slabs.
            let owned: i64 = g.bands.iter().map(|b| b.extents[0] - 2).sum();
            assert_eq!(owned, 22, "shards={shards}");
            assert!(g.bands.len() <= 22);
            // Band inputs start exactly at their first owned slab minus
            // the reach (offset is in elements, slab = 16 wide).
            let mut first_owned = 0i64;
            for b in &g.bands {
                assert_eq!(b.input_offset as i64, first_owned * 16);
                first_owned += b.extents[0] - 2;
            }
        }
    }

    #[test]
    fn sharded_jobs_merge_bit_identical_to_unsharded() {
        for bench in paper_suite() {
            // Small grids keep the test fast; every benchmark keeps its
            // own dimensionality (2D and 3D both shard along dim 0).
            let extents: Vec<i64> = match bench.dims() {
                2 => vec![40, 24],
                _ => vec![20, 12, 10],
            };
            let len: i64 = extents.iter().product();
            let len = usize::try_from(len).expect("test extents fit");
            let input = Arc::new(lcg_input(len, 0x5EED_BA5E_D00D));
            let reference = unsharded_outputs(&bench, &extents, &input);

            let front = ServiceFront::new(ServiceConfig {
                workers: 3,
                ..ServiceConfig::default()
            });
            let req = JobRequest {
                benchmark: bench.clone(),
                extents: Some(extents.clone()),
                mode: ExecMode::InCore,
                shards: ShardPolicy::Fixed(3),
                input: Arc::clone(&input).into(),
            };
            let Submission::Admitted(id) = front.submit(&req).unwrap() else {
                panic!("{}: unbudgeted submit rejected", bench.name());
            };
            let outcome = front.finish();
            let job = &outcome.jobs[id];
            assert!(job.error.is_none(), "{}: {:?}", bench.name(), job.error);
            assert_eq!(job.outputs, reference, "{}", bench.name());
            assert_eq!(outcome.metrics.outputs_produced, reference.len() as u64);
            assert_eq!(outcome.metrics.outputs_expected, reference.len() as u64);
        }
    }

    #[test]
    fn streaming_shards_stay_within_admitted_bounds() {
        let bench = denoise();
        let extents = vec![64i64, 32];
        let input = Arc::new(lcg_input(64 * 32, 7));
        let reference = unsharded_outputs(&bench, &extents, &input);
        let front = ServiceFront::new(ServiceConfig {
            workers: 2,
            memory_budget: 1_000_000,
            ..ServiceConfig::default()
        });
        let req = JobRequest {
            benchmark: bench,
            extents: Some(extents),
            mode: ExecMode::Streaming {
                chunk_rows: Some(4),
            },
            shards: ShardPolicy::Fixed(4),
            input: input.into(),
        };
        let Submission::Admitted(id) = front.submit(&req).unwrap() else {
            panic!("submit rejected under a roomy budget");
        };
        let outcome = front.finish();
        assert_eq!(outcome.jobs[id].outputs, reference);
        let m = &outcome.metrics;
        assert_eq!(m.shards_executed, 4);
        assert_eq!(m.shards_over_bound, 0);
        assert!(m.peak_resident <= m.admitted_bound_peak);
        assert!(m.admitted_bound_peak <= m.memory_budget);
        // The cached band schedules were seeded into every session.
        assert_eq!(m.tile_plans_built, 0);
        let report = outcome.report("serve");
        assert_eq!(stencil_telemetry::validate_report(&report), vec![]);
    }

    #[test]
    fn a_panicking_kernel_resolves_as_a_typed_failure() {
        let extents = vec![24i64, 16];
        // No expression: the job runs on the closure backend.
        let boom = Benchmark::new(
            "boom",
            extents.clone(),
            vec![stencil_polyhedral::Point::new(&[0, 0])],
            stencil_kernels::KernelOps::default(),
            |_| panic!("datapath bug"),
        );
        let input = Arc::new(lcg_input(24 * 16, 0xB00));
        let reference = unsharded_outputs(&denoise(), &extents, &input);
        for mode in [
            ExecMode::InCore,
            ExecMode::Streaming {
                chunk_rows: Some(4),
            },
        ] {
            for workers in [1usize, 2] {
                // The batch runs on a helper thread, so a job that never
                // resolves fails the test instead of hanging it.
                let batch = [denoise(), boom.clone(), denoise()];
                let (input, extents) = (Arc::clone(&input), extents.clone());
                let (tx, rx) = std::sync::mpsc::channel();
                let helper = std::thread::spawn(move || {
                    let front = ServiceFront::new(ServiceConfig {
                        workers,
                        ..ServiceConfig::default()
                    });
                    for benchmark in batch {
                        let req = JobRequest {
                            benchmark,
                            extents: Some(extents.clone()),
                            mode,
                            shards: ShardPolicy::Auto,
                            input: Arc::clone(&input).into(),
                        };
                        let Submission::Admitted(_) = front.submit(&req).unwrap() else {
                            panic!("unbudgeted submit rejected");
                        };
                    }
                    let _ = tx.send(front.finish());
                });
                let case = format!("mode={mode:?} workers={workers}");
                let outcome = rx
                    .recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|e| panic!("{case}: batch did not resolve: {e}"));
                helper
                    .join()
                    .expect("the batch thread returns after sending");
                assert_eq!(
                    outcome.jobs[1].error,
                    Some(EngineError::WorkerPanic),
                    "{case}"
                );
                assert_eq!(outcome.metrics.jobs_failed, 1, "{case}");
                for id in [0, 2] {
                    let job = &outcome.jobs[id];
                    assert!(job.error.is_none(), "{case}: {:?}", job.error);
                    assert_eq!(job.outputs, reference, "{case}");
                }
            }
        }
    }

    #[test]
    fn plan_cache_hits_repeat_geometries() {
        let bench = denoise();
        let extents = vec![20i64, 12];
        let input = Arc::new(lcg_input(20 * 12, 3));
        let front = ServiceFront::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let req = JobRequest {
            benchmark: bench,
            extents: Some(extents),
            mode: ExecMode::InCore,
            shards: ShardPolicy::Whole,
            input: input.into(),
        };
        for _ in 0..5 {
            let s = front.submit(&req).unwrap();
            assert!(matches!(s, Submission::Admitted(_)));
        }
        let outcome = front.finish();
        let m = &outcome.metrics;
        assert_eq!(m.plan_cache_misses, 1);
        assert_eq!(m.plan_cache_hits, 4);
        assert_eq!(m.tile_plans_built, 0);
        // All five runs produced the same outputs.
        let first = &outcome.jobs[0].outputs;
        assert!(outcome.jobs.iter().all(|j| &j.outputs == first));
    }

    #[test]
    fn budget_admission_rejects_with_retry_hint() {
        let bench = denoise();
        let extents = vec![20i64, 12];
        let input = Arc::new(lcg_input(20 * 12, 3));
        // Budget below one job's in-core bound (20×12 = 240 elements).
        let front = ServiceFront::new(ServiceConfig {
            workers: 1,
            memory_budget: 100,
            ..ServiceConfig::default()
        });
        let req = JobRequest {
            benchmark: bench,
            extents: Some(extents),
            mode: ExecMode::InCore,
            shards: ShardPolicy::Whole,
            input: input.into(),
        };
        let s = front.submit(&req).unwrap();
        let Submission::Rejected(r) = s else {
            panic!("a 240-element job passed a 100-element budget");
        };
        assert_eq!(r.reason, RejectReason::BudgetExhausted);
        assert!(r.retry_after > Duration::ZERO);
        let outcome = front.finish();
        let m = &outcome.metrics;
        assert_eq!(m.jobs_submitted, 1);
        assert_eq!(m.jobs_rejected, 1);
        assert_eq!(m.jobs_admitted, 0);
        assert_eq!(
            stencil_telemetry::validate_report(&outcome.report("serve")),
            vec![]
        );
    }

    #[test]
    fn queue_backpressure_rejects_when_saturated() {
        let bench = denoise();
        let extents = vec![128i64, 64];
        let input = Arc::new(lcg_input(128 * 64, 9));
        let front = ServiceFront::new(ServiceConfig {
            workers: 1,
            queue_depth: 2,
            ..ServiceConfig::default()
        });
        let req = JobRequest {
            benchmark: bench,
            extents: Some(extents),
            mode: ExecMode::InCore,
            shards: ShardPolicy::Whole,
            input: input.into(),
        };
        // Flood: with a depth-2 queue and one worker, some of a burst
        // of submissions must be rejected with QueueFull.
        let mut rejected = 0;
        for _ in 0..32 {
            match front.submit(&req).unwrap() {
                Submission::Rejected(r) => {
                    assert_eq!(r.reason, RejectReason::QueueFull);
                    assert!(r.retry_after > Duration::ZERO);
                    rejected += 1;
                }
                Submission::Admitted(_) => {}
            }
        }
        assert!(
            rejected > 0,
            "a depth-2 queue absorbed 32 instant submissions"
        );
        let outcome = front.finish();
        let m = &outcome.metrics;
        assert_eq!(m.jobs_rejected, rejected);
        assert_eq!(m.jobs_admitted + m.jobs_rejected, m.jobs_submitted);
        assert_eq!(
            stencil_telemetry::validate_report(&outcome.report("serve")),
            vec![]
        );
    }

    #[test]
    fn auto_policy_shards_to_pool_width_only_when_stable() {
        let stable = sobel();
        assert!(stable.shard_stable());
        let g = ShardGeometry::plan(&stable, &[40, 24], ShardPolicy::Auto, 4).unwrap();
        assert_eq!(g.bands.len(), 4);
        // An unmarked kernel never shards.
        let unstable = Benchmark::new(
            "UNMARKED",
            vec![40, 24],
            stable.window().to_vec(),
            stencil_kernels::KernelOps::default(),
            |v| v.iter().sum(),
        );
        let g = ShardGeometry::plan(&unstable, &[40, 24], ShardPolicy::Auto, 4).unwrap();
        assert_eq!(g.bands.len(), 1);
        let g = ShardGeometry::plan(&unstable, &[40, 24], ShardPolicy::Fixed(8), 4).unwrap();
        assert_eq!(g.bands.len(), 1);
    }

    #[test]
    fn overflowing_extents_are_a_typed_job_too_large() {
        // Element count (and byte count) of these extents overflows
        // u64 multiplication; the planner must reject with a typed
        // error instead of saturating into a bogus geometry.
        let extents = vec![i64::MAX / 2, 8, 8];
        let e = ShardGeometry::plan(&denoise(), &extents, ShardPolicy::Whole, 1).unwrap_err();
        match e {
            EngineError::JobTooLarge { extents: got } => assert_eq!(got, extents),
            other => panic!("expected JobTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn input_size_mismatch_is_a_typed_error() {
        let front = ServiceFront::new(ServiceConfig::default());
        let req = JobRequest {
            benchmark: denoise(),
            extents: Some(vec![20, 12]),
            mode: ExecMode::InCore,
            shards: ShardPolicy::Whole,
            input: Arc::new(vec![0.0; 7]).into(),
        };
        let e = front.submit(&req).unwrap_err();
        assert!(matches!(e, EngineError::InputSizeMismatch { .. }));
        let outcome = front.finish();
        assert_eq!(outcome.metrics.jobs_submitted, 0);
    }
}
