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
//! * a job runs as shards cut where its one plan cuts the grid: its
//!   mode's band schedule, also cut at the seams of `S` balanced bands
//!   ([`MemorySystemPlan::tile_plan`]), gives each shard a contiguous
//!   band range ([`TilePlan::restricted`]), which its session runs over
//!   the job's whole input in place (Zohouri-style spatial blocking
//!   inside one kernel). The shard outputs join in shard order,
//!   bit-identical to the unsharded run. [`ShardPolicy::Auto`] splits
//!   no wider than the pool or the queue, so every job an idle front
//!   can hold gets admitted;
//! * a shared **plan cache** keyed by `(benchmark, extents, mode)`
//!   builds each job geometry's plan, band schedule, input index and
//!   checked kernel once, and its shard cut once per shard count —
//!   shard sessions are seeded with their band range, so steady-state
//!   runs report `tile_plans_built == 0`;
//! * the pending-task queue is **bounded**: when the pool saturates,
//!   submission rejects with a retry-after hint instead of buffering
//!   without limit;
//! * per-shard telemetry aggregates into one validated
//!   [`stencil_telemetry::ServiceMetrics`] block, checked by the
//!   validator's `Residency` rule (aggregate peak resident ≤ the sum of
//!   admitted bounds ≤ the memory budget), its `OutputsComplete` rule
//!   (shard merge conserves every output) and its `Admission` rule.
//!
//! The queue, the job slots and the batch's figures sit in one `State`
//! behind one lock, which both condvars wait on; the plan cache keeps
//! its own, since plans are built with no lock held. A submission is
//! decided in one critical section (count, check budget, check queue,
//! commit or reject), so nothing is rolled back. A worker pops a shard
//! in one section, runs it unlocked, and retires it in one more.
//!
//! A job's outputs are copied at most once after the kernel writes
//! them. A one-shard job's result *is* its shard's run buffer. For a
//! multi-shard job, the worker that retires the last shard extends
//! shard 0's buffer with the others, in shard order and with no lock
//! held, freeing each once copied. [`ServiceFront::finish`] only moves
//! finished results out. A panic while a worker runs a shard or joins
//! a job's outputs fails that job with [`EngineError::WorkerPanic`];
//! the worker keeps serving.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stencil_core::{MemorySystemPlan, TilePlan};
use stencil_kernels::{Benchmark, KernelStage};
use stencil_telemetry::{MetricsReport, ServiceMetrics};

use crate::chain::{halo_window_bound, resident_span};
use crate::compile::CompiledKernel;
use crate::error::EngineError;
use crate::format::MappedGrid;
use crate::input::InputGrid;
use crate::report::{duration_ns, finite_throughput};
use crate::rowexec::{guard_unwind, lock_recover, wait_recover};
use crate::session::{ExecMode, Session, SessionKernel, SessionRun};

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
    /// Split into exactly this many band ranges of the job's schedule
    /// (clamped to the number of output rows); more shards than
    /// `queue_depth` is a configuration error.
    Fixed(usize),
    /// Split to `min(workers, queue_depth, output rows)`.
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
    /// no copy; every shard reads the mapped payload in place.
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

/// A completed job's result.
#[derive(Debug)]
pub struct JobResult {
    /// `benchmark` (whole) or `benchmark×S` (sharded) label.
    pub label: String,
    /// Outputs in full-grid row order (empty if the job failed): a
    /// one-shard job's run buffer itself, or the shard outputs joined
    /// in shard order by the worker that retired the last shard.
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

/// Key of the shared plan cache: one entry per job geometry.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct PlanKey {
    bench: String,
    extents: Vec<i64>,
    /// Band count and chunk height included: they select different band
    /// schedules.
    mode: ExecMode,
}

/// One shared cache entry: everything expensive about a job geometry,
/// built once and reused by every shard session over the same key.
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
    /// Output elements the geometry promises.
    outputs: u64,
    /// The mode the schedule was built for.
    mode: ExecMode,
    /// The schedule's cut per requested shard count, made by the first
    /// submit that asks for that count and shared by every later one.
    cuts: Mutex<HashMap<usize, Arc<[ShardCut]>>>,
}

/// One shard of a cut schedule.
struct ShardCut {
    /// The shard's band range of the job's schedule.
    bands: TilePlan,
    /// The resident values the shard is admitted for: streaming, the
    /// Sec. 2.3 halo-window bound of its bands; in core, the input
    /// their halos span.
    bound: u64,
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
        let outputs = tile.total_outputs();
        let kernel = CompiledKernel::for_benchmark(bench)?;
        Ok(Self {
            plan,
            index,
            tile,
            kernel,
            stage: bench.stage(),
            outputs,
            mode,
            cuts: Mutex::default(),
        })
    }

    /// The schedule cut for `shards` requested shards, cut once per
    /// count ([`CachedPlan::shard_bands`]) and shared from then on.
    fn shard_cut(&self, shards: usize) -> Result<Arc<[ShardCut]>, EngineError> {
        if let Some(cut) = lock_recover(&self.cuts).get(&shards) {
            return Ok(Arc::clone(cut));
        }
        // Cut outside the lock; a racing submit's equal cut may win.
        let cut: Arc<[ShardCut]> = self
            .shard_bands(shards)?
            .into_iter()
            .map(|bands| ShardCut {
                bound: match self.mode {
                    ExecMode::Streaming { .. } => halo_window_bound(&self.index, &bands),
                    _ => resident_span(&self.index, &bands, self.outputs),
                },
                bands,
            })
            .collect();
        Ok(Arc::clone(
            lock_recover(&self.cuts).entry(shards).or_insert(cut),
        ))
    }

    /// The mode's schedule cut into at most `shards` contiguous band
    /// ranges, one per band of the balanced `tile_plan(shards)`: its
    /// seams become band cuts too, so a shard ends where a balanced band
    /// does. One shard is the schedule itself.
    fn shard_bands(&self, shards: usize) -> Result<Vec<TilePlan>, EngineError> {
        if shards <= 1 {
            return Ok(vec![self.tile.clone()]);
        }
        let seams = self.plan.tile_plan(shards)?.cuts();
        let mut cuts = self.tile.cuts();
        cuts.extend(&seams);
        cuts.sort_unstable();
        cuts.dedup();
        let schedule = self.plan.tile_plan_from_cuts(&cuts)?;
        let mut start = 0;
        Ok(seams
            .iter()
            .map(|&seam| {
                let end = start + schedule.tiles()[start..].partition_point(|t| t.band.1 <= seam);
                let range = schedule.restricted(start..end);
                start = end;
                range
            })
            .collect())
    }
}

/// The plan cache: one entry per job geometry, with its own hit and
/// miss counts.
#[derive(Default)]
struct PlanCache {
    plans: HashMap<PlanKey, Arc<CachedPlan>>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// The cached plan for `key`, counted as a hit.
    fn hit(&mut self, key: &PlanKey) -> Option<Arc<CachedPlan>> {
        let hit = self.plans.get(key).cloned();
        self.hits += u64::from(hit.is_some());
        hit
    }
}

/// One queued unit of work: a band-range shard of an admitted job.
struct ShardTask {
    job: JobId,
    shard: usize,
    cached: Arc<CachedPlan>,
    input: JobInput,
    /// The job's cut schedule; this shard runs `cut[shard]`.
    cut: Arc<[ShardCut]>,
    label: String,
}

impl ShardTask {
    /// The resident values the shard is admitted for.
    fn bound(&self) -> u64 {
        self.cut[self.shard].bound
    }

    /// Runs the shard's bands over the job's whole input, in place,
    /// through a warm session of `threads` workers.
    fn run(&self, threads: usize) -> Result<SessionRun, EngineError> {
        let cached = &self.cached;
        let grid = InputGrid::new(&cached.index, self.input.values())?;
        let session = match &cached.kernel {
            Some(ck) => Session::new(&cached.plan).kernel(SessionKernel::Compiled(ck)),
            None => Session::build(&cached.plan, &cached.stage)?,
        }
        .mode(cached.mode)
        .threads(threads)
        .telemetry(self.label.clone());
        session.seed_tiles(self.cut[self.shard].bands.clone());
        session.run(&grid)
    }
}

/// Runs one shard task on a worker: [`ShardTask::run`], except in
/// tests that inject faults.
type RunShard = fn(&ShardTask, usize) -> Result<SessionRun, EngineError>;

/// Book-keeping of one admitted job.
struct JobSlot {
    label: String,
    shards: usize,
    /// Per-shard outputs in shard order, handed to the worker that
    /// retires the last shard.
    shard_outputs: Vec<Vec<f64>>,
    /// The job's outputs once that worker has joined them.
    outputs: Vec<f64>,
    remaining: usize,
    error: Option<EngineError>,
    /// The job's admitted residency bound (sum of shard bounds),
    /// released when its last shard retires.
    bound: u64,
}

impl JobSlot {
    fn new(label: String, shards: usize, bound: u64) -> Self {
        Self {
            label,
            shards,
            shard_outputs: vec![Vec::new(); shards],
            outputs: Vec::new(),
            remaining: shards,
            error: None,
            bound,
        }
    }

    fn into_result(self) -> JobResult {
        JobResult {
            label: self.label,
            shards: self.shards,
            outputs: self.outputs,
            error: self.error,
        }
    }
}

/// A job's outputs from its shard outputs in shard order: shard 0's
/// buffer, extended by the others, each freed once copied. A one-shard
/// job's buffer moves through uncopied.
fn join_shards(shard_outputs: Vec<Vec<f64>>) -> Vec<f64> {
    let total: usize = shard_outputs.iter().map(Vec::len).sum();
    let mut shards = shard_outputs.into_iter();
    let mut outputs = shards.next().unwrap_or_default();
    outputs.reserve_exact(total - outputs.len());
    for shard in shards {
        outputs.extend_from_slice(&shard);
    }
    outputs
}

/// Everything submitters and workers share, behind one lock: the
/// queue, the job slots, and the batch's counters and gauges.
#[derive(Default)]
struct State {
    tasks: VecDeque<ShardTask>,
    shutdown: bool,
    jobs: Vec<JobSlot>,
    /// Admitted jobs whose outputs are not yet joined.
    pending: usize,
    /// Σ bounds of shards currently executing.
    resident_now: u64,
    resident_peak: u64,
    /// Σ bounds of admitted, not-yet-completed jobs.
    admitted_now: u64,
    admitted_peak: u64,
    jobs_submitted: u64,
    jobs_admitted: u64,
    jobs_rejected: u64,
    jobs_failed: u64,
    shards_executed: u64,
    shards_over_bound: u64,
    outputs_expected: u64,
    outputs_produced: u64,
    tile_plans_built: u64,
    /// Summed service time of the shards that ran to completion.
    shard_ns_total: u64,
}

impl State {
    /// Records a finished shard. The job's last shard releases its
    /// admitted bound and returns its shard outputs, which the caller
    /// joins and hands to [`State::complete`]; a failed job's are
    /// dropped here, so it joins nothing.
    fn retire(
        &mut self,
        task: &ShardTask,
        run: Result<SessionRun, EngineError>,
        ns: u64,
    ) -> Option<Vec<Vec<f64>>> {
        self.resident_now -= task.bound();
        match run {
            Ok(run) => {
                self.shards_executed += 1;
                self.shard_ns_total += ns;
                self.tile_plans_built += run.report.tile_plans_built;
                self.outputs_produced += run.outputs.len() as u64;
                self.shards_over_bound += u64::from(run.report.peak_resident > task.bound());
                self.jobs[task.job].shard_outputs[task.shard] = run.outputs;
            }
            Err(e) => self.fail(task.job, e),
        }
        let slot = &mut self.jobs[task.job];
        slot.remaining -= 1;
        if slot.remaining > 0 {
            return None;
        }
        self.admitted_now -= slot.bound;
        let shard_outputs = std::mem::take(&mut slot.shard_outputs);
        Some(match slot.error {
            None => shard_outputs,
            Some(_) => Vec::new(),
        })
    }

    /// Stores a job's joined outputs, or fails it if the join panicked.
    fn complete(&mut self, job: JobId, outputs: Result<Vec<f64>, EngineError>) {
        match outputs {
            Ok(outputs) => self.jobs[job].outputs = outputs,
            Err(e) => self.fail(job, e),
        }
        self.pending -= 1;
    }

    /// Records `e` as the job's error unless it already has one.
    fn fail(&mut self, job: JobId, e: EngineError) {
        let slot = &mut self.jobs[job];
        if slot.error.is_none() {
            slot.error = Some(e);
            self.jobs_failed += 1;
        }
    }
}

struct Inner {
    cfg: ServiceConfig,
    state: Mutex<State>,
    /// Signalled when shards are queued or the front stops.
    task_ready: Condvar,
    /// Signalled when a job's last shard retires.
    job_done: Condvar,
    plan_cache: Mutex<PlanCache>,
}

impl Inner {
    fn new(cfg: ServiceConfig) -> Self {
        Self {
            cfg,
            state: Mutex::default(),
            task_ready: Condvar::new(),
            job_done: Condvar::new(),
            plan_cache: Mutex::default(),
        }
    }

    /// Looks a job geometry up in the shared plan cache, building and
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
        if let Some(hit) = lock_recover(&self.plan_cache).hit(&key) {
            return Ok(hit);
        }
        // Build outside the cache lock: plan generation is the
        // expensive part this cache exists to amortize.
        let built = Arc::new(CachedPlan::build(bench, extents, mode)?);
        let mut cache = lock_recover(&self.plan_cache);
        if let Some(racer) = cache.hit(&key) {
            return Ok(racer);
        }
        cache.misses += 1;
        cache.plans.insert(key, Arc::clone(&built));
        Ok(built)
    }

    /// Resolves a job to its geometry's one cached plan and cuts it into
    /// its label and shard tasks, numbered job 0 until admitted, with
    /// typed errors for a job that can never run.
    fn shard_job(&self, req: &JobRequest) -> Result<(String, Vec<ShardTask>), EngineError> {
        let bench = &req.benchmark;
        let extents = req
            .extents
            .clone()
            .unwrap_or_else(|| bench.extents().to_vec());
        if extents.is_empty() || extents.iter().any(|&e| e <= 0) {
            return Err(EngineError::Config {
                detail: format!("invalid grid extents {extents:?}"),
            });
        }
        // Overflow is a typed rejection, not a saturated count that
        // fails later as a confusing length mismatch; the elements must
        // also be addressable as payload bytes.
        let bytes = extents
            .iter()
            .try_fold(8u64, |n, &e| n.checked_mul(e as u64))
            .ok_or_else(|| EngineError::JobTooLarge {
                extents: extents.clone(),
            })?;
        let elements = bytes / 8;
        if req.input.len() as u64 != elements {
            return Err(EngineError::InputSizeMismatch {
                expected: elements,
                got: req.input.len() as u64,
            });
        }
        let cached = self.cached_plan(bench, &extents, req.mode)?;
        // Auto splits no wider than the queue, so an idle front can
        // hold every shard of the job at once.
        let requested = match req.shards {
            ShardPolicy::Whole => 1,
            ShardPolicy::Fixed(n) => n,
            ShardPolicy::Auto => self.cfg.workers.min(self.cfg.queue_depth),
        };
        let cut = cached.shard_cut(requested)?;
        if cut.len() > self.cfg.queue_depth {
            let detail = format!(
                "{} shards exceed the queue depth {}",
                cut.len(),
                self.cfg.queue_depth
            );
            return Err(EngineError::Config { detail });
        }
        let label = match cut.len() {
            1 => bench.name().to_string(),
            n => format!("{}×{n}", bench.name()),
        };
        let tasks = (0..cut.len())
            .map(|shard| ShardTask {
                job: 0,
                shard,
                cached: Arc::clone(&cached),
                cut: Arc::clone(&cut),
                input: req.input.clone(),
                label: format!("{label}/shard{shard}"),
            })
            .collect();
        Ok((label, tasks))
    }

    /// The worker loop: pop a shard, run it with no lock held, retire
    /// it. A panic in the run fails the job, not the worker. After
    /// shutdown, exit once the queue is drained.
    fn work(&self, run: RunShard) {
        let mut state = lock_recover(&self.state);
        loop {
            state = wait_recover(&self.task_ready, state, |s| {
                s.tasks.is_empty() && !s.shutdown
            });
            let Some(task) = state.tasks.pop_front() else {
                return; // shut down with the queue drained
            };
            state.resident_now += task.bound();
            state.resident_peak = state.resident_peak.max(state.resident_now);
            drop(state);
            let started = Instant::now();
            let outcome = guard_unwind(|| run(&task, self.cfg.session_threads));
            let ns = duration_ns(started.elapsed());
            state = self.retire(&task, outcome, ns);
        }
    }

    /// Retires a shard that has run. The job's last shard also joins
    /// the job's outputs, with no lock held; a panic there fails the
    /// job. Returns with the state locked.
    fn retire(
        &self,
        task: &ShardTask,
        outcome: Result<SessionRun, EngineError>,
        ns: u64,
    ) -> MutexGuard<'_, State> {
        let mut state = lock_recover(&self.state);
        let Some(shard_outputs) = state.retire(task, outcome, ns) else {
            return state;
        };
        drop(state);
        let outputs = guard_unwind(|| Ok(join_shards(shard_outputs)));
        state = lock_recover(&self.state);
        state.complete(task.job, outputs);
        self.job_done.notify_all();
        state
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
    pub fn new(cfg: ServiceConfig) -> Self {
        Self::with_runner(cfg, ShardTask::run)
    }

    /// Starts a pool whose workers run each shard through `run`.
    fn with_runner(mut cfg: ServiceConfig, run: RunShard) -> Self {
        cfg.workers = cfg.workers.max(1);
        cfg.queue_depth = cfg.queue_depth.max(1);
        let inner = Arc::new(Inner::new(cfg.clone()));
        let handles = (0..cfg.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.work(run))
            })
            .collect();
        Self {
            inner,
            handles,
            started: Instant::now(),
        }
    }

    /// Offers a job. Geometry and plan validation come first and fail
    /// with typed errors before the job is counted. Admission then
    /// checks the memory budget and then queue capacity; those failures
    /// are *not* errors but [`Submission::Rejected`] backpressure with
    /// a retry hint.
    ///
    /// # Errors
    ///
    /// * [`EngineError::Config`] if the extents are empty or not
    ///   positive, or the job splits into more shards than the queue
    ///   holds.
    /// * [`EngineError::JobTooLarge`] if the grid's element or byte
    ///   count overflows.
    /// * [`EngineError::InputSizeMismatch`] if `input` does not cover
    ///   the grid.
    /// * [`EngineError::Plan`] if the grid cannot be planned.
    /// * [`EngineError::KernelCompile`] / [`EngineError::KernelMismatch`]
    ///   if the benchmark's expression fails checked compilation.
    pub fn submit(&self, req: &JobRequest) -> Result<Submission, EngineError> {
        let cfg = &self.inner.cfg;
        let (label, tasks) = self.inner.shard_job(req)?;
        let shards = tasks.len();
        let bound = tasks.iter().map(|t| t.bound()).sum();
        let expected = tasks[0].cached.outputs;

        // One admission decision: count the job, check the budget, then
        // the queue, and either reject or commit.
        let mut state = lock_recover(&self.inner.state);
        state.jobs_submitted += 1;
        let reason = if cfg.memory_budget > 0 && state.admitted_now + bound > cfg.memory_budget {
            Some(RejectReason::BudgetExhausted)
        } else if state.tasks.len() + shards > cfg.queue_depth {
            Some(RejectReason::QueueFull)
        } else {
            None
        };
        if let Some(reason) = reason {
            state.jobs_rejected += 1;
            // Pending work divided across the pool at the observed
            // per-shard service time; 1 ms before any observation.
            let avg_ns = state
                .shard_ns_total
                .checked_div(state.shards_executed)
                .unwrap_or(1_000_000);
            let per_worker = (state.tasks.len() as u64 + 1).div_ceil(cfg.workers as u64);
            let retry_after = Duration::from_nanos((per_worker * avg_ns).max(1_000_000));
            return Ok(Submission::Rejected(Rejection {
                reason,
                retry_after,
            }));
        }
        state.admitted_now += bound;
        state.admitted_peak = state.admitted_peak.max(state.admitted_now);
        state.jobs_admitted += 1;
        state.outputs_expected += expected;
        state.pending += 1;
        let job = state.jobs.len();
        state.jobs.push(JobSlot::new(label, shards, bound));
        state
            .tasks
            .extend(tasks.into_iter().map(|t| ShardTask { job, ..t }));
        drop(state);
        for _ in 0..shards {
            self.inner.task_ready.notify_one();
        }
        Ok(Submission::Admitted(job))
    }

    /// Blocks until every admitted job has completed and its outputs are
    /// joined.
    pub fn wait_idle(&self) {
        let state = lock_recover(&self.inner.state);
        drop(wait_recover(&self.inner.job_done, state, |s| s.pending > 0));
    }

    /// Stops the pool: the workers drain the queue, exit, and are
    /// joined. Shared by [`ServiceFront::finish`] and `Drop`.
    fn stop(&mut self) {
        lock_recover(&self.inner.state).shutdown = true;
        self.inner.task_ready.notify_all();
        for h in self.handles.drain(..) {
            // Shard panics resolve as typed job errors; a worker has
            // nothing else to report.
            let _ = h.join();
        }
    }

    /// Waits for all admitted jobs, stops the pool, and returns the
    /// per-job results plus aggregated service telemetry. The results
    /// are moved out as the workers built them; nothing is copied.
    #[must_use]
    pub fn finish(mut self) -> ServiceOutcome {
        self.wait_idle();
        self.stop();
        let elapsed = self.started.elapsed();
        let cfg = &self.inner.cfg;
        let cache = lock_recover(&self.inner.plan_cache);
        let mut s = lock_recover(&self.inner.state);
        let metrics = ServiceMetrics {
            workers: cfg.workers as u64,
            queue_depth: cfg.queue_depth as u64,
            memory_budget: cfg.memory_budget,
            jobs_submitted: s.jobs_submitted,
            jobs_admitted: s.jobs_admitted,
            jobs_rejected: s.jobs_rejected,
            jobs_failed: s.jobs_failed,
            shards_executed: s.shards_executed,
            admitted_bound_peak: s.admitted_peak,
            peak_resident: s.resident_peak,
            shards_over_bound: s.shards_over_bound,
            outputs_expected: s.outputs_expected,
            outputs_produced: s.outputs_produced,
            tile_plans_built: s.tile_plans_built,
            plan_cache_hits: cache.hits,
            plan_cache_misses: cache.misses,
            elapsed_ns: duration_ns(elapsed),
            throughput: finite_throughput(s.outputs_produced, elapsed),
        };
        let jobs = s.jobs.drain(..).map(JobSlot::into_result).collect();
        ServiceOutcome { jobs, metrics }
    }
}

impl Drop for ServiceFront {
    /// A front dropped without [`ServiceFront::finish`] still stops its
    /// workers instead of leaking them.
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_kernels::{denoise, extra_suite, paper_suite, sobel};

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
    fn sharded_jobs_merge_bit_identical_to_unsharded() {
        for bench in paper_suite().into_iter().chain(extra_suite()) {
            // Small grids keep the test fast; every benchmark keeps its
            // own dimensionality (1D, 2D and 3D all shard along dim 0:
            // a 1D shard is a clipped slice of the one row).
            let extents: Vec<i64> = match bench.dims() {
                1 => vec![64],
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
            assert_eq!(job.shards, 3, "{}", bench.name());
            assert_eq!(job.outputs, reference, "{}", bench.name());
            assert_eq!(outcome.metrics.outputs_produced, reference.len() as u64);
            assert_eq!(outcome.metrics.outputs_expected, reference.len() as u64);
        }
    }

    #[test]
    fn a_sharded_job_builds_one_plan() {
        // 38 output rows in three shards of 13, 13 and 12 rows: one
        // geometry, one plan.
        let input = Arc::new(lcg_input(40 * 24, 8));
        let front = ServiceFront::new(ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        });
        let req = JobRequest {
            benchmark: denoise(),
            extents: Some(vec![40, 24]),
            mode: ExecMode::InCore,
            shards: ShardPolicy::Fixed(3),
            input: input.into(),
        };
        assert!(matches!(front.submit(&req), Ok(Submission::Admitted(0))));
        let outcome = front.finish();
        assert_eq!(outcome.jobs[0].shards, 3);
        let m = &outcome.metrics;
        assert_eq!((m.plan_cache_misses, m.plan_cache_hits), (1, 0));
        assert_eq!(m.tile_plans_built, 0);
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
    fn auto_policy_shards_to_pool_width() {
        let inner = Inner::new(ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        });
        let req = JobRequest {
            benchmark: sobel(),
            extents: Some(vec![40, 24]),
            mode: ExecMode::InCore,
            shards: ShardPolicy::Auto,
            input: Arc::new(lcg_input(40 * 24, 4)).into(),
        };
        assert_eq!(inner.shard_job(&req).unwrap().1.len(), 4);
    }

    #[test]
    fn a_repeated_shard_count_reuses_its_cut() {
        let (bench, extents) = (denoise(), vec![40i64, 24]);
        let input = Arc::new(lcg_input(40 * 24, 12));
        let reference = unsharded_outputs(&bench, &extents, &input);
        let front = ServiceFront::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let req = |shards| JobRequest {
            benchmark: bench.clone(),
            extents: Some(extents.clone()),
            mode: ExecMode::InCore,
            shards,
            input: Arc::clone(&input).into(),
        };
        let (_, first) = front.inner.shard_job(&req(ShardPolicy::Fixed(4))).unwrap();
        let (_, second) = front.inner.shard_job(&req(ShardPolicy::Fixed(4))).unwrap();
        assert_eq!(first.len(), 4);
        for (a, b) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(&a.cut, &b.cut));
            assert_eq!(a.bound(), b.bound());
        }
        let (_, other) = front.inner.shard_job(&req(ShardPolicy::Fixed(2))).unwrap();
        assert!(!Arc::ptr_eq(&first[0].cut, &other[0].cut));
        // Jobs that share a cut still merge bit-identical to one run.
        for _ in 0..2 {
            assert!(matches!(
                front.submit(&req(ShardPolicy::Fixed(4))),
                Ok(Submission::Admitted(_))
            ));
        }
        let outcome = front.finish();
        for job in &outcome.jobs {
            assert!(job.error.is_none(), "{:?}", job.error);
            assert_eq!(job.outputs, reference);
        }
    }

    #[test]
    fn overflowing_extents_are_a_typed_job_too_large() {
        // Element count (and byte count) of these extents overflows
        // u64 multiplication; the planner must reject with a typed
        // error instead of saturating into a bogus geometry.
        let extents = vec![i64::MAX / 2, 8, 8];
        let req = JobRequest {
            benchmark: denoise(),
            extents: Some(extents.clone()),
            mode: ExecMode::InCore,
            shards: ShardPolicy::Whole,
            input: Arc::new(Vec::new()).into(),
        };
        let e = Inner::new(ServiceConfig::default())
            .shard_job(&req)
            .err()
            .unwrap();
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

    /// A closure-backend kernel that holds its worker until [`GATE`]
    /// opens, so a test can keep shards queued behind it.
    static GATE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

    fn gated(_: &[f64]) -> f64 {
        while !GATE.load(std::sync::atomic::Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        0.0
    }

    /// Opens [`GATE`] when dropped, so a failing test still releases
    /// its worker before the front joins it.
    struct OpenGate;

    impl Drop for OpenGate {
        fn drop(&mut self) {
            GATE.store(true, std::sync::atomic::Ordering::Release);
        }
    }

    #[test]
    fn a_job_rejected_for_a_full_queue_leaves_no_admitted_bound() {
        let input = Arc::new(lcg_input(64 * 48, 5));
        let two_shards = JobRequest {
            benchmark: denoise(),
            extents: Some(vec![64, 48]),
            mode: ExecMode::InCore,
            shards: ShardPolicy::Fixed(2),
            input: Arc::clone(&input).into(),
        };
        // Two shards can never fit a depth-1 queue: the job is refused
        // before it is counted, and no bound is ever admitted for it.
        let front = ServiceFront::new(ServiceConfig {
            workers: 1,
            queue_depth: 1,
            memory_budget: 1 << 40,
            session_threads: 1,
        });
        let refused = front.submit(&two_shards);
        let m = front.finish().metrics;
        assert!(!matches!(refused, Ok(Submission::Admitted(_))));
        assert_eq!(m.jobs_admitted, 0);
        assert_eq!(m.admitted_bound_peak, 0);

        // A depth-2 queue holds the same job only while it is empty.
        // The gated job occupies the one worker and the small job the
        // queue, so the two-shard job is rejected for a full queue.
        let front = ServiceFront::new(ServiceConfig {
            workers: 1,
            queue_depth: 2,
            memory_budget: 1 << 40,
            session_threads: 1,
        });
        let gate = OpenGate;
        let small = vec![6i64, 4];
        let blocker = JobRequest {
            benchmark: Benchmark::new(
                "GATED",
                small.clone(),
                vec![stencil_polyhedral::Point::new(&[0, 0])],
                stencil_kernels::KernelOps::default(),
                gated,
            ),
            extents: Some(small.clone()),
            mode: ExecMode::InCore,
            shards: ShardPolicy::Whole,
            input: Arc::new(lcg_input(24, 1)).into(),
        };
        let queued = JobRequest {
            benchmark: denoise(),
            extents: Some(small),
            ..blocker.clone()
        };
        let submissions = [&blocker, &queued, &two_shards].map(|req| front.submit(req));
        drop(gate);
        let outcome = front.finish();
        let m = &outcome.metrics;
        assert!(matches!(submissions[0], Ok(Submission::Admitted(0))));
        assert!(matches!(submissions[1], Ok(Submission::Admitted(1))));
        let Ok(Submission::Rejected(r)) = submissions[2] else {
            panic!(
                "a two-shard job fit behind a queued one: {:?}",
                submissions[2]
            );
        };
        assert_eq!(r.reason, RejectReason::QueueFull);
        assert_eq!((m.jobs_admitted, m.jobs_rejected), (2, 1));
        // The two admitted 6x4 in-core jobs bound 24 values each; the
        // rejected job's 3168 never counts.
        assert_eq!(m.admitted_bound_peak, 48);
        assert_eq!(
            stencil_telemetry::validate_report(&outcome.report("serve")),
            vec![]
        );
    }

    #[test]
    fn auto_shards_fit_a_queue_shallower_than_the_pool() {
        let extents = vec![64i64, 48];
        let input = Arc::new(lcg_input(64 * 48, 11));
        let reference = unsharded_outputs(&denoise(), &extents, &input);
        let front = ServiceFront::new(ServiceConfig {
            workers: 4,
            queue_depth: 2,
            ..ServiceConfig::default()
        });
        let req = JobRequest {
            benchmark: denoise(),
            extents: Some(extents),
            mode: ExecMode::InCore,
            shards: ShardPolicy::Auto,
            input: input.into(),
        };
        let Submission::Admitted(id) = front.submit(&req).unwrap() else {
            panic!("an idle front rejected an auto-sharded job");
        };
        let outcome = front.finish();
        let job = &outcome.jobs[id];
        assert_eq!(job.shards, 2);
        assert!(job.error.is_none(), "{:?}", job.error);
        assert_eq!(job.outputs, reference);
        assert_eq!(outcome.metrics.jobs_rejected, 0);
    }

    #[test]
    fn more_fixed_shards_than_the_queue_holds_is_a_config_error() {
        let front = ServiceFront::new(ServiceConfig {
            workers: 4,
            queue_depth: 2,
            ..ServiceConfig::default()
        });
        let req = JobRequest {
            benchmark: denoise(),
            extents: Some(vec![64, 48]),
            mode: ExecMode::InCore,
            shards: ShardPolicy::Fixed(3),
            input: Arc::new(lcg_input(64 * 48, 2)).into(),
        };
        let e = front.submit(&req).unwrap_err();
        assert!(matches!(e, EngineError::Config { .. }), "{e:?}");
        assert_eq!(front.finish().metrics.jobs_submitted, 0);
    }

    /// A DENOISE job split into `shards` in-core band ranges by
    /// `submit`'s own [`Inner::shard_job`], on a one-job `Inner` whose
    /// bounds are all admitted and resident. No worker runs: the test
    /// runs and retires shards.
    fn one_job(extents: &[i64], input: &Arc<Vec<f64>>, shards: usize) -> (Inner, Vec<ShardTask>) {
        let mut inner = Inner::new(ServiceConfig::default());
        let req = JobRequest {
            benchmark: denoise(),
            extents: Some(extents.to_vec()),
            mode: ExecMode::InCore,
            shards: ShardPolicy::Fixed(shards),
            input: Arc::clone(input).into(),
        };
        let (label, tasks) = inner.shard_job(&req).unwrap();
        let bound = tasks.iter().map(|t| t.bound()).sum();
        let state = inner.state.get_mut().unwrap();
        *state = State {
            pending: 1,
            admitted_now: bound,
            resident_now: bound,
            ..State::default()
        };
        state.jobs.push(JobSlot::new(label, tasks.len(), bound));
        (inner, tasks)
    }

    /// Retires each shard's outcome in `order` as a worker does, and
    /// returns the job's result and the state it leaves, once the job
    /// is no longer pending.
    fn retire_in(
        inner: Inner,
        tasks: &[ShardTask],
        mut outcomes: Vec<Option<Result<SessionRun, EngineError>>>,
        order: &[usize],
    ) -> (JobResult, State) {
        for &k in order {
            let outcome = outcomes[k].take().expect("each shard retires once");
            drop(inner.retire(&tasks[k], outcome, 1));
        }
        let mut state = inner.state.into_inner().unwrap();
        assert_eq!(
            (state.pending, state.admitted_now, state.resident_now),
            (0, 0, 0)
        );
        (state.jobs.pop().unwrap().into_result(), state)
    }

    #[test]
    fn a_one_shard_result_is_its_run_buffer() {
        let input = Arc::new(lcg_input(24 * 16, 21));
        let (inner, tasks) = one_job(&[24, 16], &input, 1);
        let run = tasks[0].run(1).unwrap();
        let buffer = run.outputs.as_ptr();
        let (job, _) = retire_in(inner, &tasks, vec![Some(Ok(run))], &[0]);
        assert!(job.error.is_none(), "{:?}", job.error);
        assert_eq!(job.outputs.as_ptr(), buffer);
        assert_eq!(
            job.outputs,
            unsharded_outputs(&denoise(), &[24, 16], &input)
        );
    }

    #[test]
    fn a_multi_shard_result_is_the_shard_order_concatenation() {
        let extents = [40i64, 24];
        let input = Arc::new(lcg_input(40 * 24, 22));
        let reference = unsharded_outputs(&denoise(), &extents, &input);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for order in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]] {
            let (inner, tasks) = one_job(&extents, &input, 3);
            let runs: Vec<SessionRun> = tasks.iter().map(|t| t.run(1).unwrap()).collect();
            let in_order: Vec<f64> = runs.iter().flat_map(|r| r.outputs.clone()).collect();
            let outcomes = runs.into_iter().map(|r| Some(Ok(r))).collect();
            let (job, m) = retire_in(inner, &tasks, outcomes, &order);
            assert!(job.error.is_none(), "{order:?}: {:?}", job.error);
            assert_eq!(job.shards, 3);
            assert_eq!(bits(&job.outputs), bits(&in_order), "{order:?}");
            assert_eq!(bits(&job.outputs), bits(&reference), "{order:?}");
            assert_eq!(m.outputs_produced, reference.len() as u64);
        }
    }

    #[test]
    fn a_failed_job_returns_no_outputs_and_its_first_error() {
        let input = Arc::new(lcg_input(40 * 24, 23));
        let (inner, tasks) = one_job(&[40, 24], &input, 3);
        let first = EngineError::MissingInput {
            point: "shard 1".into(),
        };
        let outcomes = vec![
            Some(tasks[0].run(1)),
            Some(Err(first.clone())),
            Some(Err(EngineError::WorkerPanic)),
        ];
        let (job, m) = retire_in(inner, &tasks, outcomes, &[1, 0, 2]);
        assert_eq!(job.error, Some(first));
        assert!(job.outputs.is_empty());
        assert_eq!(job.shards, 3);
        assert_eq!(m.jobs_failed, 1);
    }

    #[test]
    fn a_panicking_shard_fails_its_job_and_the_pool_keeps_serving() {
        let extents = vec![24i64, 16];
        let input = Arc::new(lcg_input(24 * 16, 24));
        let reference = unsharded_outputs(&denoise(), &extents, &input);
        let req = JobRequest {
            benchmark: denoise(),
            extents: Some(extents),
            mode: ExecMode::InCore,
            shards: ShardPolicy::Whole,
            input: input.into(),
        };
        // The batch runs on a helper thread, so a job that never
        // resolves fails the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            // Job 1 panics outside the session, where no executor
            // scope catches it.
            let front = ServiceFront::with_runner(
                ServiceConfig {
                    workers: 1,
                    ..ServiceConfig::default()
                },
                |task, threads| {
                    assert_ne!(task.job, 1, "shard runner bug");
                    task.run(threads)
                },
            );
            let submit = |req: &JobRequest| {
                let Ok(Submission::Admitted(id)) = front.submit(req) else {
                    panic!("an idle unbudgeted front rejected a job");
                };
                id
            };
            let first: Vec<JobId> = (0..3).map(|_| submit(&req)).collect();
            front.wait_idle();
            let admitted_now = lock_recover(&front.inner.state).admitted_now;
            // The one worker survived the panic and takes another job.
            let last = submit(&req);
            let _ = tx.send((first, last, admitted_now, front.finish()));
        });
        let (first, last, admitted_now, outcome) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("every job resolves");
        helper
            .join()
            .expect("the batch thread returns after sending");
        assert_eq!((first, last), (vec![0, 1, 2], 3));
        assert_eq!(admitted_now, 0);
        assert_eq!(outcome.jobs[1].error, Some(EngineError::WorkerPanic));
        assert!(outcome.jobs[1].outputs.is_empty());
        for id in [0, 2, 3] {
            let job = &outcome.jobs[id];
            assert!(job.error.is_none(), "job {id}: {:?}", job.error);
            assert_eq!(job.outputs, reference, "job {id}");
        }
        let m = &outcome.metrics;
        assert_eq!((m.jobs_admitted, m.jobs_failed), (4, 1));
        assert_eq!(
            stencil_telemetry::validate_report(&outcome.report("serve")),
            vec![]
        );
    }
}
