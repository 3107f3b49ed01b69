//! The unified execution layer: one [`Session`] builder behind every
//! backend × mode combination, with temporal kernel chaining.
//!
//! A [`Session`] factors the engine's axes orthogonally:
//!
//! ```text
//! Session::new(&plan)                  // what to compute
//!     .kernel(SessionKernel::..)       // datapath: closure or bytecode
//!     .backend(KernelBackend::..)      // how bytecode executes
//!     .mode(ExecMode::..)              // in-core / streaming band schedule
//!     .threads(n)                      // workers splitting each band's rows
//!     .run(&input)                     // or .run_streaming(src, sink)
//! ```
//!
//! Every run is one pump: the stages run as one band wavefront
//! ([`crate::chain`]), each band landing in place in the next stage's
//! halo window and the last stage's in the result or the sink. The
//! input decides what is resident: an [`InputGrid`] or a mapped source
//! is read in place, any other source row by row. The mode only picks
//! the band schedule — in core one band per off-chip stream of the plan
//! (Appendix 9.4), streaming bands of `chunk_rows` — and the stage
//! report block (`engine` in core, `stream` streaming).
//!
//! # Temporal chaining
//!
//! [`Session::then`] appends a second kernel stage whose input is the
//! previous stage's output. Chains are *heterogeneous*: each stage
//! carries its own window shape and resolves its own backend. The
//! chained plan is derived by *eroding* the upstream iteration domain
//! by the new stage's own window ([`MemorySystemPlan::chain_next`]),
//! and the inter-stage reuse buffer is sized from that stage's own
//! reuse distances — the paper's Sec. 2.3 bound applied stage-wise —
//! which makes the stages line up exactly: stage `k + 1`'s input
//! domain equals stage `k`'s iteration domain, row for row. Each stage
//! independently executes compiled bytecode (when its
//! [`KernelStage::expr`] exists) or its closure, overridable per stage
//! via [`Session::stage_backend`]; [`Session::stage_plans`] exposes the
//! resolved per-stage recipe ([`StagePlan`]) without running. The
//! stages run as coupled halo windows of possibly different reaches —
//! stage `k`'s output rows feed stage `k + 1` without materializing an
//! intermediate grid, so a DENOISE → 3x3-blur chain keeps roughly two
//! (differently sized) halo windows resident instead of a full frame. The session report carries each
//! stage's backend, window shape, and residency bound, and sums the
//! per-stage windows into one chained residency bound that the
//! telemetry validator re-checks per stage. In core the chain runs the
//! same way: only the first stage's input is held whole.
//!
//! # Iterative time-stepping
//!
//! [`Session::iterate`] generalizes the chain to a *self-chained ring*:
//! the single stage's own window erodes its own iteration domain, T
//! times, so a Jacobi/heat-style kernel runs for T time steps through
//! one plan built once. In every mode, T coupled halo windows stay
//! resident — a T×halo budget instead of T−1 materialized grids.
//! [`Session::iterate_until`] adds an epsilon-based convergence early
//! exit: after each step a row-aligned max-abs-delta reduction compares
//! the step's output against its input, and stepping stops as soon as
//! the update falls to `epsilon`. Both report [`IterateReport`]
//! telemetry (steps, step budget, convergence) that the validator's
//! `Convergence` rule re-checks from the serialized figures alone; the
//! run's residency is the session's own peak and bound, checked by the
//! `Residency` rule like every other session's.
//!
//! Tile plans are hoisted to session construction: [`Session::then`]
//! and [`Session::iterate`] prebuild each stage's band schedule for the
//! session's mode, so a T-step run pays plan validation once, not per
//! step. The report's `tile_plans_built` counter pins this — a
//! well-prepared run reports 0.

use std::borrow::Cow;
use std::cell::{Cell, OnceCell, RefCell};
use std::cmp::Ordering;
use std::fmt;
use std::time::{Duration, Instant};

use stencil_core::{MemorySystemPlan, TilePlan};
use stencil_kernels::{ComputeFn, KernelStage};
use stencil_polyhedral::{lex_cmp, DomainIndex};

use crate::chain::{run_chain, Outlet, StreamStage};
use crate::compile::{CompiledKernel, KernelBackend};
use crate::error::EngineError;
use crate::format::MappedGrid;
use crate::input::InputGrid;
use crate::report::{finite_throughput, GridIoReport, RunReport, StreamReport};
use crate::rowexec::{check_kernel_window, machine_parallelism, plan_offsets, RowKernel};
use crate::stream::{result_buffer, RowSink, RowSource};
use crate::unroll::RowProgram;

/// How a [`Session`] drives execution — orthogonal to the kernel and
/// backend choices. Every mode runs the same band wavefront; the mode
/// picks its band schedule and whether the report carries `engine` or
/// `stream` stage blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// The input grid stays resident as a whole, and its schedule is
    /// the plan's off-chip streams: one band per stream (Appendix 9.4;
    /// [`MemorySystemPlan::with_offchip_streams`] sets the count).
    /// Later stages of a chain or ring read their upstream's bands
    /// through halo windows, as streaming.
    #[default]
    InCore,
    /// Bounded-memory streaming: only each stage's current halo window
    /// stays resident.
    Streaming {
        /// Band height in outermost-dimension rows; `None` applies the
        /// plan's one-band-per-off-chip-stream sharding.
        chunk_rows: Option<u64>,
    },
}

impl ExecMode {
    /// The mode's telemetry wire name.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            ExecMode::InCore => "incore",
            ExecMode::Streaming { .. } => "streaming",
        }
    }

    /// The band schedule this mode runs `plan` under: bands of
    /// `chunk_rows` when streaming with a height, else (in core, or
    /// streaming with `None`) one band per off-chip stream.
    pub(crate) fn bands(self, plan: &MemorySystemPlan) -> Result<TilePlan, EngineError> {
        Ok(match self {
            ExecMode::Streaming {
                chunk_rows: Some(n),
            } => plan.tile_plan_chunked(n)?,
            ExecMode::InCore | ExecMode::Streaming { chunk_rows: None } => {
                plan.tile_plan(plan.offchip_streams().max(1))?
            }
        })
    }
}

/// The datapath of a session stage.
#[derive(Clone, Copy)]
pub enum SessionKernel<'a> {
    /// An arbitrary window closure; always evaluates per element.
    Closure(&'a (dyn Fn(&[f64]) -> f64 + Sync)),
    /// Pre-compiled bytecode; row-sweeps its register program under
    /// [`KernelBackend::Compiled`].
    Compiled(&'a CompiledKernel),
}

impl fmt::Debug for SessionKernel<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionKernel::Closure(_) => f.write_str("SessionKernel::Closure"),
            SessionKernel::Compiled(k) => f
                .debug_tuple("SessionKernel::Compiled")
                .field(&k.taps())
                .finish(),
        }
    }
}

/// A stage's datapath, covering both borrowed builder inputs and
/// kernels the chain owns (compiled on the fly from stage metadata, or
/// a plain-`fn` closure from [`KernelStage`] metadata).
enum StageKernel<'a> {
    Closure(&'a (dyn Fn(&[f64]) -> f64 + Sync)),
    ClosureFn(ComputeFn),
    Compiled(Cow<'a, CompiledKernel>),
}

impl StageKernel<'_> {
    /// A stage's datapath from its metadata: the checked compiled form
    /// (with its native row body, if any) when the stage carries an
    /// expression, else its closure.
    fn from_stage(stage: &KernelStage) -> Result<Self, EngineError> {
        Ok(match CompiledKernel::for_stage(stage)? {
            Some(ck) => StageKernel::Compiled(Cow::Owned(ck)),
            None => StageKernel::ClosureFn(stage.compute_fn()),
        })
    }
}

/// A stage's plan: borrowed for stage 0, owned for chained stages
/// (derived by domain erosion).
enum PlanRef<'a> {
    Borrowed(&'a MemorySystemPlan),
    Owned(Box<MemorySystemPlan>),
}

impl PlanRef<'_> {
    fn get(&self) -> &MemorySystemPlan {
        match self {
            PlanRef::Borrowed(p) => p,
            PlanRef::Owned(p) => p,
        }
    }
}

/// One kernel application in the session's temporal pipeline.
struct Stage<'a> {
    plan: PlanRef<'a>,
    kernel: Option<StageKernel<'a>>,
    label: String,
    /// Per-stage backend override; `None` inherits the session default.
    backend: Option<KernelBackend>,
    /// The stage's band schedules, one entry per [`ExecMode`], built on
    /// first use and reused across runs — the hoist that keeps
    /// `iterate` from paying tile-plan validation per step. Keyed (not
    /// single-slot) so a session alternating `run()` and
    /// `run_streaming()` — the CLI crosscheck path — keeps both
    /// schedules warm instead of evicting one with the other.
    tile: RefCell<Vec<(ExecMode, TilePlan)>>,
    /// The stage's iteration index, built on first use: every band's
    /// rows are a rank range of it, and it is the next stage's input
    /// index row for row.
    iter_index: OnceCell<DomainIndex>,
    /// The stage's input index, built on first use (stage 0 only: a
    /// later stage reads its upstream's iteration index).
    input_index: OnceCell<DomainIndex>,
    /// The stage's validated row program, built on first use and
    /// reused by every later run (and by every step of an iterate
    /// ring); a builder call that changes its kernel clears it.
    program: OnceCell<RowProgram>,
}

impl<'a> Stage<'a> {
    fn new(plan: PlanRef<'a>, kernel: Option<StageKernel<'a>>, label: String) -> Stage<'a> {
        Stage {
            plan,
            kernel,
            label,
            backend: None,
            tile: RefCell::new(Vec::new()),
            iter_index: OnceCell::new(),
            input_index: OnceCell::new(),
            program: OnceCell::new(),
        }
    }

    /// The stage's tile plan under `mode`, building and caching it on
    /// miss: [`ExecMode::bands`], or with `upstream` (a later stage's
    /// upstream schedule) the upstream's cuts lagged by this
    /// stage's window ([`lagged`]). Misses during execution (as opposed
    /// to session construction) are tallied into `built` — the figure
    /// the `tile_plans_built` telemetry counter reports. Each distinct
    /// mode gets its own cache entry; a mode never evicts another.
    fn tiles(
        &self,
        mode: ExecMode,
        upstream: Option<&TilePlan>,
        built: Option<&Cell<u64>>,
    ) -> Result<TilePlan, EngineError> {
        let mut slots = self.tile.borrow_mut();
        if let Some((_, tp)) = slots.iter().find(|(m, _)| *m == mode) {
            return Ok(tp.clone());
        }
        let tp = match upstream {
            Some(up) => lagged(self.plan.get(), up)?,
            None => mode.bands(self.plan.get())?,
        };
        if let Some(c) = built {
            c.set(c.get() + 1);
        }
        slots.push((mode, tp.clone()));
        Ok(tp)
    }

    /// Outputs of the stage's schedule under `mode`: its cached
    /// schedule's, which a seeded band range makes part of the domain,
    /// else its whole iteration domain's.
    fn outputs(&self, mode: ExecMode) -> Result<u64, EngineError> {
        if let Some((_, tp)) = self.tile.borrow().iter().find(|(m, _)| *m == mode) {
            return Ok(tp.total_outputs());
        }
        self.plan
            .get()
            .iteration_domain()
            .count()
            .map_err(|e| EngineError::Plan(e.into()))
    }

    /// The stage's iteration index, built once.
    fn iteration_index(&self) -> Result<&DomainIndex, EngineError> {
        cached_index(&self.iter_index, || {
            self.plan.get().iteration_domain().index()
        })
    }

    /// The stage's input index, built once.
    fn input_index(&self) -> Result<&DomainIndex, EngineError> {
        cached_index(&self.input_index, || self.plan.get().input_domain().index())
    }
    /// The compiled form, when this stage has one (for window checks).
    fn compiled(&self) -> Option<&CompiledKernel> {
        match &self.kernel {
            Some(StageKernel::Compiled(k)) => Some(k),
            _ => None,
        }
    }

    /// The backend this stage actually executes under: closures always
    /// run per element; compiled kernels follow the session backend.
    fn effective_backend(&self, session_backend: KernelBackend) -> KernelBackend {
        match &self.kernel {
            Some(StageKernel::Compiled(_)) => session_backend,
            _ => KernelBackend::Closure,
        }
    }

    /// The stage's row executor, or a config error if no kernel was
    /// supplied. Under the `Compiled` backend a compiled stage runs a
    /// validated [`RowProgram`] — built on the first call and borrowed
    /// from the stage by every later one; under `Closure` it evaluates
    /// the scalar bytecode per element.
    fn row_kernel(&self, session_backend: KernelBackend) -> Result<RowKernel<'_>, EngineError> {
        match &self.kernel {
            None => Err(EngineError::Config {
                detail: format!("stage '{}' has no kernel; call Session::kernel", self.label),
            }),
            Some(StageKernel::Closure(c)) => Ok(RowKernel::Closure(*c)),
            Some(StageKernel::ClosureFn(f)) => Ok(RowKernel::Closure(f)),
            Some(StageKernel::Compiled(k)) => match session_backend {
                KernelBackend::Closure => Ok(RowKernel::Bytecode(k)),
                KernelBackend::Compiled => {
                    let prog = match self.program.get() {
                        Some(prog) => prog,
                        None => {
                            let prog = RowProgram::build(k)?;
                            self.program.get_or_init(|| prog)
                        }
                    };
                    Ok(RowKernel::Program(k, prog))
                }
            },
        }
    }
}

/// The resolved execution recipe of one pipeline stage: its own window
/// geometry (via the derived plan), the backend it will execute under,
/// and its row executor. A heterogeneous chain is a sequence of these —
/// each stage erodes the domain by *its* halo, sizes its inter-stage
/// reuse buffer from *its* reuse distances (the paper's Sec. 2.3 bound
/// applied stage-wise), and independently picks the compiled sweep
/// (when the stage carries a [`stencil_kernels::KernelExpr`]) or the
/// closure path.
///
/// Obtained from [`Session::stage_plans`]; every execution mode
/// (in-core, streaming, iterate) resolves stages through the same path,
/// so what `stage_plans` reports is exactly what a run executes.
pub struct StagePlan<'s> {
    /// The stage's label (kernel/plan name).
    pub label: &'s str,
    /// The stage's memory-system plan: domain already eroded by this
    /// stage's window, reuse buffers sized from this stage's own
    /// reuse distances.
    pub plan: &'s MemorySystemPlan,
    /// The backend this stage resolves to: per-stage override if set,
    /// else the session default — and always [`KernelBackend::Closure`]
    /// for stages without compiled bytecode.
    pub backend: KernelBackend,
    /// The resolved row executor.
    kernel: RowKernel<'s>,
}

impl StagePlan<'_> {
    /// Number of taps in this stage's window.
    #[must_use]
    pub fn window_taps(&self) -> u64 {
        self.plan.port_count() as u64
    }

    /// The window's outermost-dimension span in rows — the halo reach
    /// this stage erodes its input by, and the number of upstream rows
    /// that must be resident for one output row under streaming.
    #[must_use]
    pub fn window_rows(&self) -> u64 {
        self.plan
            .window_extents()
            .first()
            .copied()
            .and_then(|e| u64::try_from(e).ok())
            .unwrap_or(1)
    }
}

impl fmt::Debug for StagePlan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StagePlan")
            .field("label", &self.label)
            .field("backend", &self.backend)
            .field("window_taps", &self.window_taps())
            .field("window_rows", &self.window_rows())
            .finish_non_exhaustive()
    }
}

/// A composable execution pipeline over one or more kernel stages.
///
/// See the [crate docs](crate) for the builder shape. A session borrows
/// its stage-0 plan and kernel; chained stages own their derived plans.
pub struct Session<'a> {
    stages: Vec<Stage<'a>>,
    mode: ExecMode,
    threads: usize,
    backend: KernelBackend,
    label: Option<String>,
    /// `Some(T)` when the stages form a [`Session::iterate`] ring.
    iterate_steps: Option<usize>,
    /// Tile plans constructed during execution (cache misses past the
    /// hoisted construction-time prefill), across this session's runs.
    tiles_built: Cell<u64>,
    /// The machine's parallelism, asked of the OS once, by the first
    /// run under `threads(0)`.
    parallelism: OnceCell<usize>,
}

impl fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field(
                "stages",
                &self.stages.iter().map(|s| &s.label).collect::<Vec<_>>(),
            )
            .field("mode", &self.mode)
            .field("threads", &self.threads)
            .field("backend", &self.backend)
            .finish_non_exhaustive()
    }
}

impl<'a> Session<'a> {
    /// A single-stage session over `plan` with default mode
    /// ([`ExecMode::InCore`]), backend, and machine-chosen threads. A
    /// kernel must be supplied via [`Session::kernel`] before running.
    #[must_use]
    pub fn new(plan: &'a MemorySystemPlan) -> Self {
        Self {
            stages: vec![Stage::new(
                PlanRef::Borrowed(plan),
                None,
                plan.name().to_string(),
            )],
            mode: ExecMode::default(),
            threads: 0,
            backend: KernelBackend::default(),
            label: None,
            iterate_steps: None,
            tiles_built: Cell::new(0),
            parallelism: OnceCell::new(),
        }
    }

    /// A single-stage session over `plan` whose datapath comes from
    /// `stage` metadata: when the stage carries a
    /// [`stencil_kernels::KernelExpr`] it is compiled to owned bytecode
    /// and validated against the stage closure (and the stage's native
    /// row body, if any, against the bytecode), otherwise the closure
    /// runs directly. This is the fallible entry point the serving
    /// front-end uses — a benchmark whose expression fails checked
    /// compilation surfaces as a typed error instead of killing the
    /// worker.
    ///
    /// # Errors
    ///
    /// * [`EngineError::KernelCompile`] if the stage's expression fails
    ///   checked compilation.
    /// * [`EngineError::KernelMismatch`] if the compiled bytecode
    ///   diverges from the stage closure on the validation sweep, or
    ///   the stage's native row body from the bytecode.
    pub fn build(plan: &'a MemorySystemPlan, stage: &KernelStage) -> Result<Self, EngineError> {
        let kernel = StageKernel::from_stage(stage)?;
        let mut session = Self::new(plan);
        session.stages[0].kernel = Some(kernel);
        Ok(session)
    }

    /// Sets the first stage's datapath, dropping every stage's cached
    /// register program (the steps of an iterate ring run stage 0's).
    #[must_use]
    pub fn kernel(mut self, kernel: SessionKernel<'a>) -> Self {
        self.stages[0].kernel = Some(match kernel {
            SessionKernel::Closure(c) => StageKernel::Closure(c),
            SessionKernel::Compiled(k) => StageKernel::Compiled(Cow::Borrowed(k)),
        });
        for stage in &mut self.stages {
            stage.program.take();
        }
        self
    }

    /// Selects how compiled kernels execute (closure stages ignore it).
    #[must_use]
    pub fn backend(mut self, backend: KernelBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the execution mode.
    #[must_use]
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the worker thread count (`0` = machine parallelism).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the kernel backend of the *most recently added* stage,
    /// making the chain heterogeneous: each stage may sweep compiled
    /// bytecode while its neighbours run closures, independent of the
    /// session-wide default set by [`Session::backend`]. Stages without
    /// compiled bytecode still execute per element regardless.
    #[must_use]
    pub fn stage_backend(mut self, backend: KernelBackend) -> Self {
        self.stages
            .last_mut()
            .expect("sessions always have at least one stage")
            .backend = Some(backend);
        self
    }

    /// Labels the session's telemetry output.
    #[must_use]
    pub fn telemetry(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Appends a chained stage: `stage`'s kernel consumes the previous
    /// stage's output grid. The stage carries **its own window** — it
    /// need not match the upstream one — and the chained plan is
    /// derived by eroding the upstream iteration domain by *this*
    /// stage's window, with the inter-stage reuse buffer sized from
    /// this stage's own reuse distances
    /// ([`MemorySystemPlan::chain_next`]); the stages still line up row
    /// for row (checked with [`MemorySystemPlan::chains_from`]).
    ///
    /// When `stage` carries a [`stencil_kernels::KernelExpr`], the
    /// chained stage compiles it to bytecode (validated against the
    /// stage's closure); otherwise it evaluates the closure directly.
    /// Either way the stage's backend can be overridden individually
    /// with [`Session::stage_backend`] right after this call.
    ///
    /// # Errors
    ///
    /// * [`EngineError::Config`] if `stage`'s window dimensionality
    ///   does not match the upstream domain, or its halo erodes the
    ///   upstream domain to zero rows (window consumes the grid), or
    ///   the derived plan does not chain exactly from the upstream
    ///   stage.
    /// * [`EngineError::Plan`] if the derived plan cannot be generated.
    /// * [`EngineError::KernelCompile`] / [`EngineError::KernelMismatch`]
    ///   if the stage's expression fails to compile or validate.
    pub fn then(mut self, stage: &KernelStage) -> Result<Self, EngineError> {
        let upstream = self.last_stage()?.plan.get();
        if stage.dims() != upstream.iteration_domain().dims() {
            return Err(EngineError::Config {
                detail: format!(
                    "stage '{}' cannot chain from '{}': its window is {}-dimensional but the \
                     upstream domain has {} dimensions",
                    stage.name(),
                    upstream.name(),
                    stage.dims(),
                    upstream.iteration_domain().dims()
                ),
            });
        }
        let eroded = upstream.iteration_domain().eroded(stage.window());
        if eroded.is_empty().map_err(|e| EngineError::Plan(e.into()))? {
            return Err(EngineError::Config {
                detail: format!(
                    "stage '{}' cannot chain from '{}': its {}-row window erodes the upstream \
                     iteration domain to zero rows",
                    stage.name(),
                    upstream.name(),
                    stage.window_extents().first().copied().unwrap_or(1)
                ),
            });
        }
        let next = upstream.chain_next(stage.name(), stage.window())?;
        if !next.chains_from(upstream)? {
            return Err(EngineError::Config {
                detail: format!(
                    "stage '{}' does not chain from '{}': its input domain is not the upstream \
                     iteration domain",
                    stage.name(),
                    upstream.name()
                ),
            });
        }
        let kernel = StageKernel::from_stage(stage)?;
        self.stages.push(Stage::new(
            PlanRef::Owned(Box::new(next)),
            Some(kernel),
            stage.name().to_string(),
        ));
        self.prepare_tiles()?;
        Ok(self)
    }

    /// Expands the single-stage session into a *self-chained ring* of
    /// `steps` time steps: the stage's own window erodes its own
    /// iteration domain per step ([`MemorySystemPlan::chain_next`]
    /// applied to itself), and the same kernel executes every step.
    /// Each step's plan and band schedule are built here, once — a run
    /// then reuses them, whether in core or streaming. In every mode
    /// the steps run as T coupled halo windows, keeping peak residency
    /// within a T×halo budget (in core, plus the resident input) with
    /// no intermediate grid.
    ///
    /// The run's report carries an [`IterateReport`] (`converged` stays
    /// `false`: a fixed-count run never tests convergence — see
    /// [`Session::iterate_until`] for the epsilon-based early exit).
    ///
    /// # Errors
    ///
    /// * [`EngineError::Config`] if `steps` is zero, the session has
    ///   more than one stage, or no kernel was supplied yet.
    /// * [`EngineError::Plan`] if the domain erodes away before step
    ///   `steps` (grid smaller than the window's reach × T).
    pub fn iterate(mut self, steps: usize) -> Result<Self, EngineError> {
        if steps == 0 {
            return Err(EngineError::Config {
                detail: "iterate requires at least one time step".into(),
            });
        }
        if self.stages.len() != 1 {
            return Err(EngineError::Config {
                detail: format!(
                    "iterate requires a single-stage session; this one has {} stages",
                    self.stages.len()
                ),
            });
        }
        if self.stages[0].kernel.is_none() {
            return Err(EngineError::Config {
                detail: "iterate requires a kernel; call Session::kernel first".into(),
            });
        }
        let name = self.stages[0].plan.get().name().to_string();
        let window = plan_offsets(self.stages[0].plan.get());
        for k in 1..steps {
            let upstream = self.last_stage()?.plan.get();
            let label = format!("{name}@t{}", k + 1);
            let next = upstream.chain_next(&label, &window)?;
            if !next.chains_from(upstream)? {
                return Err(EngineError::Config {
                    detail: format!(
                        "step {} does not chain from step {k}: its input domain is not the \
                         upstream iteration domain",
                        k + 1
                    ),
                });
            }
            // A step carries no kernel of its own: it resolves stage
            // 0's, and stage 0's one cached program ([`Session::resolve`]).
            self.stages
                .push(Stage::new(PlanRef::Owned(Box::new(next)), None, label));
        }
        self.iterate_steps = Some(steps);
        self.prepare_tiles()?;
        Ok(self)
    }

    /// Seeds the first stage's band-schedule cache with a pre-built
    /// [`TilePlan`] for the session's *current* mode. The serving
    /// front-end's shared plan cache hands shard sessions their
    /// schedule through this hook, so steady-state shard runs report
    /// `tile_plans_built == 0`. The seeded plan may be a contiguous band
    /// range ([`TilePlan::restricted`]) of a schedule over the stage's
    /// whole iteration domain: the mode's own ([`ExecMode::bands`]), or
    /// one cut further at shard seams. A run then computes, holds and
    /// reports only those bands, their outputs in rank order. A band
    /// range is for single-stage sessions, since a later stage expects
    /// its whole input. An already-warm mode is left untouched.
    pub(crate) fn seed_tiles(&self, tile_plan: TilePlan) {
        let mut slots = self.stages[0].tile.borrow_mut();
        if !slots.iter().any(|(m, _)| *m == self.mode) {
            slots.push((self.mode, tile_plan));
        }
    }

    /// The worker count a run may use: the configured count, or under
    /// `threads(0)` the machine's parallelism, asked of the OS once per
    /// session.
    fn workers(&self) -> usize {
        match self.threads {
            0 => *self.parallelism.get_or_init(machine_parallelism),
            n => n,
        }
    }

    /// The session's final stage, as a typed error rather than a panic
    /// on the (unreachable by construction) empty-pipeline case — the
    /// submit path must never kill a serving worker.
    fn last_stage(&self) -> Result<&Stage<'a>, EngineError> {
        self.stages.last().ok_or_else(|| EngineError::Config {
            detail: "session has no stages".into(),
        })
    }

    /// Prebuilds every stage's band schedule for the current mode, so
    /// runs start with warm caches (misses during a run are what the
    /// `tile_plans_built` telemetry counter reports).
    fn prepare_tiles(&self) -> Result<(), EngineError> {
        self.schedules(self.mode, None).map(drop)
    }

    /// Every stage's band schedule under `mode`, in pipeline order, from
    /// the stages' caches (misses tallied into `built`). Each stage past
    /// the first lags its upstream's schedule, so the stages run as one
    /// band wavefront.
    fn schedules(
        &self,
        mode: ExecMode,
        built: Option<&Cell<u64>>,
    ) -> Result<Vec<TilePlan>, EngineError> {
        let mut out: Vec<TilePlan> = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let tp = stage.tiles(mode, out.last(), built)?;
            out.push(tp);
        }
        Ok(out)
    }

    /// Number of kernel stages in the pipeline.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The plan of stage `i`, if it exists (stage 0 is the plan passed
    /// to [`Session::new`]; later stages are derived by erosion).
    #[must_use]
    pub fn stage_plan(&self, i: usize) -> Option<&MemorySystemPlan> {
        self.stages.get(i).map(|s| s.plan.get())
    }

    /// Resolves stage `i` into its execution recipe: window check for
    /// compiled kernels, per-stage backend (override or session
    /// default), and the row executor. Every step of an iterate ring
    /// runs stage 0's kernel and its one cached program. Every execution
    /// path — in-core, streaming, and the iterate ring — goes through
    /// here, so the per-stage choice is made in exactly one place.
    fn resolve(&self, i: usize) -> Result<StagePlan<'_>, EngineError> {
        let stage = &self.stages[i];
        let source = match self.iterate_steps {
            Some(steps) if i < steps => &self.stages[0],
            _ => stage,
        };
        let plan = stage.plan.get();
        if let Some(k) = source.compiled() {
            check_kernel_window(plan, k)?;
        }
        let requested = stage.backend.unwrap_or(self.backend);
        let kernel = source.row_kernel(requested)?;
        Ok(StagePlan {
            label: &stage.label,
            plan,
            backend: source.effective_backend(requested),
            kernel,
        })
    }

    /// Resolves every stage's [`StagePlan`] — the per-stage window,
    /// backend, and row executor a run would execute — without running
    /// anything. Pipeline order.
    ///
    /// # Errors
    ///
    /// [`EngineError::Config`] for stages missing a kernel, the window
    /// checker's error when a compiled kernel does not fit its stage
    /// plan, and the register program's build error
    /// ([`EngineError::KernelCompile`] or [`EngineError::KernelMismatch`]).
    pub fn stage_plans(&self) -> Result<Vec<StagePlan<'_>>, EngineError> {
        (0..self.stages.len()).map(|i| self.resolve(i)).collect()
    }

    /// The planned chained residency bound under streaming: the sum
    /// over stages of each stage's one-band halo window (Sec. 2.3),
    /// for the band schedules a streaming run at `chunk_rows` executes
    /// (stage 0 in bands of `chunk_rows`, every later stage lagging its
    /// upstream). The schedules are cached like a run's.
    ///
    /// # Errors
    ///
    /// [`EngineError::Plan`] if a stage's band schedule cannot be
    /// derived.
    pub fn planned_residency_bound(&self, chunk_rows: Option<u64>) -> Result<u64, EngineError> {
        let mut total = 0u64;
        let schedules = self.schedules(ExecMode::Streaming { chunk_rows }, None)?;
        for (stage, tile_plan) in self.stages.iter().zip(&schedules) {
            total += stage.plan.get().planned_residency_bound(tile_plan)?;
        }
        Ok(total)
    }

    /// Executes the pipeline over an in-memory input grid and returns
    /// the final stage's outputs. The grid is resident in every mode:
    /// the stages run as one band wavefront over it in place
    /// (`Session::pump`), nothing copies it, and the last stage's bands
    /// append to the result, so results are identical across modes.
    /// Every mode reads the input through the grid's own index.
    ///
    /// # Errors
    ///
    /// [`EngineError::Config`] for sessions missing a kernel, plus the
    /// executor's own errors: plan/index failures, input size
    /// mismatches, [`EngineError::MissingInput`] for a tap the grid's
    /// index does not hold, kernel window mismatches, and worker
    /// panics.
    pub fn run(&self, input: &InputGrid<'_>) -> Result<SessionRun, EngineError> {
        self.check_input(input)?;
        // Sized up front, so the outputs never grow by reallocation.
        let outputs = self.last_stage()?.outputs(self.mode)?;
        let mut values = result_buffer(usize::try_from(outputs).unwrap_or(0));
        let report = self.pump(None, Some(input), &mut Outlet::Append(&mut values))?;
        Ok(SessionRun {
            outputs: values,
            report,
        })
    }

    /// Rejects an input grid whose point count is not the first stage's
    /// input domain's. Every mode then resolves ranks through the
    /// grid's own index.
    fn check_input(&self, input: &InputGrid<'_>) -> Result<(), EngineError> {
        let declared = self.stages[0]
            .plan
            .get()
            .input_domain()
            .count()
            .map_err(|e| EngineError::Plan(e.into()))?;
        if input.index().len() != declared {
            return Err(EngineError::InputSizeMismatch {
                expected: declared,
                got: input.index().len(),
            });
        }
        Ok(())
    }

    /// Executes the pipeline between a row source and a row sink, in
    /// every mode as one band wavefront (`Session::pump`): a mapped
    /// source is read in place, any other source row by row into the
    /// first stage's halo window, and only the chained halo windows stay
    /// resident.
    ///
    /// # Errors
    ///
    /// As [`Session::run`], plus [`EngineError::Source`] /
    /// [`EngineError::Sink`] when the endpoints fail.
    pub fn run_streaming(
        &self,
        source: &mut dyn RowSource,
        sink: &mut dyn RowSink,
    ) -> Result<SessionReport, EngineError> {
        self.pump(Some(source), None, &mut Outlet::Sink(sink))
    }

    /// The [`IterateReport`] of a fixed-count [`Session::iterate`] run,
    /// or `None` for plain/chained sessions. Fixed-count runs never
    /// test convergence, so `converged` is `false` and the epsilon
    /// fields are zero.
    fn fixed_iterate_report(&self) -> Option<IterateReport> {
        let steps = self.iterate_steps? as u64;
        Some(IterateReport {
            steps,
            max_steps: steps,
            converged: false,
            epsilon: 0.0,
            final_delta: 0.0,
        })
    }

    /// The one pump behind every run: one [`StreamStage`] per kernel,
    /// run as one band wavefront ([`run_chain`]) over the mode's lagged
    /// schedules, each band landing in place in the next stage's halo
    /// window and the last stage's in `outlet`. Stage 0 reads `input`
    /// resident, ranked through the grid's own index, when given; a
    /// mapped `source` resident too; any other `source` through its
    /// plan's input domain. Every later stage ranks through its
    /// upstream's iteration index. Only a run from `source` reports its
    /// grid I/O.
    fn pump(
        &self,
        source: Option<&mut dyn RowSource>,
        input: Option<&InputGrid<'_>>,
        outlet: &mut Outlet<'_>,
    ) -> Result<SessionReport, EngineError> {
        // The run is timed from its resolved stages: a first run's
        // program construction is not stage work.
        let sps = self.stage_plans()?;
        let started = Instant::now();
        let built_before = self.tiles_built.get();
        // A resident grid or a mapped source puts the whole input
        // logically resident in the first stage: bands execute as slices
        // of it and no value is ever copied into the halo window. The
        // mapping and the stage plans outlive the stages that borrow
        // them.
        let mapped = source.as_ref().and_then(|s| s.mapped());
        let resident = match input {
            Some(grid) => Some(grid.values()),
            None => mapped.as_ref().map(MappedGrid::values),
        };
        let chunk_rows = match self.mode {
            ExecMode::Streaming { chunk_rows } => chunk_rows,
            ExecMode::InCore => None,
        };
        let workers = self.workers();
        let schedules = self.schedules(self.mode, Some(&self.tiles_built))?;
        let mut machines: Vec<StreamStage<'_>> = Vec::with_capacity(sps.len());
        for (i, ((stage, sp), tile_plan)) in self.stages.iter().zip(&sps).zip(schedules).enumerate()
        {
            let in_idx = match (i.checked_sub(1), input) {
                (Some(up), _) => self.stages[up].iteration_index()?,
                (None, Some(grid)) => grid.index(),
                (None, None) => stage.input_index()?,
            };
            machines.push(StreamStage::new(
                sp.plan,
                in_idx,
                stage.iteration_index()?,
                tile_plan,
                &sp.kernel,
                sp.backend,
                chunk_rows,
                workers,
            )?);
        }
        if let Some(values) = resident {
            machines[0].attach_resident(values)?;
        }

        let output_values = run_chain(&mut machines, source, outlet)?;
        if let Outlet::Sink(sink) = outlet {
            sink.finish()?;
        }

        let elapsed = started.elapsed();
        let in_core = self.mode == ExecMode::InCore;
        let mut peak = 0u64;
        let mut bound = 0u64;
        let mut stage_reports = Vec::with_capacity(machines.len());
        for (i, (sp, m)) in sps.iter().zip(&machines).enumerate() {
            // In core, a resident input is held whole; every other
            // stage holds one band's halo window.
            let held = (in_core && i == 0 && resident.is_some()).then(|| m.resident_span());
            let (report, stage_peak) =
                stage_report(sp, sp.label.to_string(), m, in_core, held, elapsed);
            peak += stage_peak;
            bound += report.resident_bound;
            stage_reports.push(report);
        }
        let (values_mapped, values_copied) = if mapped.is_some() {
            (machines[0].values_in(), 0)
        } else {
            (0, machines[0].values_in())
        };
        let grid_io = input.is_none().then(|| GridIoReport {
            bytes_mapped: mapped.as_ref().map_or(0, MappedGrid::bytes_mapped),
            values_mapped,
            values_copied,
            output_values,
            sink_finalized: true,
        });
        Ok(SessionReport {
            label: self.label.clone(),
            mode: self.mode,
            threads: max_threads(&stage_reports),
            stages: stage_reports,
            peak_resident: peak,
            resident_bound: bound,
            elapsed,
            tile_plans_built: self.tiles_built.get() - built_before,
            iterate: self.fixed_iterate_report(),
            grid_io,
        })
    }

    /// Time-steps the single-stage session until the per-step update
    /// falls to `epsilon` or `max_steps` is reached, whichever comes
    /// first. Steps run one at a time in core, each a one-stage band
    /// wavefront (`run_chain`) over the previous step's resident
    /// outputs under the plan's off-chip stream schedule, each step's
    /// plan derived from the previous by self-chaining
    /// ([`Session::iterate`]'s ring, expanded lazily so unneeded steps
    /// are never planned); after each step a row-aligned max-abs-delta
    /// reduction compares the step's output against its input over the
    /// step's iteration domain. Because closure and compiled backends
    /// produce bit-identical outputs by construction, the measured
    /// deltas — and therefore the step count — are identical across
    /// backends.
    ///
    /// Steps execute strictly one at a time (the early exit requires
    /// each step to finish before the next is planned), so the reported
    /// peak residency is the *maximum* per-step input grid, not a sum,
    /// and the report's mode is [`ExecMode::InCore`] regardless of the
    /// configured mode.
    ///
    /// # Errors
    ///
    /// * [`EngineError::Config`] if the session is not single-stage, or
    ///   `epsilon` is negative/non-finite, or `max_steps` is zero.
    /// * [`EngineError::Plan`] if the domain erodes away before either
    ///   exit condition fires.
    /// * Everything [`Session::run`] reports.
    pub fn iterate_until(
        &self,
        input: &InputGrid<'_>,
        epsilon: f64,
        max_steps: usize,
    ) -> Result<SessionRun, EngineError> {
        if self.stages.len() != 1 {
            return Err(EngineError::Config {
                detail: format!(
                    "iterate_until requires a single-stage session; this one has {} stages",
                    self.stages.len()
                ),
            });
        }
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(EngineError::Config {
                detail: format!("epsilon must be finite and non-negative, got {epsilon}"),
            });
        }
        if max_steps == 0 {
            return Err(EngineError::Config {
                detail: "max_steps must be at least 1".into(),
            });
        }
        let started = Instant::now();
        let built_before = self.tiles_built.get();
        let stage = &self.stages[0];
        let base_plan = stage.plan.get();
        let sp = self.resolve(0)?;
        self.check_input(input)?;
        let window = plan_offsets(base_plan);
        let name = base_plan.name().to_string();
        let mode = ExecMode::InCore;

        let mut derived: Option<MemorySystemPlan> = None;
        let mut cur_vals: Vec<f64> = Vec::new();
        let mut stage_reports = Vec::new();
        let mut converged = false;
        let mut final_delta = 0.0f64;
        let mut steps = 0u64;

        for k in 1..=max_steps {
            let step_started = Instant::now();
            let plan = derived.as_ref().unwrap_or(base_plan);
            let (tile_plan, label) = if k == 1 {
                (
                    stage.tiles(mode, None, Some(&self.tiles_built))?,
                    name.clone(),
                )
            } else {
                // Derived step plans are fresh objects; their band
                // schedules are inherently built per executed step.
                self.tiles_built.set(self.tiles_built.get() + 1);
                (mode.bands(plan)?, format!("{name}@t{k}"))
            };
            let in_idx;
            let (prev_idx, prev_vals): (&DomainIndex, &[f64]) = if k == 1 {
                (input.index(), input.values())
            } else {
                in_idx = plan_index(plan)?;
                (&in_idx, &cur_vals)
            };
            let out_idx = plan
                .iteration_domain()
                .index()
                .map_err(|e| EngineError::Plan(e.into()))?;
            let total = usize::try_from(tile_plan.total_outputs()).unwrap_or(0);
            let mut outputs = result_buffer(total);
            let mut m = StreamStage::new(
                plan,
                prev_idx,
                &out_idx,
                tile_plan,
                &sp.kernel,
                sp.backend,
                None,
                self.workers(),
            )?;
            m.attach_resident(prev_vals)?;
            run_chain(
                std::slice::from_mut(&mut m),
                None,
                &mut Outlet::Append(&mut outputs),
            )?;
            let held = Some(m.resident_span());
            let (report, _) = stage_report(&sp, label, &m, true, held, step_started.elapsed());
            let delta = max_abs_delta(&out_idx, &outputs, prev_idx, prev_vals)?;
            steps += 1;
            stage_reports.push(report);
            cur_vals = outputs;
            final_delta = delta;
            if delta <= epsilon {
                converged = true;
                break;
            }
            if k == max_steps {
                break;
            }
            derived = Some(plan.chain_next(format!("{name}@t{}", k + 1), &window)?);
        }

        let peak = stage_reports
            .iter()
            .map(|r| r.resident_bound)
            .max()
            .unwrap_or(0);
        Ok(SessionRun {
            outputs: cur_vals,
            report: SessionReport {
                label: self.label.clone(),
                mode: ExecMode::InCore,
                threads: max_threads(&stage_reports),
                stages: stage_reports,
                peak_resident: peak,
                resident_bound: peak,
                elapsed: started.elapsed(),
                tile_plans_built: self.tiles_built.get() - built_before,
                iterate: Some(IterateReport {
                    steps,
                    max_steps: max_steps as u64,
                    converged,
                    epsilon,
                    final_delta,
                }),
                grid_io: None,
            },
        })
    }
}

/// A stage's report from its machine's counters, and the values it held
/// at its peak: the `engine` block in core, the `stream` block
/// streaming. `held` is the input an in-core stage holds whole because
/// it is resident; every other stage holds one band's halo window.
fn stage_report(
    sp: &StagePlan<'_>,
    label: String,
    m: &StreamStage<'_>,
    in_core: bool,
    held: Option<u64>,
    elapsed: Duration,
) -> (StageReport, u64) {
    let report = StageReport {
        label,
        backend: sp.backend,
        window_taps: sp.window_taps(),
        window_rows: sp.window_rows(),
        resident_bound: held.unwrap_or_else(|| m.runtime_bound()),
        engine: in_core.then(|| m.engine_report(elapsed)),
        stream: (!in_core).then(|| m.report(elapsed)),
    };
    (report, held.unwrap_or_else(|| m.peak_resident()))
}

/// A later stage's band schedule: `upstream`'s cuts shifted down by
/// the stage window's largest outermost offset, clipped to the stage's
/// domain. Upstream band `b` then produces exactly the input rows this
/// stage's band `b` still lacks, and the last cut lands on the stage's
/// domain end, which erosion moved by the same offset.
fn lagged(plan: &MemorySystemPlan, upstream: &TilePlan) -> Result<TilePlan, EngineError> {
    let lag = plan
        .filters()
        .iter()
        .map(|f| f.offset[0])
        .max()
        .unwrap_or(0);
    let cuts: Vec<i64> = upstream.cuts().iter().map(|c| c - lag).collect();
    Ok(plan.tile_plan_from_cuts(&cuts)?)
}

/// The index in `cell`, built by `build` on first use.
fn cached_index(
    cell: &OnceCell<DomainIndex>,
    build: impl FnOnce() -> Result<DomainIndex, stencil_polyhedral::PolyError>,
) -> Result<&DomainIndex, EngineError> {
    if let Some(idx) = cell.get() {
        return Ok(idx);
    }
    let idx = build().map_err(|e| EngineError::Plan(e.into()))?;
    Ok(cell.get_or_init(|| idx))
}

/// The index of `plan`'s input domain — the rank order a stage reads.
fn plan_index(plan: &MemorySystemPlan) -> Result<DomainIndex, EngineError> {
    plan.input_domain()
        .index()
        .map_err(|e| EngineError::Plan(e.into()))
}

/// Worker threads a run used: the most any stage used, at least one.
fn max_threads(stages: &[StageReport]) -> usize {
    stages
        .iter()
        .filter_map(|s| {
            s.engine
                .as_ref()
                .map(|r| r.threads)
                .or(s.stream.as_ref().map(|r| r.threads))
        })
        .fold(1, usize::max)
}

/// Row-aligned max-abs-delta reduction between a time step's outputs
/// (over `out_idx`, the step's iteration domain) and the values the
/// step consumed (over `in_idx`, a superset domain): the convergence
/// figure [`Session::iterate_until`] tests against epsilon after every
/// step. Both indices are lexicographically row-sorted, so the inputs
/// are walked with a single forward cursor — one fused pass, no point
/// lookups.
fn max_abs_delta(
    out_idx: &DomainIndex,
    outs: &[f64],
    in_idx: &DomainIndex,
    ins: &[f64],
) -> Result<f64, EngineError> {
    let in_rows = in_idx.rows();
    let mut j = 0usize;
    let mut delta = 0.0f64;
    for row in out_idx.rows() {
        while j < in_rows.len() && lex_cmp(&in_rows[j].prefix, &row.prefix) == Ordering::Less {
            j += 1;
        }
        let irow = in_rows
            .get(j)
            .filter(|r| r.prefix == row.prefix && r.lo <= row.lo && row.hi <= r.hi)
            .ok_or_else(|| EngineError::InconsistentIndex {
                detail: format!("step output row at {} has no aligned input row", row.prefix),
            })?;
        let olen = usize::try_from(row.len())
            .map_err(|_| EngineError::DomainTooLarge { points: row.len() })?;
        let ostart = usize::try_from(row.base)
            .map_err(|_| EngineError::DomainTooLarge { points: row.base })?;
        let skip = u64::try_from(row.lo - irow.lo).expect("checked lo <= row.lo");
        let istart =
            usize::try_from(irow.base + skip).map_err(|_| EngineError::DomainTooLarge {
                points: irow.base + skip,
            })?;
        let (o, i) = match (
            outs.get(ostart..ostart + olen),
            ins.get(istart..istart + olen),
        ) {
            (Some(o), Some(i)) => (o, i),
            _ => {
                return Err(EngineError::InconsistentIndex {
                    detail: format!("step delta row at {} exceeds a value buffer", row.prefix),
                })
            }
        };
        for (a, b) in o.iter().zip(i) {
            delta = delta.max((a - b).abs());
        }
    }
    Ok(delta)
}

/// The result of [`Session::run`].
#[derive(Debug, Clone)]
pub struct SessionRun {
    /// Final-stage output values in lexicographic iteration order.
    pub outputs: Vec<f64>,
    /// Per-stage and pipeline-level statistics.
    pub report: SessionReport,
}

/// Statistics of one pipeline stage within a [`SessionReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// The stage's kernel/plan name.
    pub label: String,
    /// The backend this stage resolved to — per-stage, so a
    /// heterogeneous chain reports e.g. compiled, closure, compiled.
    pub backend: KernelBackend,
    /// Number of taps in this stage's window.
    pub window_taps: u64,
    /// The window's outermost-dimension span in rows (this stage's
    /// halo reach).
    pub window_rows: u64,
    /// This stage's own planned residency ceiling: its halo-window
    /// bound, or in core for a first stage whose input is resident, the
    /// input its bands read (the whole grid for a whole schedule).
    pub resident_bound: u64,
    /// In-core statistics, when the stage ran under
    /// [`ExecMode::InCore`].
    pub engine: Option<RunReport>,
    /// Streaming statistics, when the stage ran as a halo window.
    pub stream: Option<StreamReport>,
}

/// Statistics of one [`Session`] execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The session's telemetry label, if one was set.
    pub label: Option<String>,
    /// The mode the session executed under.
    pub mode: ExecMode,
    /// Worker threads actually used (max across stages).
    pub threads: usize,
    /// Per-stage statistics, pipeline order.
    pub stages: Vec<StageReport>,
    /// Peak resident input values, summed across stages: the per-stage
    /// halo-window high-water marks (the windows coexist), and in core
    /// a resident first stage's whole input.
    pub peak_resident: u64,
    /// The residency bound the run was expected to honor, summed the
    /// same way.
    pub resident_bound: u64,
    /// End-to-end wall-clock time across all stages.
    pub elapsed: Duration,
    /// Band/chunk schedules built *during this run*. After
    /// [`Session::then`] or [`Session::iterate`] hoisted the schedules
    /// at construction, a run whose mode is unchanged reports zero.
    pub tile_plans_built: u64,
    /// Time-stepping statistics, present only for [`Session::iterate`]
    /// and [`Session::iterate_until`] runs.
    pub iterate: Option<IterateReport>,
    /// Grid I/O accounting (bytes mapped vs values copied), present for
    /// runs driven through [`Session::run_streaming`]'s endpoints.
    pub grid_io: Option<crate::report::GridIoReport>,
}

/// Time-stepping statistics of a [`Session::iterate`] or
/// [`Session::iterate_until`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct IterateReport {
    /// Time steps actually executed.
    pub steps: u64,
    /// The configured step ceiling (equals `steps` for fixed-count
    /// [`Session::iterate`] runs).
    pub max_steps: u64,
    /// Whether the max-abs-delta reduction fell to `epsilon` before
    /// `max_steps`. Always `false` for fixed-count runs, which do not
    /// measure deltas.
    pub converged: bool,
    /// The convergence threshold (zero for fixed-count runs).
    pub epsilon: f64,
    /// The last measured per-step max-abs-delta (zero for fixed-count
    /// runs).
    pub final_delta: f64,
}

impl SessionReport {
    /// Final-stage outputs produced.
    #[must_use]
    pub fn outputs(&self) -> u64 {
        self.stages.last().map_or(0, |s| {
            s.engine
                .as_ref()
                .map(|r| r.outputs)
                .or_else(|| s.stream.as_ref().map(|r| r.outputs))
                .unwrap_or(0)
        })
    }

    /// Final-stage outputs per wall-clock second; `0.0` below timer
    /// resolution, as [`RunReport::throughput`].
    #[must_use]
    pub fn throughput(&self) -> f64 {
        finite_throughput(self.outputs(), self.elapsed)
    }

    /// True when the measured peak residency honored the chained bound.
    #[must_use]
    pub fn within_residency_bound(&self) -> bool {
        self.peak_resident <= self.resident_bound
    }

    /// The session's counters in the `stencil-telemetry` wire schema,
    /// ready for JSON serialization and [`stencil_telemetry::validate`]
    /// report-level validation (the `Residency` rule re-checks the
    /// chained Sec. 2.3 bound from the serialized figures alone).
    #[must_use]
    pub fn metrics(&self) -> stencil_telemetry::SessionMetrics {
        stencil_telemetry::SessionMetrics {
            mode: self.mode.as_str().to_string(),
            threads: self.threads,
            outputs: self.outputs(),
            peak_resident: self.peak_resident,
            resident_bound: self.resident_bound,
            elapsed_ns: crate::report::duration_ns(self.elapsed),
            throughput: self.throughput(),
            stages: self
                .stages
                .iter()
                .map(|s| stencil_telemetry::StageMetrics {
                    label: s.label.clone(),
                    backend: s.backend.as_str().to_string(),
                    window_taps: s.window_taps,
                    window_rows: s.window_rows,
                    resident_bound: s.resident_bound,
                    engine: s.engine.as_ref().map(RunReport::metrics),
                    stream: s.stream.as_ref().map(StreamReport::metrics),
                })
                .collect(),
            tile_plans_built: self.tile_plans_built,
            iterate: self
                .iterate
                .as_ref()
                .map(|it| stencil_telemetry::IterateMetrics {
                    steps: it.steps,
                    max_steps: it.max_steps,
                    converged: it.converged,
                    epsilon: it.epsilon,
                    final_delta: it.final_delta,
                }),
            grid_io: self
                .grid_io
                .as_ref()
                .map(crate::report::GridIoReport::metrics),
        }
    }
}

impl fmt::Display for SessionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "session [{}]: {} stage(s), {} outputs x {} thread(s) in {:?} ({:.1} Melem/s)",
            self.mode.as_str(),
            self.stages.len(),
            self.outputs(),
            self.threads,
            self.elapsed,
            self.throughput() / 1e6
        )?;
        writeln!(
            f,
            "  resident: peak {} values (bound {})",
            self.peak_resident, self.resident_bound
        )?;
        if self.stages.len() > 1 {
            let desc: Vec<String> = self
                .stages
                .iter()
                .map(|s| {
                    format!(
                        "{}[{} {}-tap/{}-row <= {}]",
                        s.label, s.backend, s.window_taps, s.window_rows, s.resident_bound
                    )
                })
                .collect();
            writeln!(f, "  pipeline: {}", desc.join(" -> "))?;
        }
        if let Some(it) = &self.iterate {
            writeln!(
                f,
                "  iterate: {} / {} step(s), {}",
                it.steps,
                it.max_steps,
                if it.converged {
                    format!(
                        "converged (delta {:.3e} <= eps {:.3e})",
                        it.final_delta, it.epsilon
                    )
                } else {
                    "not converged".to_string()
                }
            )?;
        }
        for s in &self.stages {
            if let Some(r) = &s.engine {
                write!(f, "  stage '{}': {r}", s.label)?;
            }
            if let Some(r) = &s.stream {
                write!(f, "  stage '{}': {r}", s.label)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{FnSource, SliceSource, VecSink};
    use stencil_core::StencilSpec;
    use stencil_kernels::{KernelExpr, KernelStage};
    use stencil_polyhedral::{Point, Polyhedron};

    fn plan_5pt(rows: i64, cols: i64) -> MemorySystemPlan {
        let spec = StencilSpec::new(
            "denoise",
            Polyhedron::rect(&[(1, rows - 2), (1, cols - 2)]),
            window_5pt(),
        )
        .unwrap();
        MemorySystemPlan::generate(&spec).unwrap()
    }

    /// `plan` over `streams` off-chip streams: in core, that many bands.
    fn banded(plan: &MemorySystemPlan, streams: usize) -> MemorySystemPlan {
        plan.with_offchip_streams(streams).unwrap()
    }

    fn window_5pt() -> Vec<Point> {
        vec![
            Point::new(&[-1, 0]),
            Point::new(&[0, -1]),
            Point::new(&[0, 0]),
            Point::new(&[0, 1]),
            Point::new(&[1, 0]),
        ]
    }

    fn ramp(len: u64) -> Vec<f64> {
        (0..len).map(|r| (r % 97) as f64 * 0.5 - 11.0).collect()
    }

    fn compute(w: &[f64]) -> f64 {
        w[2] + 0.25 * (w[0] + w[1] + w[3] + w[4] - 4.0 * w[2])
    }

    fn expr_5pt() -> KernelExpr {
        let [t0, t1, t2, t3, t4] = KernelExpr::taps::<5>();
        t2.clone() + 0.25 * (t0 + t1 + t3 + t4 - 4.0 * t2)
    }

    fn compiled_5pt() -> CompiledKernel {
        CompiledKernel::compile_checked(&expr_5pt(), 5, &compute).unwrap()
    }

    #[test]
    fn streaming_run_sizes_its_outputs_up_front() {
        let plan = plan_5pt(40, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let run = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .mode(ExecMode::Streaming {
                chunk_rows: Some(4),
            })
            .run(&input)
            .unwrap();
        assert_eq!(run.outputs.len() as u64, 38 * 22);
        assert_eq!(run.outputs.capacity(), run.outputs.len());
    }

    #[test]
    fn session_matches_direct_loop() {
        let plan = plan_5pt(20, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();

        let run = Session::new(&banded(&plan, 3))
            .kernel(SessionKernel::Closure(&compute))
            .mode(ExecMode::InCore)
            .run(&input)
            .unwrap();

        // Direct nested-loop reference in user offset order:
        // (-1,0), (0,-1), (0,0), (0,1), (1,0).
        let iter_idx = plan.iteration_domain().index().unwrap();
        let mut c = iter_idx.cursor();
        let mut expect = Vec::new();
        while let Some(p) = c.point(&iter_idx) {
            let at = |dr: i64, dc: i64| {
                input
                    .value_at(&Point::new(&[p[0] + dr, p[1] + dc]))
                    .unwrap()
            };
            expect.push(compute(&[
                at(-1, 0),
                at(0, -1),
                at(0, 0),
                at(0, 1),
                at(1, 0),
            ]));
            c.advance(&iter_idx);
        }
        assert_eq!(run.outputs, expect);
        assert_eq!(run.report.outputs(), 18 * 22);
        let engine = run.report.stages[0].engine.as_ref().unwrap();
        assert_eq!(engine.tiles, 3);
        assert_eq!(engine.backend, KernelBackend::Closure);
    }

    #[test]
    fn tile_counts_and_threads_do_not_change_results() {
        let plan = plan_5pt(17, 13);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let sum = |w: &[f64]| w.iter().sum::<f64>() * 0.2;
        let reference = Session::new(&plan)
            .kernel(SessionKernel::Closure(&sum))
            .mode(ExecMode::InCore)
            .run(&input)
            .unwrap()
            .outputs;
        // In core over 2, 3 and 5 streams' bands, and in bands of one
        // and two rows.
        let schedules = [2usize, 3, 5]
            .map(|n| (banded(&plan, n), ExecMode::InCore))
            .into_iter()
            .chain([1u64, 2].map(|rows| {
                let mode = ExecMode::Streaming {
                    chunk_rows: Some(rows),
                };
                (plan.clone(), mode)
            }));
        for (plan, mode) in schedules {
            for threads in [1usize, 2, 4] {
                let run = Session::new(&plan)
                    .kernel(SessionKernel::Closure(&sum))
                    .mode(mode)
                    .threads(threads)
                    .run(&input)
                    .unwrap();
                let what = format!("{} streams, {mode:?}", plan.offchip_streams());
                assert_eq!(run.outputs, reference, "{what} threads={threads}");
            }
        }
    }

    #[test]
    fn compiled_backend_sweeps_and_matches_the_closure() {
        let plan = plan_5pt(20, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let kernel = compiled_5pt();

        let plan = banded(&plan, 3);
        let reference = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .mode(ExecMode::InCore)
            .run(&input)
            .unwrap();
        let compiled = Session::new(&plan)
            .kernel(SessionKernel::Compiled(&kernel))
            .mode(ExecMode::InCore)
            .run(&input)
            .unwrap();
        assert_eq!(compiled.outputs, reference.outputs);
        let report = compiled.report.stages[0].engine.as_ref().unwrap();
        assert_eq!(report.backend, KernelBackend::Compiled);
        // Every interior row swept; the closure run swept none.
        let sweep: u64 = report.per_tile.iter().map(|t| t.sweep_rows).sum();
        let fast: u64 = report.per_tile.iter().map(|t| t.fast_rows).sum();
        assert_eq!(sweep, 18);
        assert_eq!(fast, 0);
        let ref_report = reference.report.stages[0].engine.as_ref().unwrap();
        assert_eq!(
            ref_report
                .per_tile
                .iter()
                .map(|t| t.sweep_rows)
                .sum::<u64>(),
            0
        );

        // Forcing the Closure backend routes the same bytecode through
        // the per-element path — identical values, zero sweeps.
        let scalar = Session::new(&plan)
            .kernel(SessionKernel::Compiled(&kernel))
            .backend(KernelBackend::Closure)
            .mode(ExecMode::InCore)
            .run(&input)
            .unwrap();
        assert_eq!(scalar.outputs, reference.outputs);
        let report = scalar.report.stages[0].engine.as_ref().unwrap();
        assert_eq!(report.backend, KernelBackend::Closure);
        assert_eq!(report.per_tile.iter().map(|t| t.sweep_rows).sum::<u64>(), 0);
    }

    /// Native row bodies counted as they run (only
    /// `native_rows_run_only_on_f64_single_row_sweeps` reads it).
    static NATIVE_ROWS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    fn counting_row(vals: &[f64], bases: &[usize], out: &mut [f64]) {
        NATIVE_ROWS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        stencil_kernels::sweep_row::<5>(vals, bases, out, compute);
    }

    fn counting_append(vals: &[f64], bases: &[usize], len: usize, out: &mut Vec<f64>) {
        NATIVE_ROWS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        stencil_kernels::append_row::<5>(vals, bases, len, out, compute);
    }

    #[test]
    fn native_rows_run_only_on_f64_single_row_sweeps() {
        // Which stages resolve to the built-in DENOISE's native body:
        // compiled stages of a kernel that carries one.
        let bench = stencil_kernels::denoise();
        let plan = MemorySystemPlan::generate(&bench.spec_for(&[43, 37]).unwrap()).unwrap();
        let expr_only = KernelStage::new("expr-only", bench.window().to_vec(), bench.compute_fn())
            .with_expr(bench.expr().unwrap().clone());
        let runs_native = |s: &Session<'_>| -> Vec<bool> {
            s.stage_plans()
                .unwrap()
                .iter()
                .map(
                    |p| matches!(&p.kernel, RowKernel::Program(_, prog) if prog.native().is_some()),
                )
                .collect()
        };
        let built = || Session::build(&plan, &bench.stage()).unwrap().threads(1);
        assert_eq!(runs_native(&built()), [true]);
        assert_eq!(runs_native(&built().iterate(3).unwrap()), [true; 3]);
        assert_eq!(
            runs_native(&Session::build(&plan, &expr_only).unwrap()),
            [false]
        );
        assert_eq!(
            runs_native(&built().backend(KernelBackend::Closure)),
            [false]
        );

        // Whatever runs, the bits are the closure's.
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let closure = bench.compute_fn();
        let reference = Session::new(&plan)
            .kernel(SessionKernel::Closure(&closure))
            .run(&input)
            .unwrap()
            .outputs;
        for session in [built(), Session::build(&plan, &expr_only).unwrap()] {
            assert_eq!(session.run(&input).unwrap().outputs, reference);
        }

        // At run time: a counting native body runs once per swept row.
        let counted = KernelStage::new("counted", window_5pt(), compute)
            .with_expr(expr_5pt())
            .with_native_row(stencil_kernels::NativeRow::new(
                5,
                counting_row,
                counting_append,
            ));
        let plan = plan_5pt(43, 37);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let swept_rows = |run: &SessionRun| -> u64 {
            let report = run.report.stages[0].engine.as_ref().unwrap();
            report.per_tile.iter().map(|t| t.sweep_rows).sum()
        };
        let session = Session::build(&plan, &counted).unwrap().threads(1);
        let before = NATIVE_ROWS.load(std::sync::atomic::Ordering::Relaxed);
        let run = session.run(&input).unwrap();
        let ran = NATIVE_ROWS.load(std::sync::atomic::Ordering::Relaxed) - before;
        assert_eq!(swept_rows(&run), 41);
        assert_eq!(ran, 41);
    }

    #[test]
    fn unrolled_sweeps_are_bit_identical_across_modes_and_factors() {
        // The register program (an expression-only kernel) gives the
        // closure's bits in every mode, whatever the band count or
        // chunk height.
        let plan = plan_5pt(23, 29);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let kernel = compiled_5pt();
        let reference = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .run(&input)
            .unwrap();
        let three = banded(&plan, 3);
        for (plan, mode) in [
            (&plan, ExecMode::InCore),
            (&three, ExecMode::InCore),
            (&plan, ExecMode::Streaming { chunk_rows: None }),
            (
                &plan,
                ExecMode::Streaming {
                    chunk_rows: Some(3),
                },
            ),
        ] {
            let run = Session::new(plan)
                .kernel(SessionKernel::Compiled(&kernel))
                .mode(mode)
                .run(&input)
                .unwrap();
            assert_eq!(run.outputs, reference.outputs, "{mode:?}");
            let stage = &run.report.stages[0];
            let sweep_rows: u64 = match (&stage.engine, &stage.stream) {
                (Some(e), _) => e.per_tile.iter().map(|t| t.sweep_rows).sum(),
                (None, Some(s)) => s.sweep_rows,
                _ => panic!("stage carried no report"),
            };
            assert_eq!(sweep_rows, 21, "{mode:?}");
        }
    }

    #[test]
    fn compiled_kernel_window_is_validated_against_the_plan() {
        let plan = plan_5pt(12, 12);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let three_tap = CompiledKernel::compile(&KernelExpr::window_sum(3), 3).unwrap();
        for mode in [ExecMode::InCore, ExecMode::Streaming { chunk_rows: None }] {
            let e = Session::new(&plan)
                .kernel(SessionKernel::Compiled(&three_tap))
                .mode(mode)
                .run(&input)
                .unwrap_err();
            match e {
                EngineError::KernelCompile { detail } => {
                    assert!(detail.contains("3 taps"), "{detail}");
                    assert!(detail.contains("5 points"), "{detail}");
                }
                other => panic!("expected KernelCompile, got {other:?}"),
            }
        }
    }

    #[test]
    fn input_size_is_validated_in_every_mode() {
        let plan = plan_5pt(10, 10);
        let other = Polyhedron::grid(&[4, 4]).index().unwrap();
        let vals = ramp(other.len());
        let input = InputGrid::new(&other, &vals).unwrap();
        let id = |w: &[f64]| w[0];
        for mode in [ExecMode::InCore, ExecMode::Streaming { chunk_rows: None }] {
            let e = Session::new(&plan)
                .kernel(SessionKernel::Closure(&id))
                .mode(mode)
                .run(&input)
                .unwrap_err();
            assert!(matches!(e, EngineError::InputSizeMismatch { .. }));
        }
    }

    #[test]
    fn missing_kernel_is_a_config_error() {
        let plan = plan_5pt(10, 10);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let e = Session::new(&plan).run(&input).unwrap_err();
        match e {
            EngineError::Config { detail } => assert!(detail.contains("no kernel"), "{detail}"),
            other => panic!("expected Config, got {other:?}"),
        }
    }

    #[test]
    fn default_mode_follows_stream_count() {
        let plan = plan_5pt(12, 12).with_offchip_streams(2).unwrap();
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let center = |w: &[f64]| w[2];
        let run = Session::new(&plan)
            .kernel(SessionKernel::Closure(&center))
            .run(&input)
            .unwrap();
        assert_eq!(run.report.stages[0].engine.as_ref().unwrap().tiles, 2);
    }

    #[test]
    fn worker_panic_is_reported_in_every_mode() {
        let plan = plan_5pt(10, 10);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let boom = |_: &[f64]| -> f64 { panic!("datapath bug") };
        for mode in [
            ExecMode::InCore,
            ExecMode::Streaming {
                chunk_rows: Some(3),
            },
        ] {
            for threads in [1usize, 4] {
                let e = Session::new(&plan)
                    .kernel(SessionKernel::Closure(&boom))
                    .mode(mode)
                    .threads(threads)
                    .run(&input)
                    .unwrap_err();
                assert_eq!(
                    e,
                    EngineError::WorkerPanic,
                    "mode={mode:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn scrambled_input_index_reports_missing_point() {
        use stencil_polyhedral::DomainIndex;
        // An input index whose prefix-5 row is shifted left by one:
        // same point count (so the size check passes), broken coverage.
        // Output rows reading (5, 9) cannot batch; the gather fallback
        // must name the exact missing point instead of reading garbage.
        let plan = plan_5pt(10, 10);
        let mut rows = plan.input_domain().index().unwrap().rows().to_vec();
        assert_eq!((rows[5].lo, rows[5].hi), (0, 9));
        rows[5].lo = -1;
        rows[5].hi = 8;
        let idx = DomainIndex::from_rows(2, rows);
        let vals = ramp(idx.len());
        let input = InputGrid::new(&idx, &vals).unwrap();
        let center = |w: &[f64]| w[2];
        let e = Session::new(&plan)
            .kernel(SessionKernel::Closure(&center))
            .mode(ExecMode::InCore)
            .run(&input)
            .unwrap_err();
        match e {
            EngineError::MissingInput { point } => assert_eq!(point, "(5, 9)"),
            other => panic!("expected MissingInput, got {other:?}"),
        }
    }

    #[test]
    fn every_mode_resolves_ranks_through_the_input_grids_index() {
        // The plan reads a 10x12 input; the grid holds the same 120
        // points laid out 12x10. Every mode must read through the grid's
        // own index and miss (1, 10), not compute on mis-shaped data.
        let plan = plan_5pt(10, 12);
        let idx = Polyhedron::grid(&[12, 10]).index().unwrap();
        let vals = ramp(idx.len());
        let input = InputGrid::new(&idx, &vals).unwrap();
        let three = banded(&plan, 3);
        for (plan, mode) in [
            (&plan, ExecMode::InCore),
            (&three, ExecMode::InCore),
            (
                &plan,
                ExecMode::Streaming {
                    chunk_rows: Some(3),
                },
            ),
            (&plan, ExecMode::Streaming { chunk_rows: None }),
        ] {
            let e = Session::new(plan)
                .kernel(SessionKernel::Closure(&compute))
                .mode(mode)
                .run(&input)
                .unwrap_err();
            assert_eq!(
                e,
                EngineError::MissingInput {
                    point: "(1, 10)".into()
                },
                "mode={mode:?}"
            );
        }
    }

    #[test]
    fn in_core_workers_split_each_bands_rows_and_bands_report_in_order() {
        let plan = plan_5pt(40, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let run = |plan: &MemorySystemPlan, threads: usize| {
            Session::new(plan)
                .kernel(SessionKernel::Closure(&compute))
                .mode(ExecMode::InCore)
                .threads(threads)
                .run(&input)
                .unwrap()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let reference = bits(&run(&plan, 1).outputs);

        // Default in-core DENOISE is one band; four workers split its
        // rows.
        let one = run(&plan, 4);
        let r = one.report.stages[0].engine.as_ref().unwrap();
        assert_eq!((one.report.threads, r.threads, r.tiles), (4, 4, 1));
        assert_eq!(bits(&one.outputs), reference);

        let three = run(&banded(&plan, 3), 4);
        let r = three.report.stages[0].engine.as_ref().unwrap();
        assert_eq!((three.report.threads, r.threads, r.tiles), (4, 4, 3));
        assert_eq!(r.per_tile.len(), 3);
        assert_eq!(
            r.per_tile.iter().map(|t| t.id).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(r.per_tile.iter().map(|t| t.outputs).sum::<u64>(), r.outputs);
        assert_eq!(r.outputs, three.outputs.len() as u64);
        assert_eq!(bits(&three.outputs), reference);
    }

    #[test]
    fn pump_outputs_are_written_once_into_an_exact_buffer() {
        // The compiled DENOISE (native append form), the register
        // program and a closure, in core in one band and in three,
        // streaming in bands of five rows, and chained in core, at one
        // and three workers: every result is bit-identical to the
        // one-band run of its pipeline and holds exactly its outputs,
        // nothing reserved past them.
        let bench = stencil_kernels::denoise();
        let plan = MemorySystemPlan::generate(&bench.spec_for(&[40, 37]).unwrap()).unwrap();
        let three = banded(&plan, 3);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let closure = bench.compute_fn();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let reference = Session::build(&plan, &bench.stage())
            .unwrap()
            .threads(1)
            .run(&input)
            .unwrap();
        assert_eq!(reference.outputs.capacity(), reference.outputs.len());
        assert_eq!(reference.outputs.len(), 38 * 35);
        let chained = Session::build(&plan, &bench.stage())
            .unwrap()
            .then(&bench.stage())
            .unwrap()
            .threads(1)
            .run(&input)
            .unwrap();
        assert_eq!(chained.outputs.len(), 36 * 33);
        let expr_only = KernelStage::new("expr-only", bench.window().to_vec(), closure)
            .with_expr(bench.expr().unwrap().clone());
        let session = |k: usize, plan| match k {
            0 => Session::build(plan, &bench.stage()).unwrap(),
            1 => Session::build(plan, &expr_only).unwrap(),
            _ => Session::new(plan).kernel(SessionKernel::Closure(&closure)),
        };
        let streaming = ExecMode::Streaming {
            chunk_rows: Some(5),
        };
        for k in 0..3 {
            for threads in [1, 3] {
                for (plan, mode) in [
                    (&plan, ExecMode::InCore),
                    (&three, ExecMode::InCore),
                    (&plan, streaming),
                ] {
                    let run = session(k, plan).mode(mode).threads(threads);
                    let run = run.run(&input).unwrap();
                    let what = format!("session {k}, {mode:?}, {threads} threads");
                    assert_eq!(bits(&run.outputs), bits(&reference.outputs), "{what}");
                    assert_eq!(run.outputs.capacity(), run.outputs.len(), "{what}");
                    assert_eq!(run.report.threads, threads, "{what}");
                }
                let run = session(k, &plan).then(&bench.stage()).unwrap();
                let run = run.threads(threads).run(&input).unwrap();
                let what = format!("session {k} chained, {threads} threads");
                assert_eq!(bits(&run.outputs), bits(&chained.outputs), "{what}");
                assert_eq!(run.outputs.capacity(), run.outputs.len(), "{what}");
            }
        }
    }

    #[test]
    fn a_second_run_reuses_the_first_runs_program() {
        let bench = stencil_kernels::denoise();
        let expr_only =
            CompiledKernel::compile(bench.expr().unwrap(), bench.window().len()).unwrap();
        let plan = MemorySystemPlan::generate(&bench.spec_for(&[20, 24]).unwrap()).unwrap();
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let program = |s: &Session<'_>| -> Vec<*const RowProgram> { programs(s) };
        let session = Session::build(&plan, &bench.stage())
            .unwrap()
            .threads(1)
            .iterate(2)
            .unwrap();
        let first = session.run(&input).unwrap();
        let built = program(&session);
        let second = session.run(&input).unwrap();
        assert_eq!(program(&session), built);
        assert_eq!(first.outputs, second.outputs);
        // Streaming resolves through the same cache.
        let mut sink = VecSink::new();
        let streaming = session.mode(ExecMode::Streaming {
            chunk_rows: Some(4),
        });
        streaming
            .run_streaming(&mut SliceSource::new(&vals), &mut sink)
            .unwrap();
        assert_eq!(program(&streaming), built);
        // A builder call that changes the kernel drops the cache.
        let rebuilt = streaming.kernel(SessionKernel::Compiled(&expr_only));
        for p in rebuilt.stage_plans().unwrap() {
            assert!(matches!(&p.kernel, RowKernel::Program(_, prog) if prog.native().is_none()));
        }
    }

    /// Each stage's row program, by address.
    fn programs(s: &Session<'_>) -> Vec<*const RowProgram> {
        s.stage_plans()
            .unwrap()
            .iter()
            .map(|p| match &p.kernel {
                RowKernel::Program(_, prog) => std::ptr::from_ref::<RowProgram>(prog),
                _ => panic!("a compiled stage sweeps its program"),
            })
            .collect()
    }

    #[test]
    fn ring_steps_share_stage_zeros_program() {
        // An 8-step ring over a kernel the session owns builds one
        // program, and every step resolves that one and stage 0's
        // kernel; the ring's outputs are the closure ring's bits.
        let bench = stencil_kernels::denoise();
        let plan = MemorySystemPlan::generate(&bench.spec_for(&[40, 37]).unwrap()).unwrap();
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let ring = Session::build(&plan, &bench.stage())
            .unwrap()
            .threads(1)
            .iterate(8)
            .unwrap();
        let progs = programs(&ring);
        assert_eq!(progs.len(), 8);
        assert!(progs.iter().all(|&p| p == progs[0]), "{progs:?}");
        let kernels: Vec<*const CompiledKernel> = ring
            .stage_plans()
            .unwrap()
            .iter()
            .map(|p| match &p.kernel {
                RowKernel::Program(ck, _) => std::ptr::from_ref::<CompiledKernel>(ck),
                _ => panic!("a compiled stage sweeps its program"),
            })
            .collect();
        assert!(kernels.iter().all(|&k| k == kernels[0]));

        let closure = bench.compute_fn();
        let reference = Session::new(&plan)
            .kernel(SessionKernel::Closure(&closure))
            .threads(1)
            .iterate(8)
            .unwrap()
            .run(&input)
            .unwrap();
        assert_eq!(ring.run(&input).unwrap().outputs, reference.outputs);
        let mut sink = VecSink::new();
        ring.mode(ExecMode::Streaming {
            chunk_rows: Some(4),
        })
        .run_streaming(&mut SliceSource::new(&vals), &mut sink)
        .unwrap();
        assert_eq!(sink.values, reference.outputs);
    }

    #[test]
    fn tile_elapsed_is_each_bands_worker_time() {
        // A sleeping kernel makes every band take milliseconds whatever
        // the CPU count, so four workers overlap on each band's rows.
        let plan = plan_5pt(14, 8);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let slow = |w: &[f64]| {
            std::thread::sleep(Duration::from_micros(500));
            compute(w)
        };
        let run = Session::new(&banded(&plan, 3))
            .kernel(SessionKernel::Closure(&slow))
            .mode(ExecMode::InCore)
            .threads(4)
            .run(&input)
            .unwrap();
        let r = run.report.stages[0].engine.as_ref().unwrap();
        assert_eq!((r.threads, r.per_tile.len()), (4, 3));
        let busy: Duration = r.per_tile.iter().map(|t| t.elapsed).sum();
        assert!(
            busy > r.elapsed,
            "bands' worker time {busy:?} should exceed the run's {:?}",
            r.elapsed
        );
    }

    #[test]
    fn report_accounts_all_rows_fast_for_rect_grids() {
        let plan = plan_5pt(16, 16);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let center = |w: &[f64]| w[2];
        let run = Session::new(&banded(&plan, 2))
            .kernel(SessionKernel::Closure(&center))
            .mode(ExecMode::InCore)
            .run(&input)
            .unwrap();
        let report = run.report.stages[0].engine.as_ref().unwrap();
        let fast: u64 = report.per_tile.iter().map(|t| t.fast_rows).sum();
        let gather: u64 = report.per_tile.iter().map(|t| t.gather_rows).sum();
        assert_eq!(fast, 14);
        assert_eq!(gather, 0);
        assert!(report.halo_elements > in_idx.len());
    }

    #[test]
    fn streaming_matches_in_core_at_every_chunk_size() {
        let plan = plan_5pt(20, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let reference = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .run(&input)
            .unwrap()
            .outputs;
        for chunk in [1u64, 3, 18, 100] {
            for threads in [1usize, 3] {
                let run = Session::new(&plan)
                    .kernel(SessionKernel::Closure(&compute))
                    .mode(ExecMode::Streaming {
                        chunk_rows: Some(chunk),
                    })
                    .threads(threads)
                    .run(&input)
                    .unwrap();
                assert_eq!(run.outputs, reference, "chunk={chunk} threads={threads}");
                let report = run.report.stages[0].stream.as_ref().unwrap();
                assert_eq!(report.outputs, 18 * 22);
                assert_eq!(report.backend, KernelBackend::Closure);
                assert_eq!(report.sweep_rows, 0);
                assert!(run.report.within_residency_bound());
            }
        }
    }

    #[test]
    fn alternating_modes_keep_every_band_schedule_warm() {
        // Regression test for the single-slot tile-plan cache: a
        // session alternating in-core and streaming execution (the CLI
        // crosscheck shape) used to evict one band schedule with the
        // other and rebuild on every switch. The cache is keyed now, so
        // after one cold call per mode every later call reports
        // `tile_plans_built == 0`.
        let plan = plan_5pt(20, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let streaming = ExecMode::Streaming {
            chunk_rows: Some(4),
        };
        let mut session = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .mode(streaming);
        // Cold calls: one build per distinct band-schedule key.
        let warm_stream = session.run(&input).unwrap();
        assert_eq!(warm_stream.report.tile_plans_built, 1);
        session = session.mode(ExecMode::InCore);
        let warm_core = session.run(&input).unwrap();
        assert_eq!(warm_core.report.tile_plans_built, 1);
        assert_eq!(warm_core.outputs, warm_stream.outputs);
        // Alternate run() / run_streaming() across both modes: every
        // schedule stays cached, nothing is rebuilt.
        for _ in 0..3 {
            session = session.mode(streaming);
            let run = session.run(&input).unwrap();
            assert_eq!(run.report.tile_plans_built, 0);
            assert_eq!(run.outputs, warm_core.outputs);
            let mut source = SliceSource::new(&vals);
            let mut sink = VecSink::new();
            let report = session.run_streaming(&mut source, &mut sink).unwrap();
            assert_eq!(report.tile_plans_built, 0);
            assert_eq!(sink.values, warm_core.outputs);
            session = session.mode(ExecMode::InCore);
            let run = session.run(&input).unwrap();
            assert_eq!(run.report.tile_plans_built, 0);
            assert_eq!(run.outputs, warm_core.outputs);
        }
    }

    #[test]
    fn compiled_streaming_sweeps_and_matches_closure_streaming() {
        let plan = plan_5pt(20, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let kernel = compiled_5pt();
        for chunk in [1u64, 3, 18] {
            let closure = Session::new(&plan)
                .kernel(SessionKernel::Closure(&compute))
                .mode(ExecMode::Streaming {
                    chunk_rows: Some(chunk),
                })
                .run(&input)
                .unwrap();
            let compiled = Session::new(&plan)
                .kernel(SessionKernel::Compiled(&kernel))
                .mode(ExecMode::Streaming {
                    chunk_rows: Some(chunk),
                })
                .run(&input)
                .unwrap();
            assert_eq!(compiled.outputs, closure.outputs, "chunk={chunk}");
            let report = compiled.report.stages[0].stream.as_ref().unwrap();
            assert_eq!(report.backend, KernelBackend::Compiled);
            // Rectangular grid: every output row sweeps.
            assert_eq!(report.sweep_rows, 18, "chunk={chunk}");
            assert_eq!(report.fast_rows, 0);
            assert_eq!(report.gather_rows, 0);

            let scalar = Session::new(&plan)
                .kernel(SessionKernel::Compiled(&kernel))
                .backend(KernelBackend::Closure)
                .mode(ExecMode::Streaming {
                    chunk_rows: Some(chunk),
                })
                .run(&input)
                .unwrap();
            assert_eq!(scalar.outputs, closure.outputs);
            let report = scalar.report.stages[0].stream.as_ref().unwrap();
            assert_eq!(report.backend, KernelBackend::Closure);
            assert_eq!(report.sweep_rows, 0);
        }
    }

    #[test]
    fn residency_stays_at_one_halo_window() {
        // 18 output rows in 1-row bands: halo = 3 input rows of 24.
        let plan = plan_5pt(20, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let run = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .mode(ExecMode::Streaming {
                chunk_rows: Some(1),
            })
            .run(&input)
            .unwrap();
        let report = run.report.stages[0].stream.as_ref().unwrap();
        assert_eq!(report.peak_resident, 3 * 24);
        assert_eq!(report.resident_bound, 3 * 24);
        assert_eq!(report.bands, 18);
        // Every input value crosses the window exactly once.
        assert_eq!(report.values_in, in_idx.len());
        assert_eq!(report.rows_in, 20);
        assert_eq!(report.rows_out, 18);
        assert_eq!(run.report.peak_resident, 3 * 24);
        assert_eq!(run.report.resident_bound, 3 * 24);
    }

    #[test]
    fn streaming_endpoints_work_in_every_mode() {
        // run_streaming(source, sink) is mode-orthogonal: every mode
        // pulls the source through halo windows and pushes its rows.
        let plan = plan_5pt(30, 16);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let reference = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .run(&input)
            .unwrap()
            .outputs;
        let four = banded(&plan, 4);
        for (plan, mode) in [
            (&plan, ExecMode::InCore),
            (&four, ExecMode::InCore),
            (
                &plan,
                ExecMode::Streaming {
                    chunk_rows: Some(4),
                },
            ),
        ] {
            let mut source = FnSource::new(|r| (r % 97) as f64 * 0.5 - 11.0);
            let mut sink = VecSink::new();
            let report = Session::new(plan)
                .kernel(SessionKernel::Closure(&compute))
                .mode(mode)
                .run_streaming(&mut source, &mut sink)
                .unwrap();
            assert_eq!(sink.values, reference, "mode={mode:?}");
            assert_eq!(report.mode, mode);
            assert_eq!(report.outputs(), 28 * 14);
        }
    }

    #[test]
    fn exhausted_source_is_an_error_not_a_panic() {
        let plan = plan_5pt(12, 12);
        let short = ramp(10);
        let mut source = SliceSource::new(&short);
        let mut sink = VecSink::new();
        let e = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .mode(ExecMode::Streaming { chunk_rows: None })
            .run_streaming(&mut source, &mut sink)
            .unwrap_err();
        assert!(matches!(e, EngineError::Source { .. }), "{e}");
    }

    #[test]
    fn failing_sink_is_an_error_not_a_panic() {
        struct FullSink;
        impl crate::stream::RowSink for FullSink {
            fn push_row(&mut self, _row: &[f64]) -> Result<(), EngineError> {
                Err(EngineError::Sink {
                    detail: "disk full".into(),
                })
            }
        }
        let plan = plan_5pt(12, 12);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let mut source = SliceSource::new(&vals);
        let e = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .mode(ExecMode::Streaming { chunk_rows: None })
            .run_streaming(&mut source, &mut FullSink)
            .unwrap_err();
        assert_eq!(
            e,
            EngineError::Sink {
                detail: "disk full".into()
            }
        );
    }

    #[test]
    fn one_dimensional_stream() {
        let spec = StencilSpec::new(
            "blur1d",
            Polyhedron::rect(&[(1, 40)]),
            vec![Point::new(&[-1]), Point::new(&[0]), Point::new(&[1])],
        )
        .unwrap();
        let plan = MemorySystemPlan::generate(&spec).unwrap();
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let blur = |w: &[f64]| (w[0] + w[1] + w[2]) / 3.0;
        let reference = Session::new(&plan)
            .kernel(SessionKernel::Closure(&blur))
            .run(&input)
            .unwrap()
            .outputs;
        let run = Session::new(&plan)
            .kernel(SessionKernel::Closure(&blur))
            .mode(ExecMode::Streaming {
                chunk_rows: Some(8),
            })
            .run(&input)
            .unwrap();
        assert_eq!(run.outputs, reference);
        // A 1D domain is one index row: the whole grid is the window.
        let report = run.report.stages[0].stream.as_ref().unwrap();
        assert_eq!(report.peak_resident, in_idx.len());
        assert!(run.report.within_residency_bound());
    }

    // ---- temporal chaining ----

    fn stage_5pt(name: &str) -> KernelStage {
        KernelStage::new(name, window_5pt(), compute)
    }

    /// Sequential reference: run stage 2 as its own session over stage
    /// 1's materialized output grid.
    fn sequential_two_stage(plan1: &MemorySystemPlan, vals: &[f64]) -> Vec<f64> {
        let in_idx = plan1.input_domain().index().unwrap();
        let input = InputGrid::new(&in_idx, vals).unwrap();
        let out1 = Session::new(plan1)
            .kernel(SessionKernel::Closure(&compute))
            .run(&input)
            .unwrap()
            .outputs;
        let plan2 = plan1.chain_next("stage2", &window_5pt()).unwrap();
        let mid_idx = plan2.input_domain().index().unwrap();
        let mid = InputGrid::new(&mid_idx, &out1).unwrap();
        Session::new(&plan2)
            .kernel(SessionKernel::Closure(&compute))
            .run(&mid)
            .unwrap()
            .outputs
    }

    #[test]
    fn chained_incore_matches_sequential_stages() {
        let plan = plan_5pt(20, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let expect = sequential_two_stage(&plan, &vals);

        let session = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .then(&stage_5pt("stage2"))
            .unwrap();
        assert_eq!(session.stage_count(), 2);
        let run = session.run(&input).unwrap();
        assert_eq!(run.outputs, expect);
        // 20x24 grid -> 18x22 after stage 1 -> 16x20 after stage 2.
        assert_eq!(run.outputs.len(), 16 * 20);
        assert_eq!(run.report.stages.len(), 2);
        assert_eq!(run.report.stages[1].label, "stage2");
    }

    #[test]
    fn chained_streaming_is_bit_identical_and_residency_bounded() {
        let plan = plan_5pt(20, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let expect = sequential_two_stage(&plan, &vals);

        for chunk in [1u64, 3, 9] {
            let session = Session::new(&plan)
                .kernel(SessionKernel::Closure(&compute))
                .then(&stage_5pt("stage2"))
                .unwrap()
                .mode(ExecMode::Streaming {
                    chunk_rows: Some(chunk),
                });
            let planned = session.planned_residency_bound(Some(chunk)).unwrap();
            let run = session.run(&input).unwrap();
            assert_eq!(run.outputs, expect, "chunk={chunk}");
            // The chained peak is the sum of the per-stage windows and
            // honors both the runtime and the planned bound.
            let stage_peaks: u64 = run
                .report
                .stages
                .iter()
                .map(|s| s.stream.as_ref().unwrap().peak_resident)
                .sum();
            assert_eq!(run.report.peak_resident, stage_peaks);
            assert!(run.report.within_residency_bound());
            assert!(
                run.report.peak_resident <= planned,
                "chunk={chunk}: peak {} > planned {planned}",
                run.report.peak_resident
            );
        }

        // At 1-row bands, two coupled halo windows stay resident:
        // 3 input rows of 24 plus 3 intermediate rows of 22 — far below
        // the 18x22 intermediate grid a sequential run materializes.
        let run = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .then(&stage_5pt("stage2"))
            .unwrap()
            .mode(ExecMode::Streaming {
                chunk_rows: Some(1),
            })
            .run(&input)
            .unwrap();
        assert_eq!(run.report.peak_resident, 3 * 24 + 3 * 22);
        assert!(run.report.peak_resident < 18 * 22);
    }

    #[test]
    fn session_metrics_serialize_and_validate_clean() {
        let plan = plan_5pt(20, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();

        let run = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .then(&stage_5pt("stage2"))
            .unwrap()
            .mode(ExecMode::Streaming {
                chunk_rows: Some(1),
            })
            .run(&input)
            .unwrap();
        let metrics = run.report.metrics();
        assert_eq!(metrics.mode, "streaming");
        assert_eq!(metrics.outputs, 16 * 20);
        assert_eq!(metrics.peak_resident, run.report.peak_resident);
        assert_eq!(metrics.stages.len(), 2);
        assert_eq!(metrics.stages[0].label, "denoise");
        assert_eq!(metrics.stages[1].label, "stage2");
        assert!(metrics.stages.iter().all(|s| s.stream.is_some()));
        // Every stage-1 output value flows into stage 2 — the
        // hand-off figure the StreamConservation validator rule re-checks.
        assert_eq!(
            metrics.stages[1].stream.as_ref().unwrap().values_in,
            metrics.stages[0].stream.as_ref().unwrap().outputs
        );

        // The wire form round-trips and passes report validation,
        // including the chained-residency rule.
        let mut report = stencil_telemetry::MetricsReport::new("denoise-chain");
        report.sessions.push(metrics);
        let text = report.to_json();
        let back = stencil_telemetry::MetricsReport::parse(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(stencil_telemetry::validate_report(&back), Vec::new());

        // In-core chained runs serialize engine-stage metrics instead.
        let run = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .then(&stage_5pt("stage2"))
            .unwrap()
            .run(&input)
            .unwrap();
        let metrics = run.report.metrics();
        assert_eq!(metrics.mode, "incore");
        assert!(metrics.stages.iter().all(|s| s.engine.is_some()));
        let mut report = stencil_telemetry::MetricsReport::new("denoise-chain");
        report.sessions.push(metrics);
        assert_eq!(stencil_telemetry::validate_report(&report), Vec::new());
    }

    #[test]
    fn three_stage_chain_matches_iterated_sequential() {
        let plan = plan_5pt(22, 20);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();

        // Sequential: fold the grid through three planned stages.
        let mut cur_plan = MemorySystemPlan::generate(
            &StencilSpec::new("denoise", plan.iteration_domain().clone(), window_5pt()).unwrap(),
        )
        .unwrap();
        let mut cur = {
            let input = InputGrid::new(&in_idx, &vals).unwrap();
            Session::new(&plan)
                .kernel(SessionKernel::Closure(&compute))
                .run(&input)
                .unwrap()
                .outputs
        };
        for name in ["s2", "s3"] {
            let next = cur_plan.chain_next(name, &window_5pt()).unwrap();
            let idx = next.input_domain().index().unwrap();
            let grid = InputGrid::new(&idx, &cur).unwrap();
            cur = Session::new(&next)
                .kernel(SessionKernel::Closure(&compute))
                .run(&grid)
                .unwrap()
                .outputs;
            cur_plan = next;
        }

        for mode in [
            ExecMode::InCore,
            ExecMode::Streaming {
                chunk_rows: Some(2),
            },
        ] {
            let run = Session::new(&plan)
                .kernel(SessionKernel::Closure(&compute))
                .then(&stage_5pt("s2"))
                .unwrap()
                .then(&stage_5pt("s3"))
                .unwrap()
                .mode(mode)
                .run(&input)
                .unwrap();
            assert_eq!(run.outputs, cur, "mode={mode:?}");
            assert_eq!(run.report.stages.len(), 3);
        }
    }

    #[test]
    fn chained_stage_with_expr_compiles_and_sweeps() {
        let plan = plan_5pt(20, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let expect = sequential_two_stage(&plan, &vals);
        let kernel = compiled_5pt();

        let stage = stage_5pt("stage2").with_expr(expr_5pt());
        let run = Session::new(&plan)
            .kernel(SessionKernel::Compiled(&kernel))
            .then(&stage)
            .unwrap()
            .mode(ExecMode::Streaming {
                chunk_rows: Some(3),
            })
            .run(&input)
            .unwrap();
        assert_eq!(run.outputs, expect);
        // Both stages row-sweep their full rectangular iteration space.
        let s1 = run.report.stages[0].stream.as_ref().unwrap();
        let s2 = run.report.stages[1].stream.as_ref().unwrap();
        assert_eq!(s1.backend, KernelBackend::Compiled);
        assert_eq!(s2.backend, KernelBackend::Compiled);
        assert_eq!(s1.sweep_rows, 18);
        assert_eq!(s2.sweep_rows, 16);
    }

    #[test]
    fn chain_rejects_windows_that_consume_the_grid() {
        let plan = plan_5pt(8, 8); // 6x6 iteration domain
        let tall = KernelStage::new(
            "tall",
            vec![
                Point::new(&[-3, 0]),
                Point::new(&[0, 0]),
                Point::new(&[3, 0]),
            ],
            compute,
        );
        let session = Session::new(&plan).kernel(SessionKernel::Closure(&compute));
        // 6 rows erode to nothing under a 7-row vertical window. This is
        // a configuration mistake the caller can act on, not a planner
        // failure, so it surfaces as the typed `Config` variant with the
        // stage, its upstream, and the offending window extent named.
        let e = session.then(&tall).unwrap_err();
        match e {
            EngineError::Config { ref detail } => {
                assert!(detail.contains("'tall'"), "{detail}");
                assert!(detail.contains("'denoise'"), "{detail}");
                assert!(detail.contains("7-row window"), "{detail}");
                assert!(detail.contains("zero rows"), "{detail}");
            }
            other => panic!("expected EngineError::Config, got {other}"),
        }
    }

    #[test]
    fn session_report_displays_the_pipeline() {
        let plan = plan_5pt(20, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let run = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .then(&stage_5pt("stage2"))
            .unwrap()
            .mode(ExecMode::Streaming {
                chunk_rows: Some(3),
            })
            .telemetry("denoise-x2")
            .run(&input)
            .unwrap();
        assert_eq!(run.report.label.as_deref(), Some("denoise-x2"));
        let s = run.report.to_string();
        assert!(s.contains("session [streaming]"), "{s}");
        assert!(s.contains("2 stage(s)"), "{s}");
        assert!(s.contains("stage 'stage2'"), "{s}");
        assert!(run.report.throughput() >= 0.0);
        // With >1 stage the report also renders the per-stage pipeline
        // shape: backend, window taps/rows, and the residency bound.
        assert!(s.contains("pipeline:"), "{s}");
        assert!(s.contains("5-tap/3-row"), "{s}");
    }

    #[test]
    fn stage_plans_resolve_per_stage_backends_and_overrides() {
        let plan = plan_5pt(20, 24);
        let ck = compiled_5pt();
        let stage2 = stage_5pt("s2").with_expr(expr_5pt());
        let stage3 = stage_5pt("s3"); // closure-only, no expression
        let session = Session::new(&plan)
            .kernel(SessionKernel::Compiled(&ck))
            .then(&stage2)
            .unwrap()
            .then(&stage3)
            .unwrap()
            // Requesting the compiled backend on an expression-less
            // stage resolves to the closure fallback, per stage.
            .stage_backend(KernelBackend::Compiled);
        let plans = session.stage_plans().unwrap();
        assert_eq!(plans.len(), 3);
        assert_eq!(plans[0].backend, KernelBackend::Compiled);
        assert_eq!(plans[1].backend, KernelBackend::Compiled);
        assert_eq!(plans[2].backend, KernelBackend::Closure);
        assert!(plans.iter().all(|p| p.window_taps() == 5));
        assert!(plans.iter().all(|p| p.window_rows() == 3));
        assert_eq!(plans[1].label, "s2");
        assert_eq!(plans[2].plan.name(), "s3");

        // The resolved mixed-backend pipeline still executes
        // bit-identically to the all-closure chain.
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let run = session.run(&input).unwrap();
        assert_eq!(run.report.stages[0].backend, KernelBackend::Compiled);
        assert_eq!(run.report.stages[1].backend, KernelBackend::Compiled);
        assert_eq!(run.report.stages[2].backend, KernelBackend::Closure);
        let golden = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .then(&stage2)
            .unwrap()
            .stage_backend(KernelBackend::Closure)
            .then(&stage3)
            .unwrap()
            .run(&input)
            .unwrap()
            .outputs;
        assert_eq!(run.outputs, golden);
    }

    // ---- iterative time-stepping ----

    /// Sequential reference: T materialized runs of the same kernel,
    /// each re-planned over the previous step's output grid.
    fn sequential_steps(plan: &MemorySystemPlan, vals: &[f64], steps: usize) -> Vec<f64> {
        let in_idx = plan.input_domain().index().unwrap();
        let input = InputGrid::new(&in_idx, vals).unwrap();
        let mut cur = Session::new(plan)
            .kernel(SessionKernel::Closure(&compute))
            .run(&input)
            .unwrap()
            .outputs;
        let mut cur_plan = plan.clone();
        for k in 1..steps {
            let next = cur_plan
                .chain_next(format!("t{}", k + 1), &window_5pt())
                .unwrap();
            let idx = next.input_domain().index().unwrap();
            let grid = InputGrid::new(&idx, &cur).unwrap();
            cur = Session::new(&next)
                .kernel(SessionKernel::Closure(&compute))
                .run(&grid)
                .unwrap()
                .outputs;
            cur_plan = next;
        }
        cur
    }

    #[test]
    fn iterate_matches_sequential_steps_in_both_modes() {
        let plan = plan_5pt(20, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        let expect = sequential_steps(&plan, &vals, 3);

        let incore = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .iterate(3)
            .unwrap();
        assert_eq!(incore.stage_count(), 3);
        let run = incore.run(&input).unwrap();
        assert_eq!(run.outputs, expect);
        // 18x22 iteration domain erodes one ring per step: t3 is 14x18.
        assert_eq!(run.outputs.len(), 14 * 18);
        assert_eq!(run.report.stages[1].label, "denoise@t2");
        let it = run.report.iterate.as_ref().unwrap();
        assert_eq!(it.steps, 3);
        assert_eq!(it.max_steps, 3);
        assert!(!it.converged);
        assert_eq!(run.report.stages.len(), 3);
        assert!(run.report.within_residency_bound());

        for chunk in [1u64, 3] {
            let session = Session::new(&plan)
                .kernel(SessionKernel::Closure(&compute))
                .mode(ExecMode::Streaming {
                    chunk_rows: Some(chunk),
                })
                .iterate(3)
                .unwrap();
            let planned = session.planned_residency_bound(Some(chunk)).unwrap();
            let run = session.run(&input).unwrap();
            assert_eq!(run.outputs, expect, "chunk={chunk}");
            assert!(run.report.within_residency_bound());
            let it = run.report.iterate.as_ref().unwrap();
            assert_eq!(it.steps, 3);
            assert!(run.report.peak_resident <= planned, "chunk={chunk}");
        }

        // At 1-row bands, three coupled step windows stay resident —
        // far below even one materialized intermediate grid.
        let run = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .mode(ExecMode::Streaming {
                chunk_rows: Some(1),
            })
            .iterate(3)
            .unwrap()
            .run(&input)
            .unwrap();
        assert_eq!(run.report.peak_resident, 3 * 24 + 3 * 22 + 3 * 20);
        assert!(run.report.peak_resident < 18 * 22);

        // The iterate metrics serialize and validate clean, including
        // the Convergence and Residency rules.
        let mut report = stencil_telemetry::MetricsReport::new("denoise-iterate");
        report.sessions.push(run.report.metrics());
        let back = stencil_telemetry::MetricsReport::parse(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert_eq!(stencil_telemetry::validate_report(&back), Vec::new());
    }

    #[test]
    fn iterate_rejects_bad_configs() {
        let plan = plan_5pt(20, 24);
        let e = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .iterate(0)
            .unwrap_err();
        assert!(matches!(e, EngineError::Config { .. }), "{e}");

        let e = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .then(&stage_5pt("stage2"))
            .unwrap()
            .iterate(2)
            .unwrap_err();
        match e {
            EngineError::Config { detail } => assert!(detail.contains("single-stage"), "{detail}"),
            other => panic!("expected Config, got {other:?}"),
        }

        let e = Session::new(&plan).iterate(2).unwrap_err();
        match e {
            EngineError::Config { detail } => assert!(detail.contains("kernel"), "{detail}"),
            other => panic!("expected Config, got {other:?}"),
        }

        // A 6x6 iteration domain erodes away before step 4.
        let small = plan_5pt(8, 8);
        let e = Session::new(&small)
            .kernel(SessionKernel::Closure(&compute))
            .iterate(4)
            .unwrap_err();
        assert!(matches!(e, EngineError::Plan(_)), "{e}");
    }

    #[test]
    fn iterate_builds_tile_plans_once_per_mode() {
        let plan = plan_5pt(20, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();

        // Mode fixed before iterate: construction hoists every step's
        // band schedule, so runs never build one.
        let session = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .mode(ExecMode::Streaming {
                chunk_rows: Some(3),
            })
            .iterate(3)
            .unwrap();
        let first = session.run(&input).unwrap();
        assert_eq!(first.report.tile_plans_built, 0);
        let second = session.run(&input).unwrap();
        assert_eq!(second.report.tile_plans_built, 0);
        assert_eq!(first.outputs, second.outputs);

        // Mode changed after construction: the first run re-tiles each
        // stage once (counted), the second hits the warm cache.
        let session = Session::new(&plan)
            .kernel(SessionKernel::Closure(&compute))
            .iterate(3)
            .unwrap()
            .mode(ExecMode::Streaming {
                chunk_rows: Some(3),
            });
        let first = session.run(&input).unwrap();
        assert_eq!(first.report.tile_plans_built, 3);
        let second = session.run(&input).unwrap();
        assert_eq!(second.report.tile_plans_built, 0);
    }

    #[test]
    fn iterate_until_converges_identically_across_backends() {
        let plan = plan_5pt(40, 40);
        let in_idx = plan.input_domain().index().unwrap();
        let vals = ramp(in_idx.len());
        let input = InputGrid::new(&in_idx, &vals).unwrap();
        // Contractive relaxation: total tap weight 0.4, so values (and
        // the per-step delta) shrink geometrically toward zero.
        let relax = |w: &[f64]| 0.2 * w[2] + 0.05 * (w[0] + w[1] + w[3] + w[4]);
        let [t0, t1, t2, t3, t4] = KernelExpr::taps::<5>();
        let expr = 0.2 * t2 + 0.05 * (t0 + t1 + t3 + t4);
        let kernel = CompiledKernel::compile_checked(&expr, 5, &relax).unwrap();

        let closure_run = Session::new(&plan)
            .kernel(SessionKernel::Closure(&relax))
            .iterate_until(&input, 1e-2, 18)
            .unwrap();
        let it = closure_run.report.iterate.as_ref().unwrap();
        assert!(it.converged);
        assert!(it.steps >= 2, "converged suspiciously fast: {}", it.steps);
        assert!(it.steps < 18, "no early exit: {} steps", it.steps);
        assert!(it.final_delta <= 1e-2);
        assert_eq!(
            closure_run.report.stages.len(),
            usize::try_from(it.steps).unwrap()
        );
        // Steps run one at a time: the peak is the largest step grid,
        // not a sum.
        assert_eq!(
            closure_run.report.peak_resident,
            closure_run
                .report
                .stages
                .iter()
                .map(|s| s.resident_bound)
                .max()
                .unwrap()
        );

        // The compiled backend measures bit-identical deltas, so it
        // exits after the same number of steps with the same values.
        let compiled_run = Session::new(&plan)
            .kernel(SessionKernel::Compiled(&kernel))
            .iterate_until(&input, 1e-2, 18)
            .unwrap();
        let it2 = compiled_run.report.iterate.as_ref().unwrap();
        assert_eq!(it2.steps, it.steps);
        assert_eq!(it2.final_delta, it.final_delta);
        assert_eq!(compiled_run.outputs, closure_run.outputs);

        // Convergence metrics serialize and validate clean.
        let mut report = stencil_telemetry::MetricsReport::new("relax-converge");
        report.sessions.push(closure_run.report.metrics());
        assert_eq!(stencil_telemetry::validate_report(&report), Vec::new());

        // Epsilon no run can reach: steps == max_steps, not converged.
        let capped = Session::new(&plan)
            .kernel(SessionKernel::Closure(&relax))
            .iterate_until(&input, 0.0, 3)
            .unwrap();
        let it3 = capped.report.iterate.as_ref().unwrap();
        assert!(!it3.converged);
        assert_eq!(it3.steps, 3);
        assert_eq!(it3.max_steps, 3);

        // Bad arguments are config errors.
        for (eps, max) in [(-1.0, 4usize), (f64::NAN, 4), (0.1, 0)] {
            let e = Session::new(&plan)
                .kernel(SessionKernel::Closure(&relax))
                .iterate_until(&input, eps, max)
                .unwrap_err();
            assert!(matches!(e, EngineError::Config { .. }), "{e}");
        }
    }
}
