//! The metrics wire schema.
//!
//! One [`MetricsReport`] describes one named run: the cycle-accurate
//! machine's counters ([`MachineMetrics`]), one [`SessionMetrics`] per
//! software-engine session the command ran (in-core, streaming,
//! chained or iterated, each with its per-stage blocks), and the
//! serving front-end's counters ([`ServiceMetrics`]). Planned
//! quantities (Eq. (2) FIFO capacities, the §2.3 minimum-buffer bound,
//! the bandwidth-limited cycle bound, every residency bound) are
//! recorded *next to* their observed counterparts, so a report is
//! self-contained: [`crate::validate`] needs no plan object to check
//! the paper's claims.

use serde::json::{field, object, FromValue, JsonError, ToValue, Value};

use crate::metric::Histogram;

/// Version tag written into every report; bump on breaking schema
/// changes so downstream tooling can dispatch. Version 2 made every key
/// required: an absent section is written as `null`, never omitted.
/// Version 3 replaced the top-level `engine`, `stream` and `session`
/// blocks with the `sessions` list. Version 4 dropped the `unroll` key
/// of engine and stream blocks: every compiled row runs one sweep shape.
pub const SCHEMA_VERSION: u32 = 4;

/// Declares one wire record: emits the struct exactly as written, plus
/// its `ToValue` (an object whose keys are the field names, in
/// declaration order) and `FromValue` (every key required, so a missing
/// one is an error naming it). `Option` fields travel as `null`.
macro_rules! record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                pub $field:ident: $ty:ty,
            )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $(
                $(#[$field_meta])*
                pub $field: $ty,
            )*
        }

        impl ToValue for $name {
            fn to_value(&self) -> Value {
                object(vec![$((stringify!($field), self.$field.to_value())),*])
            }
        }

        impl FromValue for $name {
            fn from_value(v: &Value) -> Result<Self, JsonError> {
                Ok(Self {
                    $($field: field(v, stringify!($field))?,)*
                })
            }
        }
    };
}

record! {
    /// Observed behaviour of one reuse FIFO, next to its planned capacity.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FifoMetrics {
        /// Planned depth in elements: the Eq. (2) maximum reuse distance
        /// `r̄(A_k → A_{k+1})`, *before* the hardware's promotion of
        /// zero-capacity FIFOs to a single register stage (the validator
        /// applies the promotion when checking occupancy).
        pub capacity: u64,
        /// Highest occupancy ever observed.
        pub high_water: u64,
        /// Elements ever pushed.
        pub pushes: u64,
        /// Elements ever popped.
        pub pops: u64,
        /// Per-cycle occupancy distribution, when sampling was enabled
        /// (disabled histograms serialize with empty bounds/counts).
        pub occupancy: Histogram,
    }
}

record! {
    /// Observed behaviour of one data filter.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FilterMetrics {
        /// Elements forwarded to the kernel port.
        pub forwarded: u64,
        /// Elements discarded (not part of this reference's data domain).
        pub discarded: u64,
        /// Total stalled cycles, including the reuse-buffer fill phase.
        pub stalls: u64,
        /// Stalled cycles after the first kernel firing — the steady-state
        /// share. Zero here, across all filters, is the paper's II = 1
        /// condition.
        pub steady_stalls: u64,
    }
}

record! {
    /// One memory-system chain (one data array) of a machine run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ChainMetrics {
        /// The served array's name.
        pub array: String,
        /// Elements streamed from off-chip across all streams of the chain.
        pub inputs_streamed: u64,
        /// Size of the input domain `D_A` (planned stream length per
        /// off-chip stream head).
        pub input_elements: u64,
        /// Reuse FIFOs in chain order.
        pub fifos: Vec<FifoMetrics>,
        /// Data filters in chain order.
        pub filters: Vec<FilterMetrics>,
    }
}

record! {
    /// Counters of one cycle-accurate machine run, with the plan's bounds.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MachineMetrics {
        /// Total simulated cycles.
        pub cycles: u64,
        /// Kernel outputs produced.
        pub outputs: u64,
        /// Planned iteration count (size of `D`); a complete run has
        /// `outputs == iterations`.
        pub iterations: u64,
        /// Cycle of the first output (§3.4.1 automatic fill latency).
        pub fill_latency: u64,
        /// Measured cycles per output between first and last firing.
        pub steady_ii: f64,
        /// The input-bandwidth-limited lower bound on total cycles;
        /// `cycles <= ideal_cycles` is the paper's full-pipelining target.
        pub ideal_cycles: u64,
        /// Off-chip streams consumed per cycle (1, or more under the
        /// Appendix 9.4 tradeoff).
        pub offchip_streams: usize,
        /// Sum of allocated FIFO capacities in this configuration.
        pub planned_total_buffer: u64,
        /// The §2.3 minimum total buffer size `r̄(A_0 → A_{n-1})` of the
        /// single-stream design.
        pub min_total_buffer: u64,
        /// Whether Property 3 (linearity of max reuse distances) held, in
        /// which case the single-stream `planned_total_buffer` equals
        /// `min_total_buffer` exactly.
        pub linearity_holds: bool,
        /// Per-chain detail.
        pub chains: Vec<ChainMetrics>,
    }
}

impl MachineMetrics {
    /// Sum of observed FIFO high-water marks across every chain — the
    /// steady-state buffering the run actually used.
    #[must_use]
    pub fn observed_total_buffer(&self) -> u64 {
        self.chains
            .iter()
            .flat_map(|c| c.fifos.iter())
            .map(|f| f.high_water)
            .sum()
    }

    /// Total steady-state stalled cycles across every filter.
    #[must_use]
    pub fn steady_stalls(&self) -> u64 {
        self.chains
            .iter()
            .flat_map(|c| c.filters.iter())
            .map(|f| f.steady_stalls)
            .sum()
    }
}

record! {
    /// Per-band counters of one software-engine run.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct TileMetrics {
        /// Band id, outermost-dimension order.
        pub id: usize,
        /// Outputs the band produced.
        pub outputs: u64,
        /// Input elements in the band's halo.
        pub halo_elements: u64,
        /// Rows evaluated by the compiled register-program row sweep.
        pub sweep_rows: u64,
        /// Rows executed on the batched fast path.
        pub fast_rows: u64,
        /// Rows that fell back to per-point gathers.
        pub gather_rows: u64,
        /// Wall-clock nanoseconds the band's worker spent.
        pub elapsed_ns: u64,
    }
}

record! {
    /// Counters of one software-engine run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EngineMetrics {
        /// Total outputs produced.
        pub outputs: u64,
        /// Bands executed.
        pub tiles: usize,
        /// Worker threads used.
        pub threads: usize,
        /// Kernel backend that executed the datapath (`"compiled"` for the
        /// register-program row sweep, `"closure"` otherwise).
        pub backend: String,
        /// Arithmetic precision the kernel evaluated in (`"f64"` or
        /// `"f32"`).
        pub datapath: String,
        /// Input elements fetched across bands, halo overlap counted per
        /// band.
        pub halo_elements: u64,
        /// End-to-end wall-clock nanoseconds.
        pub elapsed_ns: u64,
        /// Outputs per second (0.0 when the elapsed time is below timer
        /// resolution — never non-finite).
        pub throughput: f64,
        /// Per-band detail, band order.
        pub per_tile: Vec<TileMetrics>,
    }
}

record! {
    /// Counters of one streaming (out-of-core) engine run.
    ///
    /// The defining figure is the pair `peak_resident` / `resident_bound`:
    /// the streaming executor promises to keep at most one band's halo
    /// window of input values resident (Sec. 2.3 — a stencil needs only its
    /// maximum reuse distance of history), and the validator checks the
    /// observed high-water mark against that planned bound
    /// ([`crate::validate::BoundCheck::Residency`]).
    #[derive(Debug, Clone, PartialEq)]
    pub struct StreamMetrics {
        /// Total outputs produced.
        pub outputs: u64,
        /// Bands executed.
        pub bands: usize,
        /// Worker threads used per band.
        pub threads: usize,
        /// Kernel backend that executed the datapath (`"compiled"` for the
        /// register-program row sweep, `"closure"` otherwise).
        pub backend: String,
        /// Arithmetic precision the kernel evaluated in (`"f64"` or
        /// `"f32"`).
        pub datapath: String,
        /// Requested band height in outermost-dimension rows (0 = the
        /// plan's default one-band-per-off-chip-stream sharding).
        pub chunk_rows: u64,
        /// Input index rows pulled from the row source.
        pub rows_in: u64,
        /// Input values pulled from the row source.
        pub values_in: u64,
        /// Output rows pushed to the row sink.
        pub rows_out: u64,
        /// High-water mark of resident input values (the gauge's maximum).
        pub peak_resident: u64,
        /// Planned residency bound: max over bands of halo rows x widest
        /// resident row length.
        pub resident_bound: u64,
        /// Output rows evaluated by the compiled register-program row sweep.
        pub sweep_rows: u64,
        /// Output rows executed on the batched fast path.
        pub fast_rows: u64,
        /// Output rows that fell back to per-point gathers.
        pub gather_rows: u64,
        /// End-to-end wall-clock nanoseconds.
        pub elapsed_ns: u64,
        /// Outputs per second (0.0 when below timer resolution).
        pub throughput: f64,
    }
}

record! {
    /// Counters of one pipeline stage of a session run.
    ///
    /// Exactly one of `engine` / `stream` is populated, matching the
    /// session's execution mode (in-core stages carry an
    /// [`EngineMetrics`], streaming stages a [`StreamMetrics`]).
    #[derive(Debug, Clone, PartialEq)]
    pub struct StageMetrics {
        /// The stage's kernel label (benchmark or stage name).
        pub label: String,
        /// The backend this stage resolved to ("compiled" / "closure") —
        /// per stage, because a heterogeneous chain mixes them.
        pub backend: String,
        /// Number of taps in this stage's window.
        pub window_taps: u64,
        /// The window's outermost-dimension span in rows — this stage's
        /// halo reach.
        pub window_rows: u64,
        /// This stage's own planned residency ceiling (0 when unknown):
        /// its halo-window bound under streaming, its whole input grid in
        /// core. The per-stage figure the `Residency` rule checks the
        /// stage's streaming `peak_resident` against.
        pub resident_bound: u64,
        /// In-core counters, when the stage executed in core.
        pub engine: Option<EngineMetrics>,
        /// Streaming counters, when the stage executed out of core.
        pub stream: Option<StreamMetrics>,
    }
}

record! {
    /// Counters of one iterative time-stepping run — a session that applied
    /// the *same* kernel for `steps` time steps (`Session::iterate`), or
    /// stepped until an epsilon-based convergence criterion fired
    /// (`Session::iterate_until`).
    ///
    /// The defining figures are `steps`/`converged`: how many steps
    /// actually ran (one stage block per step), and whether the per-step
    /// max-abs-delta reduction fell to `epsilon` before `max_steps`.
    /// Checked by [`crate::validate::BoundCheck::Convergence`]. The
    /// run's residency is the enclosing session's `peak_resident`
    /// against its `resident_bound`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct IterateMetrics {
        /// Time steps actually executed.
        pub steps: u64,
        /// Step budget the run was allowed (equals `steps` for fixed-count
        /// `iterate(T)` runs).
        pub max_steps: u64,
        /// Whether the convergence criterion fired before `max_steps`.
        pub converged: bool,
        /// The convergence threshold on the per-step max-abs delta (0.0 for
        /// fixed-count runs, which never test convergence).
        pub epsilon: f64,
        /// The last step's max-abs delta (0.0 for fixed-count runs).
        pub final_delta: f64,
    }
}

record! {
    /// Grid I/O accounting for a session driven through streaming
    /// endpoints: how input values reached the engine (slices of a mapped
    /// `.sgrid` payload vs copies pulled through a row source) and whether
    /// the sink was finalized (flushed/synced).
    ///
    /// The defining claim of the mmap fast path is `values_copied == 0`
    /// with `values_mapped` covering the input. Consistency is checked by
    /// [`crate::validate::BoundCheck::GridIoConsistent`]: a run that mapped
    /// zero bytes cannot claim mapped values, mapped values cannot exceed
    /// the mapped bytes, and the sink must have been finalized.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct GridIoMetrics {
        /// Bytes of input file mapped into memory (header + payload); zero
        /// for non-mapped sources.
        pub bytes_mapped: u64,
        /// Input values consumed as slices of the mapped payload — never
        /// copied into engine buffers.
        pub values_mapped: u64,
        /// Input values copied out of the source into engine-owned buffers.
        pub values_copied: u64,
        /// Output values pushed to the sink.
        pub output_values: u64,
        /// Whether the sink's end-of-run finalization (flush and sync) ran
        /// to completion.
        pub sink_finalized: bool,
    }
}

record! {
    /// Counters of one unified session run — a temporally chained pipeline
    /// of one or more kernel stages executed through `stencil_engine`'s
    /// `Session` layer.
    ///
    /// The defining figure of a chained run is `peak_resident` against
    /// `resident_bound`: summed across stages, a streaming chain holds
    /// roughly the *sum of the stages' halo windows* resident rather than
    /// any full intermediate grid
    /// ([`crate::validate::BoundCheck::Residency`]).
    #[derive(Debug, Clone, PartialEq)]
    pub struct SessionMetrics {
        /// Execution mode (`"incore"` or `"streaming"`; reports from
        /// before the tiled mode was removed may say `"tiled"`).
        pub mode: String,
        /// Worker threads used (max across stages).
        pub threads: usize,
        /// Final-stage outputs produced.
        pub outputs: u64,
        /// Peak resident values summed across all stages.
        pub peak_resident: u64,
        /// Planned residency bound summed across all stages.
        pub resident_bound: u64,
        /// End-to-end wall-clock nanoseconds.
        pub elapsed_ns: u64,
        /// Final-stage outputs per second (0.0 when below resolution).
        pub throughput: f64,
        /// Tile plans constructed *during* execution — cache misses past
        /// the plans hoisted to session construction. A well-prepared
        /// iterate run reports 0 here.
        pub tile_plans_built: u64,
        /// Per-stage detail, pipeline order.
        pub stages: Vec<StageMetrics>,
        /// Iterative time-stepping counters, when the session ran via
        /// `iterate`/`iterate_until`.
        pub iterate: Option<IterateMetrics>,
        /// Grid I/O accounting, when the session ran through streaming
        /// endpoints (`null` for pure in-core runs).
        pub grid_io: Option<GridIoMetrics>,
    }
}

record! {
    /// Counters of one serving-front-end run — a batch of grid jobs
    /// admitted against a memory budget, dispatched across a worker pool of
    /// sessions, and (for oversized grids) sharded into halo-overlapped row
    /// bands and merged.
    ///
    /// The defining figures are `peak_resident` against
    /// `admitted_bound_peak` (the executing shards never held more resident
    /// than admission accounted for) and `outputs_produced` against
    /// `outputs_expected` (shard merge conserved every output element).
    /// Checked by [`crate::validate::BoundCheck::Residency`] and
    /// [`crate::validate::BoundCheck::OutputsComplete`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct ServiceMetrics {
        /// Worker pool size.
        pub workers: u64,
        /// Bounded-queue capacity (pending shard tasks).
        pub queue_depth: u64,
        /// Admission-control budget in resident f64 elements (0 = no
        /// budget; admission is then queue-bounded only).
        pub memory_budget: u64,
        /// Jobs offered to the front-end.
        pub jobs_submitted: u64,
        /// Jobs admitted past admission control.
        pub jobs_admitted: u64,
        /// Jobs rejected with a retry-after hint (backpressure).
        pub jobs_rejected: u64,
        /// Admitted jobs that failed with a typed engine error.
        pub jobs_failed: u64,
        /// Shard sessions executed (≥ jobs_admitted; sharded jobs run one
        /// session per row band).
        pub shards_executed: u64,
        /// High-water mark of the summed `planned_residency_bound`s of
        /// admitted, not-yet-completed jobs.
        pub admitted_bound_peak: u64,
        /// High-water mark of the summed bounds of shards concurrently
        /// *executing* — the aggregate the service actually held resident.
        pub peak_resident: u64,
        /// Shards whose observed session peak exceeded their own planned
        /// bound (0 in a correct run).
        pub shards_over_bound: u64,
        /// Output elements the admitted jobs' iteration domains promise.
        pub outputs_expected: u64,
        /// Output elements produced and merged across all shards.
        pub outputs_produced: u64,
        /// Tile plans built during shard execution (plan-cache misses past
        /// the schedules seeded from the shared cache).
        pub tile_plans_built: u64,
        /// Shared plan-cache hits across all shard lookups.
        pub plan_cache_hits: u64,
        /// Shared plan-cache misses (one per distinct plan actually built).
        pub plan_cache_misses: u64,
        /// End-to-end wall-clock nanoseconds for the batch.
        pub elapsed_ns: u64,
        /// Merged output elements per second (0.0 when below timer
        /// resolution; always finite).
        pub throughput: f64,
    }
}

record! {
    /// A complete metrics report for one named run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MetricsReport {
        /// Schema version ([`SCHEMA_VERSION`]).
        pub schema_version: u32,
        /// The kernel / benchmark name.
        pub name: String,
        /// Cycle-accurate machine counters, if a machine ran.
        pub machine: Option<MachineMetrics>,
        /// One entry per engine session the run executed, in run order.
        pub sessions: Vec<SessionMetrics>,
        /// Serving-front-end counters, if a job batch ran through the
        /// sharded multi-grid service.
        pub service: Option<ServiceMetrics>,
    }
}

impl MetricsReport {
    /// An empty report for a named run.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            name: name.into(),
            machine: None,
            sessions: Vec::new(),
            service: None,
        }
    }

    /// Renders the report as indented JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().to_json_pretty()
    }

    /// Parses a report back from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed JSON or schema mismatch: a
    /// key that is missing (at any depth) or holds the wrong type. The
    /// message names the offending key.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        Self::from_value(&Value::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_machine() -> MachineMetrics {
        MachineMetrics {
            cycles: 140,
            outputs: 80,
            iterations: 80,
            fill_latency: 27,
            steady_ii: 1.2,
            ideal_cycles: 141,
            offchip_streams: 1,
            planned_total_buffer: 24,
            min_total_buffer: 24,
            linearity_holds: true,
            chains: vec![ChainMetrics {
                array: "A".into(),
                inputs_streamed: 120,
                input_elements: 120,
                fifos: vec![
                    FifoMetrics {
                        capacity: 11,
                        high_water: 11,
                        pushes: 108,
                        pops: 97,
                        occupancy: Histogram::disabled(),
                    },
                    FifoMetrics {
                        capacity: 1,
                        high_water: 1,
                        pushes: 100,
                        pops: 99,
                        occupancy: Histogram::new(&[1, 2]),
                    },
                ],
                filters: vec![FilterMetrics {
                    forwarded: 80,
                    discarded: 40,
                    stalls: 9,
                    steady_stalls: 0,
                }],
            }],
        }
    }

    pub(crate) fn sample_service() -> ServiceMetrics {
        ServiceMetrics {
            workers: 4,
            queue_depth: 16,
            memory_budget: 100_000,
            jobs_submitted: 12,
            jobs_admitted: 10,
            jobs_rejected: 2,
            jobs_failed: 0,
            shards_executed: 18,
            admitted_bound_peak: 90_000,
            peak_resident: 64_000,
            shards_over_bound: 0,
            outputs_expected: 48_000,
            outputs_produced: 48_000,
            tile_plans_built: 0,
            plan_cache_hits: 14,
            plan_cache_misses: 4,
            elapsed_ns: 1_200_000,
            throughput: 4.0e7,
        }
    }

    #[test]
    fn report_round_trips_through_json_text() {
        let report = MetricsReport {
            schema_version: SCHEMA_VERSION,
            name: "denoise".into(),
            machine: Some(sample_machine()),
            sessions: vec![
                SessionMetrics {
                    mode: "tiled".into(),
                    threads: 2,
                    outputs: 80,
                    peak_resident: 132,
                    resident_bound: 132,
                    elapsed_ns: 81_532,
                    throughput: 981_208.3,
                    tile_plans_built: 0,
                    iterate: None,
                    grid_io: None,
                    stages: vec![StageMetrics {
                        label: "denoise".into(),
                        backend: "compiled".into(),
                        window_taps: 5,
                        window_rows: 3,
                        resident_bound: 132,
                        engine: Some(EngineMetrics {
                            outputs: 80,
                            tiles: 2,
                            threads: 2,
                            backend: "compiled".into(),
                            datapath: "f64".into(),
                            halo_elements: 132,
                            elapsed_ns: 81_532,
                            throughput: 981_208.3,
                            per_tile: vec![TileMetrics {
                                id: 0,
                                outputs: 40,
                                halo_elements: 66,
                                sweep_rows: 5,
                                fast_rows: 0,
                                gather_rows: 0,
                                elapsed_ns: 40_000,
                            }],
                        }),
                        stream: None,
                    }],
                },
                SessionMetrics {
                    mode: "streaming".into(),
                    threads: 2,
                    outputs: 60,
                    peak_resident: 138,
                    resident_bound: 138,
                    elapsed_ns: 120_330,
                    throughput: 498_628.9,
                    tile_plans_built: 0,
                    iterate: Some(IterateMetrics {
                        steps: 2,
                        max_steps: 2,
                        converged: false,
                        epsilon: 0.0,
                        final_delta: 0.0,
                    }),
                    grid_io: None,
                    stages: vec![
                        StageMetrics {
                            label: "denoise".into(),
                            backend: "compiled".into(),
                            window_taps: 5,
                            window_rows: 3,
                            resident_bound: 72,
                            engine: None,
                            stream: Some(StreamMetrics {
                                outputs: 80,
                                bands: 4,
                                threads: 2,
                                backend: "compiled".into(),
                                datapath: "f64".into(),
                                chunk_rows: 1,
                                rows_in: 12,
                                values_in: 144,
                                rows_out: 10,
                                peak_resident: 72,
                                resident_bound: 72,
                                sweep_rows: 10,
                                fast_rows: 0,
                                gather_rows: 0,
                                elapsed_ns: 60_000,
                                throughput: 1.0e6,
                            }),
                        },
                        StageMetrics {
                            label: "denoise+1".into(),
                            backend: "compiled".into(),
                            window_taps: 5,
                            window_rows: 3,
                            resident_bound: 66,
                            engine: None,
                            stream: Some(StreamMetrics {
                                outputs: 60,
                                bands: 4,
                                threads: 2,
                                backend: "compiled".into(),
                                datapath: "f64".into(),
                                chunk_rows: 1,
                                rows_in: 10,
                                values_in: 80,
                                rows_out: 8,
                                peak_resident: 66,
                                resident_bound: 66,
                                sweep_rows: 8,
                                fast_rows: 0,
                                gather_rows: 0,
                                elapsed_ns: 60_330,
                                throughput: 0.9e6,
                            }),
                        },
                    ],
                },
            ],
            service: Some(sample_service()),
        };
        let text = report.to_json();
        let back = MetricsReport::parse(&text).unwrap();
        assert_eq!(back, report);
        // And an empty report stays empty.
        let partial = MetricsReport::new("x");
        assert_eq!(MetricsReport::parse(&partial.to_json()).unwrap(), partial);
    }

    /// A report with every section and every optional record present,
    /// so its value tree holds every key of every record. A stage
    /// carries only one of `engine` / `stream`, hence one stage of each.
    fn full_report() -> MetricsReport {
        let engine = EngineMetrics {
            outputs: 80,
            tiles: 2,
            threads: 2,
            backend: "compiled".into(),
            datapath: "f64".into(),
            halo_elements: 132,
            elapsed_ns: 81_532,
            throughput: 981_208.3,
            per_tile: vec![TileMetrics {
                id: 0,
                outputs: 40,
                halo_elements: 66,
                sweep_rows: 5,
                fast_rows: 1,
                gather_rows: 1,
                elapsed_ns: 40_000,
            }],
        };
        let stream = StreamMetrics {
            outputs: 80,
            bands: 4,
            threads: 2,
            backend: "compiled".into(),
            datapath: "f32".into(),
            chunk_rows: 3,
            rows_in: 12,
            values_in: 144,
            rows_out: 10,
            peak_resident: 60,
            resident_bound: 60,
            sweep_rows: 10,
            fast_rows: 0,
            gather_rows: 0,
            elapsed_ns: 91_004,
            throughput: 879_082.5,
        };
        MetricsReport {
            schema_version: SCHEMA_VERSION,
            name: "denoise".into(),
            machine: Some(sample_machine()),
            sessions: vec![SessionMetrics {
                mode: "streaming".into(),
                threads: 2,
                outputs: 60,
                peak_resident: 192,
                resident_bound: 192,
                elapsed_ns: 120_330,
                throughput: 498_628.9,
                tile_plans_built: 0,
                stages: vec![
                    StageMetrics {
                        label: "denoise".into(),
                        backend: "compiled".into(),
                        window_taps: 5,
                        window_rows: 3,
                        resident_bound: 60,
                        engine: None,
                        stream: Some(stream),
                    },
                    StageMetrics {
                        label: "blur3x3".into(),
                        backend: "compiled".into(),
                        window_taps: 9,
                        window_rows: 3,
                        resident_bound: 132,
                        engine: Some(engine),
                        stream: None,
                    },
                ],
                iterate: Some(IterateMetrics {
                    steps: 3,
                    max_steps: 8,
                    converged: true,
                    epsilon: 1e-6,
                    final_delta: 5e-7,
                }),
                grid_io: Some(GridIoMetrics {
                    bytes_mapped: 1_176,
                    values_mapped: 144,
                    values_copied: 0,
                    output_values: 60,
                    sink_finalized: true,
                }),
            }],
            service: Some(sample_service()),
        }
    }

    /// Every copy of `v` with exactly one object key removed, at any
    /// depth, paired with the removed key.
    fn without_each_key(v: &Value) -> Vec<(String, Value)> {
        match v {
            Value::Object(fields) => {
                let mut out = Vec::new();
                for (i, (key, child)) in fields.iter().enumerate() {
                    let mut without = fields.clone();
                    without.remove(i);
                    out.push((key.clone(), Value::Object(without)));
                    for (inner, stripped) in without_each_key(child) {
                        let mut with = fields.clone();
                        with[i].1 = stripped;
                        out.push((inner, Value::Object(with)));
                    }
                }
                out
            }
            Value::Array(items) => {
                let mut out = Vec::new();
                for (i, item) in items.iter().enumerate() {
                    for (inner, stripped) in without_each_key(item) {
                        let mut with = items.clone();
                        with[i] = stripped;
                        out.push((inner, Value::Array(with)));
                    }
                }
                out
            }
            _ => Vec::new(),
        }
    }

    #[test]
    fn every_key_is_required() {
        let full = full_report().to_value();
        assert_eq!(MetricsReport::from_value(&full).unwrap(), full_report());
        let stripped = without_each_key(&full);
        // Spot-check that the walk reached into every record kind.
        for key in [
            "counts",
            "steady_stalls",
            "fifos",
            "per_tile",
            "gather_rows",
            "window_taps",
            "final_delta",
            "sink_finalized",
            "plan_cache_misses",
            "service",
        ] {
            assert!(
                stripped.iter().any(|(k, _)| k == key),
                "{key} never removed"
            );
        }
        for (key, value) in stripped {
            let err = MetricsReport::parse(&value.to_json())
                .expect_err(&format!("a report without `{key}` parsed"));
            assert!(
                err.message.contains(&format!("missing field `{key}`")),
                "removing `{key}` gave: {}",
                err.message
            );
        }
    }

    #[test]
    fn aggregates() {
        let m = sample_machine();
        assert_eq!(m.observed_total_buffer(), 12);
        assert_eq!(m.steady_stalls(), 0);
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        assert!(MetricsReport::parse("{}").is_err());
        assert!(MetricsReport::parse(r#"{"schema_version":"one"}"#).is_err());
    }
}
