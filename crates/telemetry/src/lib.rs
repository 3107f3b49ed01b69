//! # stencil-telemetry
//!
//! Observability for the reproduced microarchitecture: lightweight
//! metric primitives ([`Counter`], [`HighWater`], [`Histogram`]), a
//! stable JSON schema for run metrics ([`MetricsReport`]), and a
//! validation layer ([`validate`]) that checks the paper's optimality
//! claims against *live* counters instead of only static plan numbers:
//!
//! * **Eq. (2) sizing is safe and tight** — the occupancy high-water
//!   mark of reuse FIFO `k` never exceeds, and actually reaches, its
//!   allocated maximum reuse distance `r̄(A_k → A_{k+1})`.
//! * **The linearity lower bound (§2.3) is met** — summed steady-state
//!   occupancy equals the minimum total buffer size
//!   `r̄(A_0 → A_{n-1})` for single-stream plans where Property 3
//!   holds.
//! * **Full pipelining (II = 1)** — zero steady-state filter stalls
//!   implies the run finished within the input-bandwidth-limited cycle
//!   bound.
//! * **Residency (§2.3)** — every software run's peak of resident
//!   values stays within its planned bound: each stage of each session
//!   in the report's `sessions` list, each session as a whole, and the
//!   serving front-end.
//!
//! Serialization goes through the vendored `serde` JSON data model
//! ([`serde::json::Value`]); each schema record is declared once and
//! its codec is generated from that declaration. Schema v4
//! ([`SCHEMA_VERSION`]) requires every key: an absent section is
//! written as `null`, and [`MetricsReport::parse`] rejects a report
//! that omits any key, naming it. Every schema type round-trips
//! value → text → value losslessly, and [`validate::validate_report`]
//! rejects reports containing non-finite numbers (which JSON cannot
//! represent).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod metric;
mod schema;
pub mod validate;

pub use metric::{Counter, HighWater, Histogram};
pub use schema::{
    ChainMetrics, EngineMetrics, FifoMetrics, FilterMetrics, GridIoMetrics, IterateMetrics,
    MachineMetrics, MetricsReport, ServiceMetrics, SessionMetrics, StageMetrics, StreamMetrics,
    TileMetrics, SCHEMA_VERSION,
};
pub use validate::{validate_machine, validate_report, BoundCheck, BoundViolation};
