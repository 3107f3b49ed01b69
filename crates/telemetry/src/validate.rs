//! Runtime bound validation.
//!
//! The planner proves the paper's optimality claims statically; this
//! module re-proves them against what a run actually did. Each
//! [`BoundCheck`] names one claim, and [`validate_machine`] /
//! [`validate_report`] return every [`BoundViolation`] found (empty
//! means all bounds held).
//!
//! The checks, keyed to the paper:
//!
//! * [`BoundCheck::FifoCapacitySafe`] / [`BoundCheck::FifoCapacityTight`]
//!   — Eq. (2): each reuse FIFO's occupancy high-water mark never
//!   exceeds, and for complete runs exactly reaches, its allocated
//!   capacity `r̄(A_k → A_{k+1})` (zero-capacity FIFOs count as the
//!   single register stage the hardware allocates).
//! * [`BoundCheck::TotalBufferTight`] — the summed high-water marks
//!   equal the summed planned capacities, i.e. no allocated element
//!   went unused.
//! * [`BoundCheck::MinimumBuffer`] — §2.3: for single-stream plans
//!   where Property 3 (linearity) holds, the observed total buffering
//!   equals the minimum possible total `r̄(A_0 → A_{n-1})`.
//! * [`BoundCheck::FullyPipelined`] — §3.4: a run with zero
//!   steady-state filter stalls must meet the input-bandwidth-limited
//!   cycle bound (II = 1), and vice versa.
//! * [`BoundCheck::StreamConservation`] — each off-chip stream head
//!   walks its input domain at most once, and enough of it arrives to
//!   feed every output: `outputs ≤ streamed ≤ streams × |D_A|` per
//!   chain; a streaming stage's pulled rows carry values, and a chained
//!   streaming stage consumes exactly what its upstream stage produced.
//! * [`BoundCheck::OutputsComplete`] — the run produced exactly `|D|`
//!   outputs: machine outputs, band outputs summed per stage, stream
//!   rows reaching the sink, and the service's merged shard outputs.
//! * [`BoundCheck::Residency`] — §2.3 applied to software runs: every
//!   observed peak of resident values stays within its planned bound
//!   (each streaming stage's halo window, each session's summed stage
//!   bounds, the service's admitted bounds and memory budget).
//! * [`BoundCheck::Convergence`] — an iterative time-stepping run
//!   executed within its step budget, one stage per step, and a
//!   converged run's final max-abs delta actually fell to epsilon.
//! * [`BoundCheck::GridIoConsistent`] — a session's grid-I/O block is
//!   internally consistent: mapped values imply mapped bytes and fit
//!   within them, and the output sink was finalized (flushed).
//! * [`BoundCheck::Admission`] — every job the service was offered was
//!   either admitted or rejected.
//! * [`BoundCheck::Finite`] — the serialized report contains no NaN or
//!   infinity (JSON cannot represent them).

use serde::json::ToValue;

use crate::schema::{
    EngineMetrics, GridIoMetrics, IterateMetrics, MachineMetrics, MetricsReport, ServiceMetrics,
    SessionMetrics, StageMetrics, StreamMetrics,
};

/// The individual claims the validator checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundCheck {
    /// Eq. (2) safety: FIFO high-water mark ≤ allocated capacity.
    FifoCapacitySafe,
    /// Eq. (2) tightness: FIFO high-water mark = allocated capacity.
    FifoCapacityTight,
    /// Σ high-water = Σ planned capacity (no over-allocation).
    TotalBufferTight,
    /// §2.3 minimum total buffer bound met exactly.
    MinimumBuffer,
    /// Zero steady-state stalls ⇔ cycles within the bandwidth bound.
    FullyPipelined,
    /// Per chain, `outputs ≤ streamed ≤ streams × |D_A|`; streamed rows
    /// carry values, and chained streaming stages hand every produced
    /// value downstream.
    StreamConservation,
    /// Outputs equal the iteration-domain size.
    OutputsComplete,
    /// Observed peak resident values ≤ the planned bound (Sec. 2.3
    /// reuse window), for every stage, session and the service.
    Residency,
    /// Iterative time-stepping: steps stayed within the budget, one
    /// stage ran per step, and a converged run's final delta fell to
    /// epsilon.
    Convergence,
    /// Grid I/O accounting is internally consistent: a run that mapped
    /// zero bytes claims no mapped values, mapped values fit within the
    /// mapped bytes (8 bytes per f64), and the sink was finalized
    /// (flushed/synced) — unfinalized sinks may have lost tail rows.
    GridIoConsistent,
    /// Serving front-end: admitted + rejected jobs = submitted jobs.
    Admission,
    /// Sweep-row tallies agree with the reported kernel backend (only
    /// the `"compiled"` backend may report vectorized sweep rows), and
    /// each stage ran the backend it declares.
    BackendConsistent,
    /// No NaN/infinity anywhere in the report.
    Finite,
}

impl core::fmt::Display for BoundCheck {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            Self::FifoCapacitySafe => "fifo-capacity-safe (Eq. 2)",
            Self::FifoCapacityTight => "fifo-capacity-tight (Eq. 2)",
            Self::TotalBufferTight => "total-buffer-tight",
            Self::MinimumBuffer => "minimum-buffer (Sec. 2.3)",
            Self::FullyPipelined => "fully-pipelined (II = 1)",
            Self::StreamConservation => "stream-conservation",
            Self::OutputsComplete => "outputs-complete",
            Self::Residency => "residency (Sec. 2.3)",
            Self::Convergence => "convergence",
            Self::GridIoConsistent => "grid-io-consistent",
            Self::Admission => "admission",
            Self::BackendConsistent => "backend-consistent",
            Self::Finite => "finite",
        };
        f.write_str(name)
    }
}

/// One failed bound check, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundViolation {
    /// Which claim failed.
    pub check: BoundCheck,
    /// Where in the report it failed (e.g. `chain "in" fifo 2`).
    pub location: String,
    /// Human-readable expected-vs-observed detail.
    pub detail: String,
}

impl core::fmt::Display for BoundViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} at {}: {}", self.check, self.location, self.detail)
    }
}

fn violation(
    out: &mut Vec<BoundViolation>,
    check: BoundCheck,
    location: impl Into<String>,
    detail: String,
) {
    out.push(BoundViolation {
        check,
        location: location.into(),
        detail,
    });
}

/// Checks every machine-level bound. An incomplete run (fewer outputs
/// than iterations, e.g. a `--cycles`-capped simulation) skips the
/// tightness checks — a partial run may legitimately not have filled
/// its FIFOs — but still enforces the safety ones.
#[must_use]
pub fn validate_machine(m: &MachineMetrics) -> Vec<BoundViolation> {
    let mut v = Vec::new();
    let complete = m.outputs == m.iterations;

    if !complete {
        violation(
            &mut v,
            BoundCheck::OutputsComplete,
            "machine",
            format!("produced {} of {} outputs", m.outputs, m.iterations),
        );
    }

    let mut observed_total = 0u64;
    let mut planned_total = 0u64;
    for chain in &m.chains {
        for (k, fifo) in chain.fifos.iter().enumerate() {
            let loc = format!("chain {:?} fifo {k}", chain.array);
            // The hardware promotes capacity-0 FIFOs to one register.
            let cap = fifo.capacity.max(1);
            observed_total += fifo.high_water;
            planned_total += cap;
            if fifo.high_water > cap {
                violation(
                    &mut v,
                    BoundCheck::FifoCapacitySafe,
                    &loc,
                    format!("high water {} exceeds capacity {cap}", fifo.high_water),
                );
            } else if complete && fifo.high_water < cap {
                violation(
                    &mut v,
                    BoundCheck::FifoCapacityTight,
                    &loc,
                    format!(
                        "high water {} never reached capacity {cap}",
                        fifo.high_water
                    ),
                );
            }
            if fifo.pops > fifo.pushes {
                violation(
                    &mut v,
                    BoundCheck::StreamConservation,
                    &loc,
                    format!("popped {} of {} pushed", fifo.pops, fifo.pushes),
                );
            }
        }
        if complete {
            // Each off-chip stream head walks the input domain at most
            // once, so streamed <= streams x |D_A|. The head stops as
            // soon as the last output fires, leaving trailing elements
            // no window needs unread — but every output has a distinct
            // maximal input tap, so at least `outputs` elements must
            // have been delivered. Chains with no off-chip feed at all
            // (fully forwarded) stream nothing.
            let hi = chain.input_elements * m.offchip_streams as u64;
            let lo = m.outputs.min(hi);
            let ok = chain.inputs_streamed == 0 && chain.input_elements == 0
                || (lo..=hi).contains(&chain.inputs_streamed);
            if !ok {
                violation(
                    &mut v,
                    BoundCheck::StreamConservation,
                    format!("chain {:?}", chain.array),
                    format!(
                        "streamed {} elements, expected {lo}..={hi} ({} stream(s) x {})",
                        chain.inputs_streamed, m.offchip_streams, chain.input_elements
                    ),
                );
            }
        }
    }

    if complete && observed_total != planned_total {
        violation(
            &mut v,
            BoundCheck::TotalBufferTight,
            "machine",
            format!(
                "summed high water {observed_total} != summed planned capacity {planned_total}"
            ),
        );
    }

    // §2.3: with one stream and Property 3 holding, the plan — and
    // therefore the observed steady occupancy — sits exactly on the
    // minimum-buffer bound. Promoted register stages (capacity 0 → 1)
    // are excluded from the planned total by `min_total_buffer`'s
    // definition, so compare against the unpromoted plan figure.
    if complete && m.linearity_holds && m.offchip_streams == 1 {
        let unpromoted: u64 = m
            .chains
            .iter()
            .flat_map(|c| c.fifos.iter())
            .map(|f| f.capacity)
            .sum();
        if unpromoted != m.min_total_buffer {
            violation(
                &mut v,
                BoundCheck::MinimumBuffer,
                "machine",
                format!(
                    "planned total buffer {unpromoted} != minimum bound {}",
                    m.min_total_buffer
                ),
            );
        }
    }

    // II = 1: zero steady-state stalls and meeting the bandwidth-
    // limited cycle bound must agree.
    if complete {
        let steady = m.steady_stalls();
        let within_bound = m.cycles <= m.ideal_cycles;
        if steady == 0 && !within_bound {
            violation(
                &mut v,
                BoundCheck::FullyPipelined,
                "machine",
                format!(
                    "no steady-state stalls but {} cycles exceed the bandwidth bound {}",
                    m.cycles, m.ideal_cycles
                ),
            );
        }
        if steady > 0 && within_bound {
            violation(
                &mut v,
                BoundCheck::FullyPipelined,
                "machine",
                format!("{steady} steady-state stall cycles yet the run met the bandwidth bound"),
            );
        }
    }

    v
}

/// Checks the one claim every peak ≤ bound comparison makes
/// ([`BoundCheck::Residency`], Sec. 2.3): `peak` resident values at
/// `loc` stay within `bound`, called `bound_name` in the detail.
fn residency(v: &mut Vec<BoundViolation>, loc: &str, peak: u64, bound_name: &str, bound: u64) {
    if peak > bound {
        violation(
            v,
            BoundCheck::Residency,
            loc,
            format!("peak {peak} values exceeds the {bound_name} {bound}"),
        );
    }
}

/// Checks the kernel a stage block reports it ran: only the compiled
/// backend owns the vectorized row sweep
/// ([`BoundCheck::BackendConsistent`]).
fn check_kernel(backend: &str, sweep_rows: u64, loc: &str, v: &mut Vec<BoundViolation>) {
    if backend != "compiled" && sweep_rows > 0 {
        violation(
            v,
            BoundCheck::BackendConsistent,
            loc,
            format!("backend {backend:?} reports {sweep_rows} swept rows"),
        );
    }
}

/// Checks that `stage` ran the backend it declares: its `block`
/// (`"engine"` / `"stream"`) report ran `ran`
/// ([`BoundCheck::BackendConsistent`]).
fn check_declared(
    stage: &StageMetrics,
    block: &str,
    ran: &str,
    loc: &str,
    v: &mut Vec<BoundViolation>,
) {
    if ran != stage.backend {
        violation(
            v,
            BoundCheck::BackendConsistent,
            loc,
            format!(
                "stage declares backend {:?} but its {block} report ran {ran:?}",
                stage.backend
            ),
        );
    }
}

/// Checks a whole report: machine bounds (when present), every
/// session's stages, the service's admission claims, and finiteness of
/// every number in the serialized form.
#[must_use]
pub fn validate_report(report: &MetricsReport) -> Vec<BoundViolation> {
    let mut v = report
        .machine
        .as_ref()
        .map_or_else(Vec::new, validate_machine);
    if let Some(path) = report.to_value().find_non_finite() {
        violation(
            &mut v,
            BoundCheck::Finite,
            path,
            "non-finite number in report".to_string(),
        );
    }
    for (k, s) in report.sessions.iter().enumerate() {
        validate_session(k, s, &mut v);
    }
    if let Some(s) = &report.service {
        validate_service(s, &mut v);
    }
    v
}

/// Checks a serving front-end's admission-control claims: the executing
/// shards' aggregate resident high-water stays within the admitted
/// bound sum, the admitted bound sum stays within the memory budget, no
/// shard exceeded its own planned bound, shard merge conserved every
/// output element, and every submitted job was admitted or rejected.
fn validate_service(s: &ServiceMetrics, v: &mut Vec<BoundViolation>) {
    residency(
        v,
        "service",
        s.peak_resident,
        "admitted bound sum",
        s.admitted_bound_peak,
    );
    if s.memory_budget > 0 {
        residency(
            v,
            "service admitted bound",
            s.admitted_bound_peak,
            "memory budget",
            s.memory_budget,
        );
    }
    if s.shards_over_bound > 0 {
        violation(
            v,
            BoundCheck::Residency,
            "service",
            format!(
                "{} shard(s) exceeded their own planned residency bound",
                s.shards_over_bound
            ),
        );
    }
    // Shard-merge conservation only holds for a clean batch: a failed
    // job legitimately produces fewer outputs than it promised.
    if s.jobs_failed == 0 && s.outputs_produced != s.outputs_expected {
        violation(
            v,
            BoundCheck::OutputsComplete,
            "service",
            format!(
                "shards produced {} outputs but admitted jobs promised {}",
                s.outputs_produced, s.outputs_expected
            ),
        );
    }
    if s.jobs_admitted.checked_add(s.jobs_rejected) != Some(s.jobs_submitted) {
        violation(
            v,
            BoundCheck::Admission,
            "service",
            format!(
                "admission arithmetic broken: {} admitted + {} rejected != {} submitted",
                s.jobs_admitted, s.jobs_rejected, s.jobs_submitted
            ),
        );
    }
}

/// Checks session `k`: its peak stays within its own bound and within
/// the sum of its per-stage bounds, every stage block holds its claims
/// ([`check_engine`], [`check_stream`]), adjacent streaming stages
/// conserve the values flowing between them, and the iterate and
/// grid-I/O blocks (when present) are consistent.
fn validate_session(k: usize, s: &SessionMetrics, v: &mut Vec<BoundViolation>) {
    let loc = format!("session {k}");
    residency(v, &loc, s.peak_resident, "session bound", s.resident_bound);
    // When every stage declares a bound, the session peak must also fit
    // under their sum (the stage-wise Sec. 2.3 decomposition of the
    // whole-pipeline bound).
    if !s.stages.is_empty() && s.stages.iter().all(|st| st.resident_bound > 0) {
        let summed = s
            .stages
            .iter()
            .try_fold(0u64, |acc, st| acc.checked_add(st.resident_bound));
        match summed {
            Some(summed) => residency(v, &loc, s.peak_resident, "sum of per-stage bounds", summed),
            None => violation(
                v,
                BoundCheck::Residency,
                &loc,
                "per-stage residency bounds overflow u64 when summed".to_string(),
            ),
        }
    }
    let mut upstream: Option<&StreamMetrics> = None;
    for (i, stage) in s.stages.iter().enumerate() {
        let loc = format!("session {k} stage {i} ({:?})", stage.label);
        if let Some(e) = &stage.engine {
            check_engine(e, stage, &loc, v);
        }
        if let Some(sm) = &stage.stream {
            check_stream(sm, stage, &loc, v);
        }
        // A chained streaming stage consumes exactly what its upstream
        // stage produced — no intermediate grid materializes, so any
        // mismatch means rows leaked or were fabricated between stages.
        if let (Some(prev), Some(cur)) = (upstream, &stage.stream) {
            if cur.values_in != prev.outputs {
                violation(
                    v,
                    BoundCheck::StreamConservation,
                    &loc,
                    format!(
                        "stage consumed {} values but its upstream stage produced {}",
                        cur.values_in, prev.outputs
                    ),
                );
            }
        }
        upstream = stage.stream.as_ref();
    }
    if let Some(it) = &s.iterate {
        validate_iterate(it, s.stages.len(), &format!("session {k} iterate"), v);
    }
    if let Some(io) = &s.grid_io {
        validate_grid_io(io, &format!("session {k} grid_io"), v);
    }
}

/// Checks an in-core stage block: its band outputs sum to the run's
/// total ([`BoundCheck::OutputsComplete`]), and it ran a well-formed
/// kernel on the backend the stage declares.
fn check_engine(e: &EngineMetrics, stage: &StageMetrics, loc: &str, v: &mut Vec<BoundViolation>) {
    let tile_outputs: u64 = e.per_tile.iter().map(|t| t.outputs).sum();
    if !e.per_tile.is_empty() && tile_outputs != e.outputs {
        violation(
            v,
            BoundCheck::OutputsComplete,
            loc,
            format!(
                "tile outputs sum to {tile_outputs}, run reports {}",
                e.outputs
            ),
        );
    }
    check_declared(stage, "engine", &e.backend, loc, v);
    let sweep: u64 = e.per_tile.iter().map(|t| t.sweep_rows).sum();
    check_kernel(&e.backend, sweep, loc, v);
}

/// Checks a streaming stage block: only one band's halo window of input
/// values was ever resident, within both the stream's own bound and the
/// stage's declared one ([`BoundCheck::Residency`]); pulled rows carried
/// values; output rows carried every output; and it ran a well-formed
/// kernel on the backend the stage declares.
fn check_stream(s: &StreamMetrics, stage: &StageMetrics, loc: &str, v: &mut Vec<BoundViolation>) {
    residency(
        v,
        loc,
        s.peak_resident,
        "halo-window bound",
        s.resident_bound,
    );
    if stage.resident_bound > 0 {
        residency(
            v,
            loc,
            s.peak_resident,
            "declared per-stage bound",
            stage.resident_bound,
        );
    }
    if s.rows_in > 0 && s.values_in == 0 {
        violation(
            v,
            BoundCheck::StreamConservation,
            loc,
            format!("{} rows pulled but zero values", s.rows_in),
        );
    }
    if s.outputs > 0 && s.rows_out == 0 {
        violation(
            v,
            BoundCheck::OutputsComplete,
            loc,
            format!(
                "{} outputs produced but no rows reached the sink",
                s.outputs
            ),
        );
    }
    check_declared(stage, "stream", &s.backend, loc, v);
    check_kernel(&s.backend, s.sweep_rows, loc, v);
}

/// Checks a grid-I/O block's internal consistency: mapped values imply
/// mapped bytes, the mapped values fit within the mapped byte span, and
/// the sink was finalized — the three invariants that make the
/// zero-copy claim (`values_copied == 0`) trustworthy.
fn validate_grid_io(io: &GridIoMetrics, loc: &str, v: &mut Vec<BoundViolation>) {
    if io.bytes_mapped == 0 && io.values_mapped > 0 {
        violation(
            v,
            BoundCheck::GridIoConsistent,
            loc,
            format!(
                "{} values claimed mapped with zero bytes mapped",
                io.values_mapped
            ),
        );
    }
    match io.values_mapped.checked_mul(8) {
        Some(bytes) if bytes <= io.bytes_mapped || io.values_mapped == 0 => {}
        _ => violation(
            v,
            BoundCheck::GridIoConsistent,
            loc,
            format!(
                "{} mapped values need more than the {} mapped bytes",
                io.values_mapped, io.bytes_mapped
            ),
        ),
    }
    if !io.sink_finalized {
        violation(
            v,
            BoundCheck::GridIoConsistent,
            loc,
            "sink was not finalized; tail rows may not be durable".to_string(),
        );
    }
}

/// Checks an iterative time-stepping run ([`BoundCheck::Convergence`]):
/// the executed step count stays within its budget and matches the
/// session's `stages` (one per step), and a run that claims
/// convergence actually drove its final max-abs delta down to epsilon.
/// Its residency is the session's, checked with every other session.
fn validate_iterate(it: &IterateMetrics, stages: usize, loc: &str, v: &mut Vec<BoundViolation>) {
    if it.steps == 0 || it.steps > it.max_steps {
        violation(
            v,
            BoundCheck::Convergence,
            loc,
            format!(
                "executed {} step(s) against a budget of {}",
                it.steps, it.max_steps
            ),
        );
    }
    if it.steps != stages as u64 {
        violation(
            v,
            BoundCheck::Convergence,
            loc,
            format!(
                "{} step(s) reported but {stages} stage reports present",
                it.steps
            ),
        );
    }
    if !it.epsilon.is_finite() || it.epsilon < 0.0 || !it.final_delta.is_finite() {
        violation(
            v,
            BoundCheck::Finite,
            loc,
            format!(
                "epsilon {} / final delta {} must be finite and non-negative",
                it.epsilon, it.final_delta
            ),
        );
    } else if it.converged && it.final_delta > it.epsilon {
        violation(
            v,
            BoundCheck::Convergence,
            loc,
            format!(
                "run claims convergence but the final delta {} exceeds epsilon {}",
                it.final_delta, it.epsilon
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Histogram;
    use crate::schema::{ChainMetrics, FifoMetrics, FilterMetrics, TileMetrics};

    fn clean_machine() -> MachineMetrics {
        MachineMetrics {
            cycles: 140,
            outputs: 80,
            iterations: 80,
            fill_latency: 27,
            steady_ii: 1.0,
            ideal_cycles: 141,
            offchip_streams: 1,
            planned_total_buffer: 12,
            min_total_buffer: 12,
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
                        occupancy: Histogram::disabled(),
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

    #[test]
    fn clean_run_passes() {
        assert_eq!(validate_machine(&clean_machine()), Vec::new());
    }

    #[test]
    fn overfull_fifo_is_flagged() {
        let mut m = clean_machine();
        m.chains[0].fifos[0].high_water = 12;
        let v = validate_machine(&m);
        assert!(v.iter().any(|x| x.check == BoundCheck::FifoCapacitySafe));
    }

    #[test]
    fn underfull_fifo_breaks_tightness_only_when_complete() {
        let mut m = clean_machine();
        m.chains[0].fifos[0].high_water = 7;
        let v = validate_machine(&m);
        assert!(v.iter().any(|x| x.check == BoundCheck::FifoCapacityTight));
        assert!(v.iter().any(|x| x.check == BoundCheck::TotalBufferTight));
        // A truncated run must not be punished for unfilled FIFOs...
        m.outputs = 3;
        let v = validate_machine(&m);
        assert!(!v.iter().any(|x| x.check == BoundCheck::FifoCapacityTight));
        // ...but is reported as incomplete.
        assert!(v.iter().any(|x| x.check == BoundCheck::OutputsComplete));
    }

    #[test]
    fn minimum_buffer_bound_checked_for_single_stream_linear_plans() {
        let mut m = clean_machine();
        m.min_total_buffer = 11;
        let v = validate_machine(&m);
        assert!(v.iter().any(|x| x.check == BoundCheck::MinimumBuffer));
        // Multi-stream tradeoff points trade buffer for bandwidth, so
        // the single-stream minimum no longer applies.
        m.offchip_streams = 2;
        m.chains[0].inputs_streamed = 240;
        let v = validate_machine(&m);
        assert!(!v.iter().any(|x| x.check == BoundCheck::MinimumBuffer));
    }

    #[test]
    fn steady_stalls_and_cycle_bound_must_agree() {
        let mut m = clean_machine();
        m.cycles = 500; // blew the bound with no steady stalls
        let v = validate_machine(&m);
        assert!(v.iter().any(|x| x.check == BoundCheck::FullyPipelined));
        let mut m = clean_machine();
        m.chains[0].filters[0].steady_stalls = 4; // stalled yet met bound
        let v = validate_machine(&m);
        assert!(v.iter().any(|x| x.check == BoundCheck::FullyPipelined));
    }

    #[test]
    fn stream_conservation() {
        // Fewer streamed elements than outputs: some output had no tap.
        let mut m = clean_machine();
        m.chains[0].inputs_streamed = 79;
        let v = validate_machine(&m);
        assert!(v.iter().any(|x| x.check == BoundCheck::StreamConservation));
        // More than streams x |D_A|: a head re-walked its domain.
        m.chains[0].inputs_streamed = 121;
        let v = validate_machine(&m);
        assert!(v.iter().any(|x| x.check == BoundCheck::StreamConservation));
        // An early stop that still fed every output is legitimate.
        m.chains[0].inputs_streamed = 110;
        assert_eq!(validate_machine(&m), Vec::new());
    }

    /// A report of one session whose one stage carries `engine` or
    /// `stream`, declaring that block's backend and its resident input
    /// (in-core halo, streaming bound) as the stage and session bound.
    fn one_stage(engine: Option<EngineMetrics>, stream: Option<StreamMetrics>) -> MetricsReport {
        let (backend, bound) = match (&engine, &stream) {
            (Some(e), _) => (e.backend.clone(), e.halo_elements),
            (None, Some(s)) => (s.backend.clone(), s.resident_bound),
            (None, None) => unreachable!("a stage carries one block"),
        };
        let mut report = MetricsReport::new("x");
        report.sessions.push(SessionMetrics {
            mode: if stream.is_some() {
                "streaming"
            } else {
                "incore"
            }
            .into(),
            threads: 1,
            outputs: 10,
            peak_resident: bound,
            resident_bound: bound,
            elapsed_ns: 5,
            throughput: 1.0,
            tile_plans_built: 0,
            stages: vec![StageMetrics {
                label: "s".into(),
                backend,
                window_taps: 5,
                window_rows: 3,
                resident_bound: bound,
                engine,
                stream,
            }],
            iterate: None,
            grid_io: None,
        });
        report
    }

    fn engine(r: &mut MetricsReport) -> &mut EngineMetrics {
        r.sessions[0].stages[0].engine.as_mut().unwrap()
    }

    fn stream(r: &mut MetricsReport) -> &mut StreamMetrics {
        r.sessions[0].stages[0].stream.as_mut().unwrap()
    }

    /// Sets the backend the one-stage report's engine block ran and the
    /// stage declares (a session stage must declare what it ran).
    fn set_backend(r: &mut MetricsReport, backend: &str) {
        r.sessions[0].stages[0].backend = backend.into();
        engine(r).backend = backend.into();
    }

    #[test]
    fn non_finite_engine_numbers_are_flagged() {
        let mut report = one_stage(
            Some(EngineMetrics {
                outputs: 10,
                tiles: 1,
                threads: 1,
                backend: "closure".into(),
                halo_elements: 12,
                elapsed_ns: 0,
                throughput: f64::INFINITY,
                per_tile: vec![TileMetrics {
                    id: 0,
                    outputs: 10,
                    halo_elements: 12,
                    sweep_rows: 0,
                    fast_rows: 2,
                    gather_rows: 0,
                    elapsed_ns: 0,
                }],
            }),
            None,
        );
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Finite));
        engine(&mut report).throughput = 1.0;
        assert_eq!(validate_report(&report), Vec::new());
    }

    #[test]
    fn closure_backend_reporting_swept_rows_is_flagged() {
        let mut report = one_stage(
            Some(EngineMetrics {
                outputs: 10,
                tiles: 1,
                threads: 1,
                backend: "closure".into(),
                halo_elements: 12,
                elapsed_ns: 5,
                throughput: 1.0,
                per_tile: vec![TileMetrics {
                    id: 0,
                    outputs: 10,
                    halo_elements: 12,
                    sweep_rows: 2,
                    fast_rows: 0,
                    gather_rows: 0,
                    elapsed_ns: 5,
                }],
            }),
            None,
        );
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::BackendConsistent));
        assert!(v[0].to_string().contains("backend-consistent"), "{}", v[0]);
        // The same tallies under the compiled backend are legitimate.
        set_backend(&mut report, "compiled");
        assert_eq!(validate_report(&report), Vec::new());
    }

    #[test]
    fn residency_bound_violation_is_flagged() {
        let mut report = one_stage(
            None,
            Some(StreamMetrics {
                outputs: 100,
                bands: 5,
                threads: 2,
                backend: "compiled".into(),
                chunk_rows: 4,
                rows_in: 12,
                values_in: 144,
                rows_out: 10,
                peak_resident: 72,
                resident_bound: 72,
                sweep_rows: 10,
                fast_rows: 0,
                gather_rows: 0,
                elapsed_ns: 1000,
                throughput: 1.0,
            }),
        );
        assert_eq!(validate_report(&report), Vec::new());
        // A closure-backend stream claiming swept rows is inconsistent.
        stream(&mut report).backend = "closure".into();
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::BackendConsistent));
        stream(&mut report).backend = "compiled".into();
        // Exceeding the halo-window bound is the core violation.
        stream(&mut report).peak_resident = 73;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Residency));
        assert!(v[0].to_string().contains("residency"), "{}", v[0]);
        // Non-finite throughput and empty-output inconsistencies too.
        let s = stream(&mut report);
        s.peak_resident = 72;
        s.throughput = f64::NAN;
        s.rows_out = 0;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Finite));
        assert!(v.iter().any(|x| x.check == BoundCheck::OutputsComplete));
    }

    fn stream_stage(
        label: &str,
        outputs: u64,
        values_in: u64,
        peak: u64,
        bound: u64,
    ) -> StageMetrics {
        StageMetrics {
            label: label.into(),
            backend: "closure".into(),
            window_taps: 5,
            window_rows: 3,
            resident_bound: bound,
            engine: None,
            stream: Some(StreamMetrics {
                outputs,
                bands: 4,
                threads: 1,
                backend: "closure".into(),
                chunk_rows: 1,
                rows_in: 10,
                values_in,
                rows_out: 8,
                peak_resident: peak,
                resident_bound: bound,
                sweep_rows: 0,
                fast_rows: 8,
                gather_rows: 0,
                elapsed_ns: 100,
                throughput: 1.0,
            }),
        }
    }

    /// A two-stage streaming session: `s1` (72 resident) feeding `s2`
    /// (66 resident), peak and bound 138.
    fn chain_session(labels: [&str; 2]) -> SessionMetrics {
        SessionMetrics {
            mode: "streaming".into(),
            threads: 1,
            outputs: 320,
            peak_resident: 138,
            resident_bound: 138,
            elapsed_ns: 250,
            throughput: 1.0,
            tile_plans_built: 0,
            stages: vec![
                stream_stage(labels[0], 396, 480, 72, 72),
                stream_stage(labels[1], 320, 396, 66, 66),
            ],
            iterate: None,
            grid_io: None,
        }
    }

    #[test]
    fn chain_residency_violations_are_flagged() {
        let mut report = MetricsReport::new("chain");
        report.sessions.push(chain_session(["s1", "s2"]));
        assert_eq!(validate_report(&report), Vec::new());
        fn st(r: &mut MetricsReport, i: usize) -> &mut StreamMetrics {
            r.sessions[0].stages[i].stream.as_mut().unwrap()
        }

        // Summed peak above the summed bound is the core violation.
        report.sessions[0].peak_resident = 139;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Residency));
        assert!(v[0].to_string().contains("residency"), "{}", v[0]);
        report.sessions[0].peak_resident = 138;

        // A single stage blowing its own bound is flagged with the
        // stage's position and label.
        st(&mut report, 1).peak_resident = 67;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Residency
            && x.location.contains("stage 1")
            && x.location.contains("s2")));
        st(&mut report, 1).peak_resident = 66;

        // A downstream stage consuming a different value count than its
        // upstream stage produced means the hand-off leaked rows.
        st(&mut report, 1).values_in = 395;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::StreamConservation
            && x.detail.contains("upstream stage produced 396")));
        st(&mut report, 1).values_in = 396;

        // Backend consistency applies per stage.
        st(&mut report, 0).sweep_rows = 3;
        let v = validate_report(&report);
        assert!(v
            .iter()
            .any(|x| x.check == BoundCheck::BackendConsistent && x.location.contains("stage 0")));
        st(&mut report, 0).sweep_rows = 0;

        // A stream peak above the stage's *declared* per-stage bound is
        // flagged even when the stream's own runtime bound kept up.
        report.sessions[0].stages[1].resident_bound = 60;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Residency
            && x.detail.contains("declared per-stage bound 60")));
        report.sessions[0].stages[1].resident_bound = 66;

        // A stage whose declared backend disagrees with what its
        // sub-report actually ran is a backend-consistency violation.
        report.sessions[0].stages[0].backend = "compiled".into();
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::BackendConsistent
            && x.location.contains("stage 0")
            && x.detail.contains("stream report ran")));
        report.sessions[0].stages[0].backend = "closure".into();

        // Non-finite session throughput is rejected like any other.
        report.sessions[0].throughput = f64::NAN;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Finite));
    }

    #[test]
    fn every_session_of_a_report_is_checked_at_its_own_position() {
        let mut report = MetricsReport::new("two");
        report.sessions.push(chain_session(["a1", "a2"]));
        report.sessions.push(chain_session(["b1", "b2"]));
        assert_eq!(validate_report(&report), Vec::new());
        // Session 1's first stage holds one value more than its window.
        report.sessions[1].stages[0]
            .stream
            .as_mut()
            .unwrap()
            .peak_resident = 73;
        let v = validate_report(&report);
        assert!(!v.is_empty());
        for x in &v {
            assert_eq!(x.check, BoundCheck::Residency, "{x}");
            assert!(x.location.starts_with("session 1 stage 0 "), "{x}");
        }
    }

    #[test]
    fn iterate_residency_violations_are_flagged() {
        let mut report = MetricsReport::new("iterate");
        report.sessions.push(SessionMetrics {
            mode: "streaming".into(),
            threads: 1,
            outputs: 320,
            peak_resident: 138,
            resident_bound: 138,
            elapsed_ns: 250,
            throughput: 1.0,
            tile_plans_built: 0,
            stages: vec![
                stream_stage("j@t1", 396, 480, 72, 72),
                stream_stage("j@t2", 320, 396, 66, 66),
            ],
            iterate: Some(IterateMetrics {
                steps: 2,
                max_steps: 2,
                converged: false,
                epsilon: 0.0,
                final_delta: 0.0,
            }),
            grid_io: None,
        });
        assert_eq!(validate_report(&report), Vec::new());
        fn it(r: &mut MetricsReport) -> &mut IterateMetrics {
            r.sessions[0].iterate.as_mut().unwrap()
        }

        // A peak above the planned T×halo budget is the core violation.
        report.sessions[0].peak_resident = 139;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Residency));
        assert!(v[0].to_string().contains("residency"), "{}", v[0]);
        report.sessions[0].peak_resident = 138;

        // Step count must stay within the budget and match the stages.
        it(&mut report).max_steps = 1;
        let v = validate_report(&report);
        assert!(v
            .iter()
            .any(|x| x.check == BoundCheck::Convergence && x.detail.contains("budget")));
        it(&mut report).max_steps = 2;
        it(&mut report).steps = 3;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.detail.contains("stage reports present")));
        it(&mut report).steps = 2;

        // Claimed convergence needs the delta at or below epsilon.
        it(&mut report).converged = true;
        it(&mut report).epsilon = 1e-6;
        it(&mut report).final_delta = 1e-3;
        let v = validate_report(&report);
        assert!(
            v.iter()
                .any(|x| x.check == BoundCheck::Convergence
                    && x.detail.contains("claims convergence"))
        );
        it(&mut report).final_delta = 1e-9;
        assert_eq!(validate_report(&report), Vec::new());

        // A negative epsilon can never be a meaningful threshold.
        it(&mut report).epsilon = -1.0;
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Finite));
    }

    #[test]
    fn in_core_session_stage_backend_is_checked() {
        let mut report = MetricsReport::new("chain");
        report.sessions.push(SessionMetrics {
            mode: "incore".into(),
            threads: 1,
            outputs: 10,
            peak_resident: 12,
            resident_bound: 12,
            elapsed_ns: 50,
            throughput: 1.0,
            tile_plans_built: 0,
            iterate: None,
            grid_io: None,
            stages: vec![StageMetrics {
                label: "s1".into(),
                backend: "compiled".into(),
                window_taps: 5,
                window_rows: 3,
                resident_bound: 12,
                engine: Some(EngineMetrics {
                    outputs: 10,
                    tiles: 1,
                    threads: 1,
                    backend: "closure".into(),
                    halo_elements: 12,
                    elapsed_ns: 50,
                    throughput: 1.0,
                    per_tile: vec![TileMetrics {
                        id: 0,
                        outputs: 10,
                        halo_elements: 12,
                        sweep_rows: 4,
                        fast_rows: 0,
                        gather_rows: 0,
                        elapsed_ns: 50,
                    }],
                }),
                stream: None,
            }],
        });
        let v = validate_report(&report);
        assert!(v
            .iter()
            .any(|x| x.check == BoundCheck::BackendConsistent && x.location.contains("stage 0")));
        engine(&mut report).backend = "compiled".into();
        assert_eq!(validate_report(&report), Vec::new());
    }

    #[test]
    fn tile_output_sum_must_match_run_total() {
        let report = one_stage(
            Some(EngineMetrics {
                outputs: 11,
                tiles: 1,
                threads: 1,
                backend: "closure".into(),
                halo_elements: 12,
                elapsed_ns: 5,
                throughput: 1.0,
                per_tile: vec![TileMetrics {
                    id: 0,
                    outputs: 10,
                    halo_elements: 12,
                    sweep_rows: 0,
                    fast_rows: 2,
                    gather_rows: 0,
                    elapsed_ns: 5,
                }],
            }),
            None,
        );
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::OutputsComplete));
    }

    fn clean_service() -> crate::schema::ServiceMetrics {
        crate::schema::ServiceMetrics {
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
    fn clean_service_report_validates() {
        let mut report = MetricsReport::new("service");
        report.service = Some(clean_service());
        assert_eq!(validate_report(&report), vec![]);
    }

    #[test]
    fn service_peak_over_admitted_bound_is_flagged() {
        let mut report = MetricsReport::new("service");
        let mut s = clean_service();
        s.peak_resident = s.admitted_bound_peak + 1;
        report.service = Some(s);
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Residency));
    }

    #[test]
    fn service_admission_over_budget_is_flagged() {
        let mut report = MetricsReport::new("service");
        let mut s = clean_service();
        s.admitted_bound_peak = s.memory_budget + 1;
        s.peak_resident = s.memory_budget + 1;
        report.service = Some(s);
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Residency));
        // An unbudgeted service (0 = unlimited) skips only that check.
        let mut s = clean_service();
        s.memory_budget = 0;
        let mut report = MetricsReport::new("service");
        report.service = Some(s);
        assert_eq!(validate_report(&report), vec![]);
    }

    #[test]
    fn service_output_conservation_is_checked() {
        let mut report = MetricsReport::new("service");
        let mut s = clean_service();
        s.outputs_produced = s.outputs_expected - 1;
        report.service = Some(s);
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::OutputsComplete));
        // ...but a batch with failed jobs may legitimately come up short.
        let mut s = clean_service();
        s.outputs_produced = s.outputs_expected - 1;
        s.jobs_failed = 1;
        let mut report = MetricsReport::new("service");
        report.service = Some(s);
        assert_eq!(validate_report(&report), vec![]);
    }

    #[test]
    fn service_admission_arithmetic_is_checked() {
        let mut report = MetricsReport::new("service");
        let mut s = clean_service();
        s.jobs_rejected = 0; // 10 admitted + 0 rejected != 12 submitted
        report.service = Some(s);
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Admission));
    }

    #[test]
    fn service_throughput_must_be_finite() {
        let mut report = MetricsReport::new("service");
        let mut s = clean_service();
        s.throughput = f64::INFINITY;
        report.service = Some(s);
        let v = validate_report(&report);
        assert!(v.iter().any(|x| x.check == BoundCheck::Finite));
    }
}
