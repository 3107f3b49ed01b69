//! Integration test: the paper's optimality bounds hold in the *live*
//! counters of every benchmark run, not just in the planner's algebra.
//!
//! For each suite benchmark (scaled so cycle-accurate simulation stays
//! fast) the machine runs with occupancy sampling on, and the telemetry
//! validator checks the full report:
//!
//! - every FIFO's occupancy high-water equals its planned Eq. 2
//!   capacity (max reuse distance between adjacent accesses),
//! - the summed steady occupancy equals the Section 2.3 minimum total
//!   buffer bound when linearity holds,
//! - zero steady-state stalls, i.e. II = 1 full pipelining,
//! - and the Appendix 9.4 bandwidth/memory tradeoff points obey the
//!   same bounds with multiple off-chip streams.

use stencil_bench::scaled_extents;
use stencil_core::MemorySystemPlan;
use stencil_engine::{ExecMode, InputGrid, Session, SessionKernel};
use stencil_kernels::{denoise, paper_suite};
use stencil_sim::Machine;
use stencil_telemetry::{validate_machine, validate_report, MachineMetrics, MetricsReport};

/// Simulates a scaled benchmark with telemetry enabled and returns the
/// machine's metrics.
fn instrumented_run(bench: &stencil_kernels::Benchmark, streams: usize) -> MachineMetrics {
    let extents = scaled_extents(bench, 6_000);
    let spec = bench.spec_for(&extents).unwrap();
    let plan = MemorySystemPlan::generate(&spec)
        .unwrap()
        .with_offchip_streams(streams)
        .unwrap();
    let mut machine = Machine::new(&plan).unwrap();
    machine.enable_occupancy_sampling();
    machine.run(1_u64 << 34).unwrap();

    let metrics = machine.metrics();
    // The validator's bounds come from the report itself; cross-check
    // its planned values against the plan that built the machine.
    let caps: Vec<u64> = metrics
        .chains
        .iter()
        .flat_map(|c| c.fifos.iter().map(|f| f.capacity))
        .collect();
    assert_eq!(caps, plan.fifo_capacities(), "{}", bench.name());
    assert_eq!(
        metrics.min_total_buffer,
        plan.min_total_size(),
        "{}",
        bench.name()
    );
    metrics
}

#[test]
fn every_benchmark_meets_the_paper_bounds_live() {
    for bench in paper_suite() {
        let metrics = instrumented_run(&bench, 1);
        let violations = validate_machine(&metrics);
        assert!(violations.is_empty(), "{}: {violations:?}", bench.name());

        // The bounds the validator certifies, restated explicitly.
        for chain in &metrics.chains {
            for fifo in &chain.fifos {
                assert_eq!(
                    fifo.high_water,
                    fifo.capacity.max(1),
                    "{}/{}: high-water must hit the Eq. 2 capacity",
                    bench.name(),
                    chain.array
                );
            }
        }
        if metrics.linearity_holds {
            let planned: u64 = metrics
                .chains
                .iter()
                .flat_map(|c| c.fifos.iter().map(|f| f.capacity))
                .sum();
            assert_eq!(
                planned,
                metrics.min_total_buffer,
                "{}: total buffering must meet the Section 2.3 minimum",
                bench.name()
            );
        }
        assert_eq!(metrics.steady_stalls(), 0, "{}: II = 1", bench.name());
    }
}

#[test]
fn tradeoff_points_meet_the_bounds_live() {
    // Appendix 9.4: trading off-chip bandwidth for on-chip memory must
    // not break capacity tightness or full pipelining.
    for streams in [2, 4] {
        let metrics = instrumented_run(&denoise(), streams);
        assert_eq!(metrics.offchip_streams, streams);
        let violations = validate_machine(&metrics);
        assert!(violations.is_empty(), "streams={streams}: {violations:?}");
        assert_eq!(metrics.steady_stalls(), 0, "streams={streams}");
    }
}

#[test]
fn combined_machine_and_engine_report_validates() {
    let bench = denoise();
    let extents = scaled_extents(&bench, 6_000);
    let spec = bench.spec_for(&extents).unwrap();
    let plan = MemorySystemPlan::generate(&spec).unwrap();

    let mut machine = Machine::new(&plan).unwrap();
    machine.enable_occupancy_sampling();
    machine.run(1_u64 << 34).unwrap();

    let in_idx = plan.input_domain().index().unwrap();
    let in_vals: Vec<f64> = (0..in_idx.len()).map(|r| r as f64 * 0.5).collect();
    let input = InputGrid::new(&in_idx, &in_vals).unwrap();
    let compute = stencil_kernels::default_compute();
    let run = Session::new(&plan)
        .kernel(SessionKernel::Closure(&compute))
        .mode(ExecMode::Tiled { tiles: 3 })
        .telemetry(spec.name())
        .run(&input)
        .unwrap();

    let mut report = MetricsReport::new(spec.name());
    report.machine = Some(machine.metrics());
    report.sessions.push(run.report.metrics());
    let violations = validate_report(&report);
    assert!(violations.is_empty(), "{violations:?}");

    // The full report survives a JSON round trip bit-for-bit.
    let reparsed = MetricsReport::parse(&report.to_json()).unwrap();
    assert_eq!(reparsed, report);
    assert!(validate_report(&reparsed).is_empty());
}
