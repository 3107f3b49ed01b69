//! Emits `BENCH_2.json`: the instrumented-DENOISE telemetry report the
//! CI bench-smoke job publishes and gates on.
//!
//! Runs the DENOISE benchmark twice — cycle-accurately on the machine
//! with occupancy sampling enabled, and natively on the in-core
//! engine — then validates every paper bound against the live counters
//! (Eq. 2 capacity tightness, the Section 2.3 minimum-buffer bound,
//! II = 1, stream conservation) and that every number in the report is
//! finite. Exits nonzero on any violation, so a regression in either
//! substrate fails the pipeline.
//!
//! Usage: `bench2_telemetry [--out OUT.json]` (default: `BENCH_2.json`
//! at the workspace root; a leading positional `.json` path is still
//! accepted as OUT).

use std::process::ExitCode;

use stencil_bench::scaled_extents;
use stencil_core::MemorySystemPlan;
use stencil_engine::{InputGrid, Session, SessionKernel};
use stencil_kernels::denoise;
use stencil_sim::Machine;
use stencil_telemetry::{validate_report, MetricsReport};

fn main() -> ExitCode {
    let out_path = match stencil_bench::bench_args("BENCH_2.json") {
        Ok((out, _)) => out,
        Err(e) => {
            eprintln!("bench2_telemetry: {e}");
            return ExitCode::FAILURE;
        }
    };
    match build_report() {
        Ok(report) => {
            let violations = validate_report(&report);
            let json = report.to_json();
            if let Err(e) = std::fs::write(&out_path, &json) {
                eprintln!("bench2_telemetry: cannot write {out_path}: {e}");
                return ExitCode::FAILURE;
            }
            let machine = report.machine.as_ref().expect("machine section");
            let engine = report.sessions[0].stages[0]
                .engine
                .as_ref()
                .expect("engine section");
            println!(
                "wrote {out_path}: {} outputs in {} cycles (machine), {:.0} elem/s (engine)",
                machine.outputs, machine.cycles, engine.throughput
            );
            if violations.is_empty() {
                println!("runtime bound checks: all passed");
                ExitCode::SUCCESS
            } else {
                eprintln!("runtime bound checks: {} FAILED", violations.len());
                for v in &violations {
                    eprintln!("  violation: {v}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench2_telemetry: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Plans, simulates, and engine-executes scaled DENOISE, returning the
/// combined telemetry report.
fn build_report() -> Result<MetricsReport, Box<dyn std::error::Error>> {
    let bench = denoise();
    let extents = scaled_extents(&bench, 60_000);
    let spec = bench.spec_for(&extents)?;
    let plan = MemorySystemPlan::generate(&spec)?;

    let mut machine = Machine::new(&plan)?;
    machine.enable_occupancy_sampling();
    machine.run(1_u64 << 34)?;

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
    let compute = stencil_kernels::default_compute();
    let run = Session::new(&plan)
        .kernel(SessionKernel::Closure(&compute))
        .run(&input)?;

    let mut report = MetricsReport::new(spec.name());
    report.machine = Some(machine.metrics());
    report.sessions.push(run.report.metrics());
    Ok(report)
}
