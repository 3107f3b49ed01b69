//! Emits `BENCH_3.json`: the streaming-engine telemetry report the CI
//! bench-smoke job publishes and gates on.
//!
//! Runs scaled DENOISE twice — in-core on the engine
//! and out-of-core through the bounded-memory streaming path with
//! 64-row bands — then checks the two agree bit-for-bit, validates
//! every runtime bound against the live counters (including the
//! streaming residency bound `peak_resident <= resident_bound`), and
//! exits nonzero on any violation so a regression fails the pipeline.
//!
//! Usage: `bench3_streaming [--out OUT.json]` (default: `BENCH_3.json`
//! at the workspace root; a leading positional `.json` path is still
//! accepted as OUT).

use std::process::ExitCode;

use stencil_bench::scaled_extents;
use stencil_core::MemorySystemPlan;
use stencil_engine::{ExecMode, InputGrid, Session, SessionKernel, SliceSource, VecSink};
use stencil_kernels::denoise;
use stencil_telemetry::{validate_report, MetricsReport};

fn main() -> ExitCode {
    let out_path = match stencil_bench::bench_args("BENCH_3.json") {
        Ok((out, _)) => out,
        Err(e) => {
            eprintln!("bench3_streaming: {e}");
            return ExitCode::FAILURE;
        }
    };
    match build_report() {
        Ok(report) => {
            let violations = validate_report(&report);
            let json = report.to_json();
            if let Err(e) = std::fs::write(&out_path, &json) {
                eprintln!("bench3_streaming: cannot write {out_path}: {e}");
                return ExitCode::FAILURE;
            }
            let stage = |k: usize| &report.sessions[k].stages[0];
            let engine = stage(0).engine.as_ref().expect("engine section");
            let stream = stage(1).stream.as_ref().expect("stream section");
            println!(
                "wrote {out_path}: {} outputs, {:.0} elem/s in-core vs {:.0} elem/s streaming, \
                 peak resident {} of {} values",
                stream.outputs,
                engine.throughput,
                stream.throughput,
                stream.peak_resident,
                stream.resident_bound
            );
            let over_bound = stream.peak_resident > stream.resident_bound;
            if over_bound {
                eprintln!(
                    "residency bound EXCEEDED: peak {} > bound {}",
                    stream.peak_resident, stream.resident_bound
                );
            }
            if violations.is_empty() && !over_bound {
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
            eprintln!("bench3_streaming: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Plans scaled DENOISE, runs it in-core and streaming, cross-checks
/// the outputs, and returns the combined telemetry report.
fn build_report() -> Result<MetricsReport, Box<dyn std::error::Error>> {
    let bench = denoise();
    let extents = scaled_extents(&bench, 60_000);
    let spec = bench.spec_for(&extents)?;
    let plan = MemorySystemPlan::generate(&spec)?;

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

    let mut source = SliceSource::new(&in_vals);
    let mut sink = VecSink::new();
    let streamed = Session::new(&plan)
        .kernel(SessionKernel::Closure(&compute))
        .mode(ExecMode::Streaming {
            chunk_rows: Some(64),
        })
        .threads(4)
        .run_streaming(&mut source, &mut sink)?;
    if sink.values != run.outputs {
        return Err("streaming outputs diverged from the in-core engine".into());
    }

    let mut report = MetricsReport::new(spec.name());
    report.sessions.push(run.report.metrics());
    report.sessions.push(streamed.metrics());
    Ok(report)
}
