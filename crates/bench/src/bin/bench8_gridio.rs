//! Emits `BENCH_8.json`: the zero-copy grid-I/O telemetry report the
//! CI bench-smoke job publishes and gates on.
//!
//! Packs DENOISE 768x1024 into a temporary `.sgrid` file, then:
//!
//! 1. **Ingestion microbench** — scans the full payload three ways:
//!    per-value `read_exact` on an unbuffered file (the pre-fix
//!    [`ReadSource`] behaviour), the bulk-reading buffered
//!    [`ReadSource`], and the memory-mapped [`MmapSource`]. Gates:
//!    mmap ingestion at least 2x the per-value reader *and* faster
//!    than the buffered reader.
//! 2. **End-to-end equivalence** — streams the same kernel from the
//!    in-memory slice, from [`MmapSource`], and from [`ReadSource`];
//!    all three must produce bit-identical outputs, and the mapped
//!    run's grid-io telemetry must record **zero** payload copies.
//! 3. **Validator** — every runtime bound check on the combined
//!    report must pass.
//!
//! Usage: `bench8_gridio [--out OUT.json]` (default: `BENCH_8.json`
//! at the workspace root; a leading positional `.json` path is still
//! accepted as OUT).

use std::io::{Read, Seek, SeekFrom};
use std::process::ExitCode;
use std::time::Instant;

use stencil_core::MemorySystemPlan;
use stencil_engine::{
    EngineError, ExecMode, MappedGrid, MmapSource, ReadSource, RowSource, Session, SessionKernel,
    SliceSource, VecSink,
};
use stencil_kernels::denoise;
use stencil_telemetry::{validate_report, MetricsReport};

/// DENOISE's paper problem size: the ISSUE-mandated gate geometry.
const EXTENTS: [i64; 2] = [768, 1024];

/// Values pulled per `fill_row` call during the ingestion scans.
const SCAN_CHUNK: usize = 4096;

/// Best-of iterations per ingestion method, to shed scheduler noise.
const SCAN_ITERS: usize = 3;

fn main() -> ExitCode {
    let out_path = match stencil_bench::bench_args("BENCH_8.json") {
        Ok((out, _)) => out,
        Err(e) => {
            eprintln!("bench8_gridio: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run_bench(&out_path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench8_gridio: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The pre-fix `ReadSource` behaviour, preserved as the baseline under
/// test: one `read_exact` syscall per value on an unbuffered file.
struct PerValueSource {
    file: std::fs::File,
}

impl RowSource for PerValueSource {
    fn fill_row(&mut self, len: usize, buf: &mut Vec<f64>) -> Result<(), EngineError> {
        let mut bytes = [0u8; 8];
        for _ in 0..len {
            self.file
                .read_exact(&mut bytes)
                .map_err(|e| EngineError::Source {
                    detail: format!("read failed: {e}"),
                })?;
            buf.push(f64::from_le_bytes(bytes));
        }
        Ok(())
    }
}

/// Drains `total` values from `source` in `SCAN_CHUNK` pulls and
/// returns (elapsed seconds, checksum). The checksum both defeats
/// dead-code elimination and cross-checks the three scan paths.
fn scan(source: &mut dyn RowSource, total: usize) -> Result<(f64, f64), EngineError> {
    let mut buf = Vec::with_capacity(SCAN_CHUNK);
    let mut left = total;
    let mut sum = 0.0f64;
    let start = Instant::now();
    while left > 0 {
        let n = left.min(SCAN_CHUNK);
        buf.clear();
        source.fill_row(n, &mut buf)?;
        sum += buf.iter().sum::<f64>();
        left -= n;
    }
    Ok((start.elapsed().as_secs_f64(), sum))
}

/// A buffered [`ReadSource`] positioned at the payload of `path`.
fn buffered_payload_source(
    path: &std::path::Path,
    payload_offset: u64,
) -> Result<ReadSource<std::io::BufReader<std::fs::File>>, Box<dyn std::error::Error>> {
    let mut file = std::fs::File::open(path)?;
    file.seek(SeekFrom::Start(payload_offset))?;
    Ok(ReadSource::new(std::io::BufReader::new(file)))
}

#[allow(clippy::too_many_lines)]
fn run_bench(out_path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let bench = denoise();
    let extents = EXTENTS.to_vec();
    let spec = bench.spec_for(&extents)?;
    let plan = MemorySystemPlan::generate(&spec)?;
    let in_idx = plan.input_domain().index()?;
    let bb = in_idx
        .bounding_box()
        .ok_or("empty input domain for DENOISE")?;
    let grid_extents: Vec<u64> = bb.iter().map(|&(lo, hi)| (hi - lo + 1) as u64).collect();
    let total = usize::try_from(in_idx.len())?;

    // Pack the deterministic input into a temporary .sgrid file.
    let mut state = 0x5EED_BA5E_D00Du64;
    let in_vals: Vec<f64> = (0..total)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005u64)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f64) / 256.0
        })
        .collect();
    let grid_path =
        std::env::temp_dir().join(format!("bench8_gridio_{}.sgrid", std::process::id()));
    stencil_engine::pack_grid(&grid_path, &grid_extents, &in_vals)?;
    let result = gated_run(&grid_path, &plan, &spec, &in_vals, total, out_path);
    let _ = std::fs::remove_file(&grid_path);
    result
}

/// Everything that needs the packed grid file; split out so `run_bench`
/// can delete the temporary regardless of outcome.
#[allow(clippy::too_many_lines)]
fn gated_run(
    grid_path: &std::path::Path,
    plan: &MemorySystemPlan,
    spec: &stencil_core::StencilSpec,
    in_vals: &[f64],
    total: usize,
    out_path: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let header = stencil_engine::inspect_grid(grid_path)?;
    let payload_offset = header.payload_offset() as u64;

    // --- 1. Ingestion microbench: best-of-N full-payload scans. ---
    let mut per_value = f64::INFINITY;
    let mut buffered = f64::INFINITY;
    let mut mapped = f64::INFINITY;
    let mut checksum = None;
    for _ in 0..SCAN_ITERS {
        let mut file = std::fs::File::open(grid_path)?;
        file.seek(SeekFrom::Start(payload_offset))?;
        let (t, sum) = scan(&mut PerValueSource { file }, total)?;
        per_value = per_value.min(t);
        let reference = *checksum.get_or_insert(sum);
        if sum != reference {
            return Err("per-value scan checksum diverged".into());
        }

        let mut src = buffered_payload_source(grid_path, payload_offset)?;
        let (t, sum) = scan(&mut src, total)?;
        buffered = buffered.min(t);
        if sum != reference {
            return Err("buffered scan checksum diverged".into());
        }

        let mut src = MmapSource::open(grid_path)?;
        let (t, sum) = scan(&mut src, total)?;
        mapped = mapped.min(t);
        if sum != reference {
            return Err("mmap scan checksum diverged".into());
        }
    }
    let mib = (total * 8) as f64 / (1024.0 * 1024.0);
    println!(
        "ingestion of {total} values ({mib:.1} MiB): per-value {:.1} MiB/s, \
         buffered {:.1} MiB/s, mmap {:.1} MiB/s",
        mib / per_value,
        mib / buffered,
        mib / mapped,
    );

    // --- 2. End-to-end: three sources, bit-identical outputs. ---
    let compute = stencil_kernels::default_compute();
    let streaming = ExecMode::Streaming {
        chunk_rows: Some(64),
    };

    let mut source = SliceSource::new(in_vals);
    let mut sink = VecSink::new();
    Session::new(plan)
        .kernel(SessionKernel::Closure(&compute))
        .mode(streaming)
        .threads(4)
        .run_streaming(&mut source, &mut sink)?;
    let reference_out = sink.values;

    let grid = MappedGrid::open(grid_path)?;
    let mut source = MmapSource::from_grid(grid);
    let mut sink = VecSink::new();
    let mapped_run = Session::new(plan)
        .kernel(SessionKernel::Closure(&compute))
        .mode(streaming)
        .threads(4)
        .run_streaming(&mut source, &mut sink)?;
    if sink.values != reference_out {
        return Err("mmap-backed streaming diverged from the in-memory run".into());
    }

    let mut source = buffered_payload_source(grid_path, payload_offset)?;
    let mut sink = VecSink::new();
    let read_run = Session::new(plan)
        .kernel(SessionKernel::Closure(&compute))
        .mode(streaming)
        .threads(4)
        .run_streaming(&mut source, &mut sink)?;
    if sink.values != reference_out {
        return Err("ReadSource streaming diverged from the in-memory run".into());
    }
    println!(
        "end-to-end: {} outputs bit-identical across in-memory, mmap, and buffered-read runs",
        reference_out.len()
    );

    let io = mapped_run
        .grid_io
        .clone()
        .ok_or("mapped run reported no grid-io block")?;
    println!("{io}");
    let read_io = read_run
        .grid_io
        .clone()
        .ok_or("read run reported no grid-io block")?;

    // --- 3. Report + validator. ---
    let mut report = MetricsReport::new(spec.name());
    report.sessions.push(mapped_run.metrics());
    let violations = validate_report(&report);
    let json = report.to_json();
    std::fs::write(out_path, &json).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("wrote {out_path}");

    // --- Gates. ---
    let mut failures = Vec::new();
    if mapped >= per_value / 2.0 {
        failures.push(format!(
            "mmap ingestion ({:.4}s) is not 2x the per-value reader ({:.4}s)",
            mapped, per_value
        ));
    }
    if mapped >= buffered {
        failures.push(format!(
            "mmap ingestion ({:.4}s) is not faster than the buffered reader ({:.4}s)",
            mapped, buffered
        ));
    }
    if !io.zero_copy() {
        failures.push(format!(
            "mapped run copied payload values: {} copied, {} mapped",
            io.values_copied, io.values_mapped
        ));
    }
    if !io.sink_finalized || !read_io.sink_finalized {
        failures.push("a streaming sink was not finalized".into());
    }
    if read_io.values_copied as usize != total {
        failures.push(format!(
            "read run should copy every value: {} of {total}",
            read_io.values_copied
        ));
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("  violation: {v}");
        }
        failures.push(format!("{} runtime bound violation(s)", violations.len()));
    }
    if failures.is_empty() {
        println!(
            "gates: all passed (mmap {:.1}x per-value, {:.1}x buffered, zero copies)",
            per_value / mapped,
            buffered / mapped
        );
        Ok(())
    } else {
        Err(failures.join("; ").into())
    }
}
