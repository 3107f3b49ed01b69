//! `stencil` — command-line front end for the DAC'14 non-uniform
//! reuse-buffer accelerator flow.
//!
//! ```text
//! stencil plan     <spec.stencil>                 plan + verify optimality
//! stencil simulate <spec.stencil> [--streams K] [--metrics-out M.json]
//!                                 [--vcd OUT.vcd [--cycles N]]
//! stencil engine   <spec.stencil> [--streams K] [--threads T]
//!                                 [--kernel compiled|closure] [--crosscheck]
//!                                 [--datapath f64|f32]
//!                                 [--streaming [--chunk-rows N]] [--chain s2,s3,...]
//!                                 [--iterate T [--epsilon E]] [--metrics-out M.json]
//! stencil rtl      <spec.stencil> [--out DIR]     generate Verilog
//! stencil compare  <spec.stencil>                 vs best uniform partitioning
//! stencil report   <spec.stencil>                 full markdown design report
//! stencil suite                                   paper benchmark suite summary
//! stencil grid     pack <out.sgrid> --extents E0xE1[x...] [--seed N]
//! stencil grid     inspect <file.sgrid>           read an .sgrid header
//! stencil serve    <jobs.manifest> [--workers N] [--queue-depth N]
//!                                  [--memory-budget ELEMS] [--metrics-out M.json]
//! stencil fmt      <spec.stencil>                 canonicalize a spec file
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

mod commands;
mod spec_file;

use commands::{
    cmd_compare, cmd_engine, cmd_plan, cmd_report, cmd_rtl, cmd_serve, cmd_simulate, cmd_suite,
};
use spec_file::SpecFile;

/// Every subcommand [`run`] dispatches, in [`usage`] order.
const SUBCOMMANDS: [&str; 10] = [
    "plan", "simulate", "engine", "rtl", "compare", "report", "suite", "grid", "serve", "fmt",
];

fn usage() -> &'static str {
    "usage:\n  stencil plan     <spec.stencil>\n  stencil simulate <spec.stencil> \
     [--streams K] [--metrics-out M.json] [--vcd OUT.vcd [--cycles N]]\n  \
     stencil engine   <spec.stencil> [--streams K] [--threads T] \
     [--kernel compiled|closure] [--crosscheck] \
     [--datapath f64|f32] \
     [--streaming [--chunk-rows N]] [--chain NAME,NAME,... (suite benchmarks chain \
     their own windows)] \
     [--iterate T [--epsilon E]] [--input-grid F.sgrid] [--output-grid F.sgrid] \
     [--metrics-out M.json]\n  \
     stencil rtl      <spec.stencil> \
     [--out DIR]\n  stencil compare  <spec.stencil>\n  stencil report   <spec.stencil>\n  \
     stencil suite\n  \
     stencil grid     pack <out.sgrid> --extents E0xE1[x...] [--seed N] | \
     inspect <file.sgrid>\n  \
     stencil serve    <jobs.manifest> [--workers N] [--queue-depth N] \
     [--memory-budget ELEMS] [--metrics-out M.json]\n  \
     stencil fmt      <spec.stencil>\n\
     \nengine runs in core in one row band per off-chip stream (--streams K); \
     --streaming --chunk-rows N\nsets a band height. A serve manifest line takes \
     mode=incore or mode=streaming[:ROWS].\n\
     \nsimulate/engine/serve exit non-zero when the runtime bound validator reports\n\
     violations; pass --no-fail-on-violation to report them but exit 0.\n\
     -h/--help anywhere prints this text and exits 0."
}

/// What [`run`] hands back to `main`: the text to print plus the
/// runtime-bound validator's outcome, which decides the exit code.
struct RunOutput {
    text: String,
    violations: usize,
    fail_on_violation: bool,
}

impl From<String> for RunOutput {
    fn from(text: String) -> Self {
        RunOutput {
            text,
            violations: 0,
            fail_on_violation: true,
        }
    }
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(out) => {
            print!("{}", out.text);
            if out.violations > 0 && out.fail_on_violation {
                eprintln!(
                    "stencil: {} runtime bound violation(s); \
                     pass --no-fail-on-violation to downgrade",
                    out.violations
                );
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stencil: {e}");
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<RunOutput, commands::CmdError> {
    // Help wins wherever it appears, before any file is opened.
    if args.iter().any(|a| a == "-h" || a == "--help") {
        return Ok(RunOutput::from(format!("{}\n", usage())));
    }
    let mut it = args.into_iter();
    let cmd = it.next().ok_or("missing subcommand")?;
    // Judged before any file is read: a typo must not surface as a
    // missing or unreadable spec file.
    if !SUBCOMMANDS.contains(&cmd.as_str()) {
        return Err(format!("unknown subcommand `{cmd}`").into());
    }
    if cmd == "suite" {
        return cmd_suite().map(RunOutput::from);
    }
    if cmd == "serve" {
        return run_serve(it);
    }
    if cmd == "grid" {
        return run_grid(it);
    }
    let spec_path = it.next().ok_or("missing spec file")?;
    let text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let file = SpecFile::parse(&text).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = file.to_spec()?;

    // Trailing options.
    let mut streams = 1usize;
    let mut vcd_path: Option<PathBuf> = None;
    let mut cycles = 256usize;
    let mut out_dir = PathBuf::from("rtl_out");
    let mut threads = 0usize;
    let mut metrics_out: Option<PathBuf> = None;
    let mut streaming = false;
    let mut chunk_rows: Option<u64> = None;
    let mut backend = stencil_engine::KernelBackend::default();
    let mut datapath = stencil_engine::Datapath::default();
    let mut crosscheck = false;
    let mut chain: Vec<String> = Vec::new();
    let mut iterate: Option<usize> = None;
    let mut epsilon: Option<f64> = None;
    let mut input_grid: Option<PathBuf> = None;
    let mut output_grid: Option<PathBuf> = None;
    let mut fail_on_violation = true;
    while let Some(opt) = it.next() {
        match opt.as_str() {
            "--streams" => {
                streams = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--streams needs a count")?;
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads needs a count")?;
            }
            "--vcd" => {
                vcd_path = Some(PathBuf::from(it.next().ok_or("--vcd needs a path")?));
            }
            "--cycles" => {
                cycles = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--cycles needs a count")?;
            }
            "--out" => {
                out_dir = PathBuf::from(it.next().ok_or("--out needs a directory")?);
            }
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(
                    it.next().ok_or("--metrics-out needs a path")?,
                ));
            }
            "--streaming" => streaming = true,
            "--kernel" => {
                backend = it
                    .next()
                    .ok_or("--kernel needs `compiled` or `closure`")?
                    .parse()?;
            }
            "--crosscheck" => crosscheck = true,
            "--datapath" => {
                datapath = it
                    .next()
                    .ok_or("--datapath needs `f64` or `f32`")?
                    .parse()?;
            }
            "--chain" => {
                let names = it
                    .next()
                    .ok_or("--chain needs comma-separated stage names")?;
                chain = names
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
                if chain.is_empty() {
                    return Err("--chain needs comma-separated stage names".into());
                }
            }
            "--chunk-rows" => {
                chunk_rows = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--chunk-rows needs a row count")?,
                );
            }
            "--iterate" => {
                iterate = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .ok_or("--iterate needs a positive time-step count")?,
                );
            }
            "--epsilon" => {
                epsilon = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|e: &f64| e.is_finite() && *e >= 0.0)
                        .ok_or("--epsilon needs a finite non-negative threshold")?,
                );
            }
            "--input-grid" => {
                input_grid = Some(PathBuf::from(
                    it.next().ok_or("--input-grid needs a .sgrid path")?,
                ));
            }
            "--output-grid" => {
                output_grid = Some(PathBuf::from(
                    it.next().ok_or("--output-grid needs a .sgrid path")?,
                ));
            }
            "--no-fail-on-violation" => fail_on_violation = false,
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }

    match cmd.as_str() {
        "plan" => cmd_plan(&spec).map(RunOutput::from),
        "simulate" => {
            let trace = if vcd_path.is_some() { cycles } else { 0 };
            let (mut out, vcd, metrics, violations) = cmd_simulate(&spec, streams, trace)?;
            if let Some(path) = &metrics_out {
                out.push_str(&write_metrics(path, &metrics)?);
            }
            if let (Some(path), Some(vcd)) = (&vcd_path, vcd) {
                std::fs::write(path, vcd)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                out.push_str(&format!("VCD written to {}\n", path.display()));
            }
            Ok(RunOutput {
                text: out,
                violations,
                fail_on_violation,
            })
        }
        "engine" => {
            if epsilon.is_some() && iterate.is_none() {
                return Err("--epsilon needs --iterate to bound the step count".into());
            }
            let (mut out, metrics, violations) = cmd_engine(
                &spec,
                streams,
                threads,
                streaming,
                chunk_rows,
                backend,
                datapath,
                crosscheck,
                &chain,
                iterate,
                epsilon,
                input_grid.as_deref(),
                output_grid.as_deref(),
            )?;
            if let Some(path) = &metrics_out {
                out.push_str(&write_metrics(path, &metrics)?);
            }
            Ok(RunOutput {
                text: out,
                violations,
                fail_on_violation,
            })
        }
        "rtl" => {
            let bundle = cmd_rtl(&spec)?;
            bundle
                .write_to_dir(&out_dir)
                .map_err(|e| format!("cannot write {}: {e}", out_dir.display()))?;
            Ok(RunOutput::from(format!(
                "wrote {} Verilog files to {}\n",
                bundle.files().len(),
                out_dir.display()
            )))
        }
        "compare" => cmd_compare(&spec, &file.grid).map(RunOutput::from),
        "report" => cmd_report(&spec, &file.grid).map(RunOutput::from),
        "fmt" => Ok(RunOutput::from(file.render())),
        other => Err(format!("unknown subcommand `{other}`").into()),
    }
}

/// `stencil serve <jobs.manifest> [--workers N] [--queue-depth N]
/// [--memory-budget ELEMS] [--metrics-out M.json]
/// [--no-fail-on-violation]` — parses its own trailing options because,
/// unlike the spec-file subcommands, its positional argument is a job
/// manifest (one benchmark job per line).
fn run_serve(mut it: std::vec::IntoIter<String>) -> Result<RunOutput, commands::CmdError> {
    let manifest_path = it.next().ok_or("missing job manifest")?;
    let mut workers = 4usize;
    let mut queue_depth = 64usize;
    let mut memory_budget = 0u64;
    let mut metrics_out: Option<PathBuf> = None;
    let mut fail_on_violation = true;
    while let Some(opt) = it.next() {
        match opt.as_str() {
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--workers needs a positive count")?;
            }
            "--queue-depth" => {
                queue_depth = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--queue-depth needs a positive count")?;
            }
            "--memory-budget" => {
                memory_budget = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--memory-budget needs an element count")?;
            }
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(
                    it.next().ok_or("--metrics-out needs a path")?,
                ));
            }
            "--no-fail-on-violation" => fail_on_violation = false,
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {manifest_path}: {e}"))?;
    let (mut out, metrics, violations) = cmd_serve(&manifest, workers, queue_depth, memory_budget)?;
    if let Some(path) = &metrics_out {
        out.push_str(&write_metrics(path, &metrics)?);
    }
    Ok(RunOutput {
        text: out,
        violations,
        fail_on_violation,
    })
}

/// `stencil grid pack <out.sgrid> --extents E0xE1[x...] [--seed N]` /
/// `stencil grid inspect <file.sgrid>` — pack a deterministic grid
/// into the binary `.sgrid` format, or decode and summarize one.
fn run_grid(mut it: std::vec::IntoIter<String>) -> Result<RunOutput, commands::CmdError> {
    let action = it.next().ok_or("grid needs `pack` or `inspect`")?;
    match action.as_str() {
        "pack" => {
            let path = PathBuf::from(it.next().ok_or("grid pack needs an output path")?);
            let mut extents: Vec<u64> = Vec::new();
            let mut seed = 0x5EED_BA5E_D00Du64;
            while let Some(opt) = it.next() {
                match opt.as_str() {
                    "--extents" => {
                        let spec = it.next().ok_or("--extents needs E0xE1[x...]")?;
                        extents = spec
                            .split('x')
                            .map(|t| t.trim().parse::<u64>())
                            .collect::<Result<_, _>>()
                            .map_err(|_| format!("bad extents `{spec}`; expected E0xE1[x...]"))?;
                        if extents.contains(&0) {
                            return Err(format!("bad extents `{spec}`; zero extent").into());
                        }
                    }
                    "--seed" => {
                        seed = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or("--seed needs an integer")?;
                    }
                    other => return Err(format!("unknown option `{other}`").into()),
                }
            }
            if extents.is_empty() {
                return Err("grid pack needs --extents E0xE1[x...]".into());
            }
            commands::cmd_grid_pack(&path, &extents, seed).map(RunOutput::from)
        }
        "inspect" => {
            let path = PathBuf::from(it.next().ok_or("grid inspect needs a .sgrid path")?);
            commands::cmd_grid_inspect(&path).map(RunOutput::from)
        }
        other => Err(format!("unknown grid action `{other}`; use pack or inspect").into()),
    }
}

/// Writes a telemetry JSON report to `path`, returning the
/// confirmation line for the command output.
fn write_metrics(path: &std::path::Path, json: &str) -> Result<String, commands::CmdError> {
    std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(format!("metrics written to {}\n", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn write_spec(dir: &std::path::Path) -> PathBuf {
        let p = dir.join("denoise.stencil");
        fs::write(
            &p,
            "name denoise\ngrid 32 48\nelement_bits 16\noffset -1 0\noffset 0 -1\n\
             offset 0 0\noffset 0 1\noffset 1 0\n",
        )
        .unwrap();
        p
    }

    #[test]
    fn end_to_end_plan_and_simulate() {
        let dir = std::env::temp_dir().join("stencil_cli_test");
        fs::create_dir_all(&dir).unwrap();
        let spec = write_spec(&dir);
        let out = run(vec!["plan".into(), spec.display().to_string()])
            .unwrap()
            .text;
        assert!(out.contains("OPTIMAL"), "{out}");

        let out = run(vec![
            "simulate".into(),
            spec.display().to_string(),
            "--streams".into(),
            "2".into(),
        ])
        .unwrap();
        assert!(out.text.contains("bandwidth-limited: true"), "{}", out.text);
        assert_eq!(out.violations, 0);
        assert!(out.fail_on_violation);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_refuses_a_grid_past_64_bit_ranks_at_once() {
        let dir = std::env::temp_dir().join("stencil_cli_huge_plan_test");
        fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("huge.stencil");
        fs::write(
            &spec,
            "name huge\ngrid 9223372036854775807 10\noffset -1 0\noffset 0 0\noffset 1 0\n",
        )
        .unwrap();
        let started = std::time::Instant::now();
        let Err(err) = run(vec!["plan".into(), spec.display().to_string()]) else {
            panic!("a grid of more than 2^64 points must be refused");
        };
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "refusal took {:?}",
            started.elapsed()
        );
        assert!(
            matches!(
                err.downcast_ref::<stencil_core::PlanError>(),
                Some(stencil_core::PlanError::DomainTooLarge { .. })
            ),
            "{err}"
        );
        assert!(err.to_string().contains("more than 2^64 points"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_runs_and_verifies() {
        let dir = std::env::temp_dir().join("stencil_cli_engine_test");
        fs::create_dir_all(&dir).unwrap();
        let spec = write_spec(&dir);
        let out = run(vec![
            "engine".into(),
            spec.display().to_string(),
            "--streams".into(),
            "2".into(),
            "--threads".into(),
            "2".into(),
        ])
        .unwrap()
        .text;
        assert!(out.contains("2 band(s)"), "{out}");
        assert!(out.contains("[compiled kernel]"), "{out}");
        assert!(out.contains("verified against direct loop"), "{out}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn removed_unroll_flag_is_an_unknown_option() {
        let dir = std::env::temp_dir().join("stencil_cli_unroll_flag_test");
        fs::create_dir_all(&dir).unwrap();
        let spec = write_spec(&dir);
        let Err(err) = run(vec![
            "engine".into(),
            spec.display().to_string(),
            "--unroll".into(),
            "4".into(),
        ]) else {
            panic!("--unroll must be refused");
        };
        assert_eq!(err.to_string(), "unknown option `--unroll`");
        assert!(!usage().contains("unroll"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_kernel_flag_selects_backend_and_crosschecks() {
        let dir = std::env::temp_dir().join("stencil_cli_kernel_flag_test");
        fs::create_dir_all(&dir).unwrap();
        let spec = write_spec(&dir);
        let out = run(vec![
            "engine".into(),
            spec.display().to_string(),
            "--kernel".into(),
            "closure".into(),
            "--crosscheck".into(),
        ])
        .unwrap()
        .text;
        assert!(out.contains("[closure kernel]"), "{out}");
        assert!(out.contains("cross-check compiled vs closure"), "{out}");
        // An unknown backend is an argument error.
        assert!(run(vec![
            "engine".into(),
            spec.display().to_string(),
            "--kernel".into(),
            "simd".into(),
        ])
        .is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_streaming_flags_run_the_streaming_path() {
        let dir = std::env::temp_dir().join("stencil_cli_streaming_test");
        fs::create_dir_all(&dir).unwrap();
        let spec = write_spec(&dir);
        let out = run(vec![
            "engine".into(),
            spec.display().to_string(),
            "--streaming".into(),
            "--chunk-rows".into(),
            "3".into(),
        ])
        .unwrap();
        assert!(out.text.contains("streaming run:"), "{}", out.text);
        assert!(
            out.text.contains("verified streaming against in-core"),
            "{}",
            out.text
        );
        assert_eq!(out.violations, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_chain_flag_runs_a_pipeline() {
        let dir = std::env::temp_dir().join("stencil_cli_chain_test");
        fs::create_dir_all(&dir).unwrap();
        let spec = write_spec(&dir);
        let out = run(vec![
            "engine".into(),
            spec.display().to_string(),
            "--streaming".into(),
            "--chunk-rows".into(),
            "1".into(),
            "--chain".into(),
            "s2,s3".into(),
        ])
        .unwrap();
        assert!(
            out.text.contains("session [streaming]: 3 stage(s)"),
            "{}",
            out.text
        );
        assert!(
            out.text
                .contains("verified chained pipeline against sequential stages"),
            "{}",
            out.text
        );
        assert_eq!(out.violations, 0);
        // A bare --chain with no names is an argument error.
        assert!(run(vec![
            "engine".into(),
            spec.display().to_string(),
            "--chain".into(),
        ])
        .is_err());
        assert!(run(vec![
            "engine".into(),
            spec.display().to_string(),
            "--chain".into(),
            ",".into(),
        ])
        .is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_chain_flag_accepts_benchmark_stages() {
        let dir = std::env::temp_dir().join("stencil_cli_hetero_chain_test");
        fs::create_dir_all(&dir).unwrap();
        let spec = write_spec(&dir);
        // `blur3x3` names a suite benchmark, so the chained stage gets
        // the 9-tap 3x3 window instead of the spec's 5-point cross.
        let out = run(vec![
            "engine".into(),
            spec.display().to_string(),
            "--streaming".into(),
            "--chunk-rows".into(),
            "1".into(),
            "--chain".into(),
            "blur3x3".into(),
        ])
        .unwrap();
        assert!(
            out.text.contains("session [streaming]: 2 stage(s)"),
            "{}",
            out.text
        );
        assert!(
            out.text
                .contains("stage backends: denoise=compiled -> BLUR3X3=compiled"),
            "{}",
            out.text
        );
        assert!(out.text.contains("9-tap/3-row"), "{}", out.text);
        assert!(
            out.text
                .contains("verified chained pipeline against sequential stages"),
            "{}",
            out.text
        );
        assert_eq!(out.violations, 0);
        // A benchmark stage whose window erodes the remaining rows to
        // nothing is a clean configuration error, not a panic.
        let tiny = dir.join("tiny.stencil");
        fs::write(
            &tiny,
            "name tiny\ngrid 4 8\nelement_bits 16\noffset -1 0\noffset 0 0\noffset 1 0\n",
        )
        .unwrap();
        let e = match run(vec![
            "engine".into(),
            tiny.display().to_string(),
            "--chain".into(),
            "blur3x3,blur3x3".into(),
        ]) {
            Err(e) => e,
            Ok(_) => panic!("an over-eroding chain must be rejected"),
        };
        assert!(e.to_string().contains("zero rows"), "{e}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_iterate_flag_runs_the_time_step_ring() {
        let dir = std::env::temp_dir().join("stencil_cli_iterate_test");
        fs::create_dir_all(&dir).unwrap();
        let spec = write_spec(&dir);
        let out = run(vec![
            "engine".into(),
            spec.display().to_string(),
            "--streaming".into(),
            "--chunk-rows".into(),
            "2".into(),
            "--iterate".into(),
            "3".into(),
        ])
        .unwrap();
        assert!(
            out.text.contains("session [streaming]: 3 stage(s)"),
            "{}",
            out.text
        );
        assert!(
            out.text
                .contains("verified iterate(3) against sequential time steps"),
            "{}",
            out.text
        );
        assert_eq!(out.violations, 0);

        // Convergence mode piggybacks on --iterate as the step budget.
        let out = run(vec![
            "engine".into(),
            spec.display().to_string(),
            "--iterate".into(),
            "2".into(),
            "--epsilon".into(),
            "1e-9".into(),
        ])
        .unwrap();
        assert!(
            out.text
                .contains("convergence: NOT reached after 2 of 2 step(s)"),
            "{}",
            out.text
        );

        // Argument errors: zero steps, bare flags, epsilon without a
        // budget, NaN thresholds.
        let s = spec.display().to_string();
        assert!(run(vec![
            "engine".into(),
            s.clone(),
            "--iterate".into(),
            "0".into()
        ])
        .is_err());
        assert!(run(vec!["engine".into(), s.clone(), "--iterate".into()]).is_err());
        assert!(run(vec![
            "engine".into(),
            s.clone(),
            "--iterate".into(),
            "2".into(),
            "--epsilon".into(),
            "NaN".into(),
        ])
        .is_err());
        assert!(run(vec!["engine".into(), s, "--epsilon".into(), "0.5".into()]).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_fail_on_violation_downgrades_exit_semantics() {
        let dir = std::env::temp_dir().join("stencil_cli_violation_flag_test");
        fs::create_dir_all(&dir).unwrap();
        let spec = write_spec(&dir);
        let out = run(vec![
            "simulate".into(),
            spec.display().to_string(),
            "--no-fail-on-violation".into(),
        ])
        .unwrap();
        assert!(!out.fail_on_violation);
        // Missing operand for --chunk-rows is still an argument error.
        assert!(run(vec![
            "engine".into(),
            spec.display().to_string(),
            "--chunk-rows".into(),
        ])
        .is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_out_writes_valid_reports() {
        let dir = std::env::temp_dir().join("stencil_cli_metrics_test");
        fs::create_dir_all(&dir).unwrap();
        let spec = write_spec(&dir);

        let sim_json = dir.join("sim_metrics.json");
        let out = run(vec![
            "simulate".into(),
            spec.display().to_string(),
            "--streams".into(),
            "2".into(),
            "--metrics-out".into(),
            sim_json.display().to_string(),
        ])
        .unwrap()
        .text;
        assert!(out.contains("metrics written to"), "{out}");
        let report =
            stencil_telemetry::MetricsReport::parse(&fs::read_to_string(&sim_json).unwrap())
                .unwrap();
        assert_eq!(report.name, "denoise");
        let machine = report.machine.as_ref().unwrap();
        assert_eq!(machine.offchip_streams, 2);
        assert_eq!(stencil_telemetry::validate_report(&report), Vec::new());

        let eng_json = dir.join("engine_metrics.json");
        let out = run(vec![
            "engine".into(),
            spec.display().to_string(),
            "--streaming".into(),
            "--metrics-out".into(),
            eng_json.display().to_string(),
        ])
        .unwrap()
        .text;
        assert!(out.contains("metrics written to"), "{out}");
        let report =
            stencil_telemetry::MetricsReport::parse(&fs::read_to_string(&eng_json).unwrap())
                .unwrap();
        assert!(report.sessions[0].stages[0]
            .engine
            .as_ref()
            .unwrap()
            .throughput
            .is_finite());
        let stream = report.sessions[1].stages[0].stream.as_ref().unwrap();
        assert!(stream.peak_resident <= stream.resident_bound);
        assert_eq!(stencil_telemetry::validate_report(&report), Vec::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rtl_writes_files() {
        let dir = std::env::temp_dir().join("stencil_cli_rtl_test");
        fs::create_dir_all(&dir).unwrap();
        let spec = write_spec(&dir);
        let out_dir = dir.join("out");
        let out = run(vec![
            "rtl".into(),
            spec.display().to_string(),
            "--out".into(),
            out_dir.display().to_string(),
        ])
        .unwrap()
        .text;
        assert!(out.contains("Verilog files"), "{out}");
        assert!(out_dir.join("denoise_mem_system.v").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fmt_canonicalizes() {
        let dir = std::env::temp_dir().join("stencil_cli_fmt_test");
        fs::create_dir_all(&dir).unwrap();
        let spec = write_spec(&dir);
        let out = run(vec!["fmt".into(), spec.display().to_string()])
            .unwrap()
            .text;
        assert!(out.starts_with("name denoise\n"), "{out}");
        assert!(out.contains("element_bits 16"), "{out}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(vec![]).is_err());
        assert!(run(vec!["plan".into()]).is_err());
        assert!(run(vec!["plan".into(), "/nonexistent.stencil".into()]).is_err());
        let dir = std::env::temp_dir().join("stencil_cli_err_test");
        fs::create_dir_all(&dir).unwrap();
        let spec = write_spec(&dir);
        assert!(run(vec!["frob".into(), spec.display().to_string()]).is_err());
        assert!(run(vec![
            "plan".into(),
            spec.display().to_string(),
            "--bogus".into()
        ])
        .is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn usage_lists_every_subcommand_run_dispatches() {
        // Each subcommand with no arguments: dispatched (it may then
        // fail for want of a file), never rejected as unknown.
        for name in SUBCOMMANDS {
            let words: Vec<&str> = usage().split_whitespace().collect();
            assert!(words.windows(2).any(|w| w == ["stencil", name]), "{name}");
            if let Err(e) = run(vec![name.to_string()]) {
                let e = e.to_string();
                assert!(!e.contains("unknown subcommand"), "{name}: {e}");
            }
        }
    }

    #[test]
    fn unknown_subcommand_is_reported_before_any_file_is_read() {
        let missing = std::env::temp_dir()
            .join("stencil_cli_unknown_test")
            .join("missing.stencil");
        assert!(!missing.exists());
        for args in [vec!["bogus"], vec!["bogus", missing.to_str().unwrap()]] {
            let e = run(args.iter().map(|a| a.to_string()).collect())
                .err()
                .unwrap_or_else(|| panic!("{args:?} succeeded"));
            assert_eq!(e.to_string(), "unknown subcommand `bogus`", "{args:?}");
        }
    }

    #[test]
    fn help_flags_print_usage_and_open_no_file() {
        let dir = std::env::temp_dir().join("stencil_cli_help_test");
        let _ = fs::remove_dir_all(&dir);
        let missing = dir.join("missing.stencil").display().to_string();
        let written = dir.join("out.sgrid");
        let out_path = written.display().to_string();
        for help in ["-h", "--help"] {
            let cases: Vec<Vec<&str>> = vec![
                vec![help],
                vec!["engine", help],
                vec!["engine", &missing, help],
                vec!["plan", &missing, "--threads", help],
                vec![help, "frob"],
                vec!["serve", &missing, help],
                vec!["grid", "pack", &out_path, "--extents", "4x4", help],
            ];
            for args in cases {
                let out = run(args.iter().map(|a| a.to_string()).collect())
                    .unwrap_or_else(|e| panic!("{args:?}: {e}"));
                assert_eq!(out.text, format!("{}\n", usage()), "{args:?}");
                assert_eq!(out.violations, 0);
            }
        }
        // Nothing was read or written: the directory was never created.
        assert!(!dir.exists());
    }

    #[test]
    fn grid_pack_and_inspect_round_trip() {
        let dir = std::env::temp_dir().join("stencil_cli_grid_cmd_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.sgrid");
        let out = run(vec![
            "grid".into(),
            "pack".into(),
            path.display().to_string(),
            "--extents".into(),
            "6x9".into(),
            "--seed".into(),
            "42".into(),
        ])
        .unwrap()
        .text;
        assert!(out.contains("packed 54 values"), "{out}");
        let out = run(vec![
            "grid".into(),
            "inspect".into(),
            path.display().to_string(),
        ])
        .unwrap()
        .text;
        assert!(out.contains("sgrid v1"), "{out}");
        assert!(out.contains("extents [6, 9]"), "{out}");

        assert!(run(vec!["grid".into()]).is_err());
        assert!(run(vec!["grid".into(), "frob".into()]).is_err());
        assert!(run(vec![
            "grid".into(),
            "pack".into(),
            path.display().to_string(),
            "--extents".into(),
            "6x0".into(),
        ])
        .is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
