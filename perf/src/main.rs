//! `perf`: the stencil engine's end-to-end and per-layer benchmark.
//!
//! ```text
//! perf [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--out PATH]
//! perf --compare A1.json,A2.json[,...] B1.json,B2.json[,...]
//! ```
//!
//! Each workload runs in fresh child processes of this binary, one at a
//! time and each pinned to one CPU: nine that only set up and run a
//! first job (the `setup_s` samples), then one that warms up and runs
//! jobs back to back for the run length. Untraced runs print the end-to-end metrics; `--trace`
//! runs print the per-layer metrics and write their spans to
//! `target/perf/trace-<workload>.json`. Every run writes its result,
//! with the environment it ran in, to `target/perf/result.json` (or
//! `--out`), and the last line of standard output is a one-line JSON
//! summary. The exit code is non-zero when any output was wrong.

mod affinity;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde::json::{object, FromValue, ToValue, Value};
use stats::{median, percentile, rel_spread};
use trace::Tracer;
use workloads::{Ctx, Outcome, Phase, END_TO_END, LAYERS, WORKLOADS};

/// Where results, traces and grid files go, relative to the working
/// directory.
const OUT_DIR: &str = "target/perf";

/// Fresh processes whose set-up time makes up `setup_s`.
const SETUP_RUNS: usize = 9;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
    child: Option<Phase>,
}

fn parse_args(it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        out: None,
        compare: None,
        child: None,
    };
    let mut it = it.peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}` (known: {WORKLOADS:?})"));
                }
                a.workloads.push(w);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            // `--trace` alone, or `--trace 0|1` as benchmark runners pass it.
            "--trace" => {
                a.trace = it.peek().map(String::as_str) != Some("0");
                if matches!(it.peek().map(String::as_str), Some("0" | "1")) {
                    it.next();
                }
            }
            "--out" => a.out = Some(value("a path")?.into()),
            "--compare" => {
                a.compare = Some((value("two result files")?, value("two result files")?))
            }
            "--child" => {
                a.child = Some(match value("a phase")?.as_str() {
                    "setup" => Phase::Setup,
                    "measure" => Phase::Measure,
                    p => return Err(format!("unknown child phase `{p}`")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &args.compare {
        compare(a, b)
    } else if let Some(phase) = args.child {
        child(&args, phase).map(|()| true)
    } else {
        parent(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The parent and its children read and write grid files here.
fn ctx(args: &Args) -> Ctx {
    Ctx {
        seed: args.seed,
        seconds: args.seconds,
        small: false,
        dir: Path::new(OUT_DIR).join("grids"),
    }
}

/// A child process: runs one workload phase and prints its outcome as
/// the last line of standard output.
fn child(args: &Args, phase: Phase) -> Result<(), String> {
    let [workload] = args.workloads.as_slice() else {
        return Err("a child runs exactly one workload".into());
    };
    let ctx = ctx(args);
    let pinned_cpu = affinity::pin_to_one_cpu();
    if pinned_cpu.is_none() {
        eprintln!("perf: cannot pin to one CPU; measuring unpinned");
    }
    let tracer = Tracer::new(args.trace && phase == Phase::Measure);
    let mut outcome = workloads::run(workload, &ctx, phase, &tracer)?;
    outcome.pinned_cpu = pinned_cpu.map(|c| c as u64);
    if tracer.on() {
        let doc = object(vec![
            ("workload", workload.to_value()),
            ("seed", ctx.seed.to_value()),
            ("spans", tracer.to_value()),
        ]);
        write_file(
            &Path::new(OUT_DIR).join(format!("trace-{workload}.json")),
            &doc,
        )?;
    }
    println!("{}", outcome.to_value().to_json());
    Ok(())
}

fn spawn(args: &Args, phase: &str, workload: &str) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--child", phase, "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} {phase} child failed ({})",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Value::parse(line)
        .and_then(|v| Outcome::from_value(&v))
        .map_err(|e| format!("{workload} {phase} child printed no outcome: {e}"))
}

/// One metric as reported: its value and sample count.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

/// The end-to-end metrics of one untraced workload run. The timings
/// come from the measuring process and rest on its median job, because
/// neighbour load on a shared host shifts the tail and the mean of a
/// run far more than its median. `setup_s` and `peak_rss_mib` are
/// medians over the fresh set-up processes (a fresh process's high-water
/// mark after one job repeats to a fraction of a percent; the measuring
/// process's long-run mark depends on allocator retention and is
/// reported beside it as `steady_rss_mib`).
fn end_to_end(o: &Outcome, setups: &[Outcome]) -> Vec<Metric> {
    let setup_s: Vec<f64> = setups.iter().map(|s| s.setup_s).collect();
    let rss: Vec<f64> = setups.iter().map(|s| s.peak_rss_mib).collect();
    let outputs: Vec<f64> = o.outputs.iter().map(|&n| n as f64).collect();
    let p50_ms = median(&o.latency_ms);
    let n = o.latency_ms.len();
    let values = [
        (median(&outputs) / (p50_ms * 1e3), n),
        (p50_ms, n),
        (median(&setup_s), setups.len()),
        (median(&rss), setups.len()),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            unit,
            value,
            samples,
        })
        .collect()
}

/// The per-layer metrics of one traced workload run.
fn per_layer(o: &Outcome) -> Vec<Metric> {
    LAYERS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: o.layers.get(name).copied().unwrap_or(f64::NAN),
            samples: o.latency_ms.len(),
        })
        .collect()
}

fn parent(args: &Args) -> Result<bool, String> {
    let ctx = ctx(args);
    let dir = &ctx.dir;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let grid_fs = filesystem_of(dir);
    println!(
        "perf: commit {}, {} core(s), seed {}, {} s per workload, trace {}, grids in {} ({grid_fs})",
        commit(),
        workloads::cores(),
        args.seed,
        args.seconds,
        args.trace,
        dir.display()
    );

    let mut per_workload = Vec::new();
    let mut summary = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let single = args.workloads.len() == 1;
    for w in &args.workloads {
        workloads::prepare(w, &ctx)?;
        let ran = run_workload(args, w);
        workloads::cleanup(w, &ctx);
        let (o, setups) = ran?;
        let setup_attempted = setups.iter().map(|s| s.attempted).sum::<u64>();
        let setup_failed = setups.iter().map(|s| s.failed).sum::<u64>();
        let (w_attempted, w_failed) = (o.attempted + setup_attempted, o.failed + setup_failed);
        attempted += w_attempted;
        failed += w_failed;
        let metrics = if args.trace {
            per_layer(&o)
        } else {
            end_to_end(&o, &setups)
        };
        print_workload(w, &o, w_attempted, w_failed, &metrics);
        for m in &metrics {
            let key = if single {
                m.name.to_string()
            } else {
                format!("{w}.{}", m.name)
            };
            summary.push((
                key,
                object(vec![
                    ("value", m.value.to_value()),
                    ("unit", m.unit.to_value()),
                ]),
            ));
        }
        per_workload.push((
            w.clone(),
            workload_json(&o, &setups, w_attempted, w_failed, &metrics),
        ));
    }
    let _ = std::fs::remove_dir(dir);

    let correct = failed == 0;
    let doc = object(vec![
        ("commit", commit().to_value()),
        ("nproc", workloads::cores().to_value()),
        ("seed", args.seed.to_value()),
        ("seconds", args.seconds.to_value()),
        ("trace", args.trace.to_value()),
        ("grid_dir", dir.display().to_string().to_value()),
        ("grid_fs", grid_fs.to_value()),
        ("correct", correct.to_value()),
        ("workloads", Value::Object(per_workload)),
    ]);
    let out = args.out.clone().unwrap_or_else(|| {
        Path::new(OUT_DIR).join(if args.trace {
            "result-trace.json"
        } else {
            "result.json"
        })
    });
    write_file(&out, &doc)?;
    eprintln!("perf: wrote {}", out.display());
    let line = object(vec![
        ("correct", correct.to_value()),
        ("attempted", attempted.to_value()),
        ("failed", failed.to_value()),
        ("metrics", Value::Object(summary)),
    ]);
    println!("{}", line.to_json());
    Ok(correct)
}

/// The set-up children (untraced runs only), then the measuring child.
fn run_workload(args: &Args, w: &str) -> Result<(Outcome, Vec<Outcome>), String> {
    let mut setups = Vec::new();
    if !args.trace {
        for _ in 0..SETUP_RUNS {
            setups.push(spawn(args, "setup", w)?);
        }
    }
    Ok((spawn(args, "measure", w)?, setups))
}

fn workload_json(
    o: &Outcome,
    setups: &[Outcome],
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Value {
    let samples = |f: fn(&Outcome) -> f64| setups.iter().map(f).collect::<Vec<_>>().to_value();
    object(vec![
        ("jobs", o.latency_ms.len().to_value()),
        ("attempted", attempted.to_value()),
        ("failed", failed.to_value()),
        (
            "failed_share",
            (failed as f64 / attempted.max(1) as f64).to_value(),
        ),
        ("first_error", o.first_error.to_value()),
        ("bench_buffers_mib", o.bench_buffers_mib.to_value()),
        ("steady_rss_mib", o.steady_rss_mib.to_value()),
        ("pinned_cpu", o.pinned_cpu.to_value()),
        ("latency_p90_ms", percentile(&o.latency_ms, 90.0).to_value()),
        ("setup_samples_s", samples(|s| s.setup_s)),
        ("setup_rss_samples_mib", samples(|s| s.peak_rss_mib)),
        (
            "metrics",
            Value::Object(
                metrics
                    .iter()
                    .map(|m| {
                        let v = object(vec![
                            ("value", m.value.to_value()),
                            ("unit", m.unit.to_value()),
                            ("samples", m.samples.to_value()),
                        ]);
                        (m.name.to_string(), v)
                    })
                    .collect(),
            ),
        ),
        (
            "span_ms",
            Value::Object(
                o.span_ms
                    .iter()
                    .map(|(k, &(t, s))| {
                        let v = object(vec![("total", t.to_value()), ("self", s.to_value())]);
                        (k.clone(), v)
                    })
                    .collect(),
            ),
        ),
    ])
}

fn print_workload(w: &str, o: &Outcome, attempted: u64, failed: u64, metrics: &[Metric]) {
    println!(
        "{w}: {} timed job(s); {failed} failed of {attempted} attempted (failed_share {})",
        o.latency_ms.len(),
        failed as f64 / attempted.max(1) as f64
    );
    if let Some(e) = &o.first_error {
        println!("  first error: {e}");
    }
    for m in metrics {
        println!(
            "  {:<28} {:>14.6} {:<8} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  {:<28} {:>14.6} ms       (n={}, not bounded)",
        "latency_p90_ms",
        percentile(&o.latency_ms, 90.0),
        o.latency_ms.len()
    );
    println!(
        "  {:<28} {:>14.6} MiB",
        "bench_buffers_mib", o.bench_buffers_mib
    );
    println!("  {:<28} {:>14.6} MiB", "steady_rss_mib", o.steady_rss_mib);
    if !o.span_ms.is_empty() {
        println!("  span (per traced job)           total ms     self ms");
        for (name, (total, own)) in &o.span_ms {
            println!("    {name:<26} {total:>12.4} {own:>11.4}");
        }
    }
}

fn write_file(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, doc.to_json_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `git rev-parse HEAD`, or "unknown" outside a git checkout.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The filesystem type of the mount holding `dir`, from /proc/mounts.
fn filesystem_of(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Reads a result file set: paths joined by commas.
fn load_side(list: &str) -> Result<Vec<Value>, String> {
    list.split(',').map(read_json).collect()
}

/// A side's median of one metric and its spread across the side's
/// files. With fewer than two files the run-to-run spread is unknown
/// and reads as infinite, so the verdict is `unresolved`: the spread
/// within one run is far narrower than the spread between runs and
/// must not stand in for it.
fn side(files: &[Value], workload: &str, metric: &str) -> Option<(f64, f64)> {
    let values = files
        .iter()
        .map(|f| {
            f.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect::<Option<Vec<f64>>>()?;
    let spread = if values.len() < 2 {
        f64::INFINITY
    } else {
        rel_spread(&values)
    };
    Some((median(&values), spread))
}

/// The verdict on one metric: `b` against the baseline `a`.
fn verdict(a: f64, b: f64, spread: f64, bound: f64, higher_is_better: bool) -> &'static str {
    if spread > bound {
        return "unresolved";
    }
    let gain = if higher_is_better {
        b / a - 1.0
    } else {
        1.0 - b / a
    };
    if gain > bound {
        "better"
    } else if gain < -bound {
        "worse"
    } else {
        "within"
    }
}

/// `--compare`: one row per workload and end-to-end metric, judged
/// against the bounds in `BENCHMARK.json`. Each side is a
/// comma-separated set of result files; a metric whose spread across
/// either side's files is wider than its bound is `unresolved`, and so
/// is every metric of a side with a single file.
fn compare(a: &str, b: &str) -> Result<bool, String> {
    let spec = read_json("BENCHMARK.json")?;
    let (sa, sb) = (load_side(a)?, load_side(b)?);
    if sa.len() < 2 || sb.len() < 2 {
        eprintln!(
            "perf: give each side two or more result files; with one, every row is unresolved"
        );
    }
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut worse = 0;
    for w in WORKLOADS {
        for m in spec
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap_or_default()
        {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            let (Some(name), Some(bound)) = (name, bound) else {
                continue;
            };
            let (Some((va, spa)), Some((vb, spb))) = (side(&sa, w, name), side(&sb, w, name))
            else {
                continue;
            };
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            let v = verdict(va, vb, spa.max(spb), bound, higher);
            worse += usize::from(v == "worse");
            println!(
                "{w:<14} {name:<20} {va:>12.4} {vb:>12.4} {:>+8.2}% {:>6.1}%  {v}",
                (vb / va - 1.0) * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_names(section: &str) -> Vec<String> {
        let doc = read_json(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json next to perf/");
        let mut names: Vec<String> = doc
            .get(section)
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
            .collect();
        names.sort();
        names
    }

    fn sorted(metrics: &[Metric]) -> Vec<String> {
        let mut names: Vec<String> = metrics.iter().map(|m| m.name.to_string()).collect();
        names.sort();
        names
    }

    /// Every workload on shrunk grids, untraced and traced: no failed
    /// job, and exactly the metric names `BENCHMARK.json` declares.
    #[test]
    fn every_workload_runs_clean_on_small_grids() {
        let dir = std::env::temp_dir().join(format!("perf-smoke-{}", std::process::id()));
        let workload_names: Vec<String> = benchmark_names("workloads");
        let mut expected: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        expected.sort();
        assert_eq!(workload_names, expected);
        for w in WORKLOADS {
            for trace in [false, true] {
                let ctx = Ctx {
                    seed: 3,
                    seconds: 0.2,
                    small: true,
                    dir: dir.clone(),
                };
                workloads::prepare(w, &ctx).expect("inputs");
                let setup =
                    workloads::run(w, &ctx, Phase::Setup, &Tracer::new(false)).expect("setup run");
                let o = workloads::run(w, &ctx, Phase::Measure, &Tracer::new(trace))
                    .expect("measured run");
                workloads::cleanup(w, &ctx);
                assert_eq!(o.failed + setup.failed, 0, "{w}: {:?}", o.first_error);
                assert!(o.attempted > 0 && !o.latency_ms.is_empty(), "{w}");
                let metrics = if trace {
                    let m = per_layer(&o);
                    assert!(m.iter().all(|m| m.value.is_finite()), "{w}: {m:?}");
                    let share = o.layers["trace.attributed_share"];
                    assert!(share > 0.5 && share <= 1.0, "{w}: attributed {share}");
                    m
                } else {
                    let m = end_to_end(&o, &[setup]);
                    assert!(m.iter().all(|m| m.value > 0.0), "{w}: {m:?}");
                    m
                };
                let section = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(sorted(&metrics), benchmark_names(section), "{w}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verdicts_apply_bounds_and_direction() {
        assert_eq!(verdict(100.0, 95.0, 0.01, 0.1, true), "within");
        assert_eq!(verdict(100.0, 85.0, 0.01, 0.1, true), "worse");
        assert_eq!(verdict(100.0, 85.0, 0.01, 0.1, false), "better");
        assert_eq!(verdict(100.0, 50.0, 0.2, 0.1, true), "unresolved");
    }

    /// One file per side gives no run-to-run spread: unresolved, even
    /// for a change far beyond the bound.
    #[test]
    fn single_result_files_compare_as_unresolved() {
        let result = |p50: f64| {
            let text = format!(
                r#"{{"workloads": {{"warm_incore": {{"metrics": {{"latency_p50_ms": {{"value": {p50}}}}}}}}}}}"#
            );
            Value::parse(&text).expect("result parses")
        };
        let (a, b) = ([result(4.0)], [result(8.0)]);
        let (va, spa) = side(&a, "warm_incore", "latency_p50_ms").expect("side a");
        let (vb, spb) = side(&b, "warm_incore", "latency_p50_ms").expect("side b");
        assert_eq!(verdict(va, vb, spa.max(spb), 0.24, false), "unresolved");
        let (a, b) = (
            [result(4.0), result(4.1), result(4.05)],
            [result(8.0), result(8.1), result(7.9)],
        );
        let (va, spa) = side(&a, "warm_incore", "latency_p50_ms").expect("side a");
        let (vb, spb) = side(&b, "warm_incore", "latency_p50_ms").expect("side b");
        assert_eq!(verdict(va, vb, spa.max(spb), 0.24, false), "worse");
        assert!(side(&a, "warm_incore", "setup_s").is_none());
    }

    #[test]
    fn arguments_parse_in_runner_form() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let a = args("--workload hit --seed 1")
            .err()
            .expect("unknown workload");
        assert!(a.contains("unknown workload"));
        let a = args("--workload warm_incore --seed 4 --seconds 10 --trace 1").expect("parses");
        assert_eq!((a.seed, a.seconds, a.trace), (4, 10.0, true));
        assert_eq!(a.workloads, ["warm_incore"]);
        let a = args("--trace --seed 2").expect("bare --trace");
        assert!(a.trace && a.seed == 2 && a.workloads.len() == 3);
        assert!(!args("--trace 0").expect("--trace 0").trace);
    }
}
