//! # stencil-bench
//!
//! Experiment harnesses for the DAC'14 reproduction. Each table and
//! figure of the paper's evaluation has a binary that regenerates it
//! (see `src/bin/`), and the Criterion benches under `benches/` measure
//! the underlying machinery. Shared helpers live here.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::path::PathBuf;

use stencil_core::{MemorySystemPlan, StencilSpec};
use stencil_kernels::Benchmark;
use stencil_sim::{Machine, RunStats, SimError};

/// Absolute path of `name` under the workspace root (the directory
/// holding the top-level `Cargo.toml`), independent of the current
/// working directory. The bench binaries resolve their default
/// `BENCH_N.json` reports and baselines through this, so the reports
/// land in one canonical place whether a binary is launched from the
/// root, a crate directory, or a CI checkout step.
#[must_use]
pub fn workspace_path(name: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/bench -> crates
    p.pop(); // crates -> workspace root
    p.push(name);
    p.display().to_string()
}

/// Parses a bench binary's command line: `--out PATH` selects the
/// report file (default: `default_out` at the workspace root via
/// [`workspace_path`]), and a leading positional ending in `.json` is
/// still accepted as the report path for backward compatibility with
/// the original `benchN OUT.json [...]` form. Every other argument is
/// returned in order for the binary's own positionals.
///
/// # Errors
///
/// Returns a usage message when `--out` is missing its path.
pub fn parse_bench_args<I>(default_out: &str, args: I) -> Result<(String, Vec<String>), String>
where
    I: IntoIterator<Item = String>,
{
    let mut out: Option<String> = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--out" {
            out = Some(
                it.next()
                    .ok_or_else(|| "--out needs a file path".to_owned())?,
            );
        } else if out.is_none() && rest.is_empty() && arg.ends_with(".json") {
            out = Some(arg);
        } else {
            rest.push(arg);
        }
    }
    Ok((out.unwrap_or_else(|| workspace_path(default_out)), rest))
}

/// [`parse_bench_args`] applied to the process arguments.
///
/// # Errors
///
/// Returns a usage message when `--out` is missing its path.
pub fn bench_args(default_out: &str) -> Result<(String, Vec<String>), String> {
    parse_bench_args(default_out, std::env::args().skip(1))
}

/// Shrinks a benchmark's grid until it has at most `max_cells` data
/// points, preserving the aspect ratio (roughly) and dimensionality.
/// Used to keep cycle-accurate simulations fast in tests and benches.
///
/// # Panics
///
/// Panics if even the minimum viable grid exceeds `max_cells`.
#[must_use]
pub fn scaled_extents(bench: &Benchmark, max_cells: u64) -> Vec<i64> {
    let mut extents: Vec<i64> = bench.extents().to_vec();
    // Minimum extent per dimension: window span + 2 so a non-trivial
    // interior remains.
    let mins: Vec<i64> = (0..extents.len())
        .map(|d| {
            let lo = bench.window().iter().map(|f| f[d]).min().unwrap();
            let hi = bench.window().iter().map(|f| f[d]).max().unwrap();
            (hi - lo + 3).max(4)
        })
        .collect();
    loop {
        let cells: u64 = extents.iter().map(|&e| e as u64).product();
        if cells <= max_cells {
            return extents;
        }
        // Halve the largest still-shrinkable dimension.
        let d = (0..extents.len())
            .filter(|&d| extents[d] / 2 >= mins[d])
            .max_by_key(|&d| extents[d])
            .unwrap_or_else(|| {
                panic!(
                    "cannot shrink {:?} below {max_cells} cells",
                    bench.extents()
                )
            });
        extents[d] /= 2;
    }
}

/// A copy of `bench` with the same name, grid, window, closure and
/// expression but no native row body, so its compiled sweep runs the
/// register program instead. Benches use it to time the native body
/// and the register program on one kernel in one process.
#[must_use]
pub fn expression_only(bench: &Benchmark) -> Benchmark {
    let mut copy = Benchmark::new(
        bench.name(),
        bench.extents().to_vec(),
        bench.window().to_vec(),
        bench.ops(),
        bench.compute_fn(),
    )
    .with_element_bits(bench.element_bits());
    if let Some(expr) = bench.expr() {
        copy = copy.with_expr(expr.clone());
    }
    if bench.iteration_stable() {
        copy = copy.with_iteration_stable();
    }
    copy
}

/// Plans and cycle-accurately simulates a benchmark on a scaled grid.
///
/// # Errors
///
/// Propagates planning (wrapped in [`SimError::Plan`]) and simulation
/// errors.
pub fn simulate_scaled(bench: &Benchmark, max_cells: u64) -> Result<RunStats, SimError> {
    let extents = scaled_extents(bench, max_cells);
    let spec: StencilSpec = bench.spec_for(&extents)?;
    let plan = MemorySystemPlan::generate(&spec)?;
    let mut machine = Machine::new(&plan)?;
    let limit = 64 * max_cells + 100_000;
    machine.run(limit)
}

/// Simulates every benchmark of a suite in parallel (one scoped OS
/// thread per benchmark via `std::thread::scope`), each on a grid
/// scaled to at most `max_cells` points. Results come back in suite
/// order.
///
/// # Errors
///
/// Returns the first benchmark's error encountered, by suite order.
pub fn simulate_suite_parallel(
    suite: &[Benchmark],
    max_cells: u64,
) -> Result<Vec<(String, RunStats)>, SimError> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = suite
            .iter()
            .map(|bench| scope.spawn(move || simulate_scaled(bench, max_cells)))
            .collect();
        suite
            .iter()
            .zip(handles)
            .map(|(bench, h)| {
                let stats = h.join().expect("no panics in simulation threads")?;
                Ok((bench.name().to_owned(), stats))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_kernels::{paper_suite, segmentation_3d};

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn bench_args_default_lands_at_the_workspace_root() {
        let (out, rest) = parse_bench_args("BENCH_9.json", strs(&["DENOISE"])).unwrap();
        assert_eq!(out, workspace_path("BENCH_9.json"));
        assert!(out.ends_with("BENCH_9.json"));
        assert!(PathBuf::from(&out)
            .parent()
            .unwrap()
            .join("Cargo.toml")
            .exists());
        assert_eq!(rest, strs(&["DENOISE"]));
    }

    #[test]
    fn bench_args_accepts_out_flag_and_positional_json() {
        let (out, rest) = parse_bench_args(
            "BENCH_9.json",
            strs(&["--out", "x.json", "SOBEL", "base.json"]),
        )
        .unwrap();
        assert_eq!(out, "x.json");
        assert_eq!(rest, strs(&["SOBEL", "base.json"]));

        // Backward compatibility: a leading positional `.json` is OUT,
        // later `.json` positionals (e.g. a baseline) are not.
        let (out, rest) =
            parse_bench_args("BENCH_9.json", strs(&["y.json", "SOBEL", "base.json"])).unwrap();
        assert_eq!(out, "y.json");
        assert_eq!(rest, strs(&["SOBEL", "base.json"]));
    }

    #[test]
    fn expression_only_drops_just_the_native_row() {
        for b in paper_suite() {
            let copy = expression_only(&b);
            assert!(b.native_row().is_some());
            assert!(copy.native_row().is_none());
            assert_eq!(copy.name(), b.name());
            assert_eq!(copy.window(), b.window());
            assert_eq!(copy.expr(), b.expr());
            assert_eq!(copy.element_bits(), b.element_bits());
            let w: Vec<f64> = (0..b.window().len()).map(|k| k as f64 - 1.5).collect();
            assert_eq!(copy.compute(&w).to_bits(), b.compute(&w).to_bits());
        }
    }

    #[test]
    fn bench_args_rejects_a_dangling_out_flag() {
        let err = parse_bench_args("BENCH_9.json", strs(&["--out"])).unwrap_err();
        assert!(err.contains("--out"));
    }

    #[test]
    fn scaling_respects_budget() {
        for bench in paper_suite() {
            let e = scaled_extents(&bench, 10_000);
            let cells: u64 = e.iter().map(|&x| x as u64).product();
            assert!(cells <= 10_000, "{}: {:?}", bench.name(), e);
            assert_eq!(e.len(), bench.dims());
        }
    }

    #[test]
    fn scaling_is_identity_when_budget_is_large() {
        let b = segmentation_3d();
        let e = scaled_extents(&b, u64::MAX);
        assert_eq!(e, b.extents());
    }

    #[test]
    fn simulate_scaled_runs_all_benchmarks() {
        for bench in paper_suite() {
            let stats = simulate_scaled(&bench, 6_000).unwrap();
            assert!(stats.outputs > 0, "{}", bench.name());
            assert!(stats.fully_pipelined(), "{}", bench.name());
        }
    }

    #[test]
    fn parallel_suite_matches_sequential() {
        let suite = paper_suite();
        let parallel = simulate_suite_parallel(&suite, 4_000).unwrap();
        assert_eq!(parallel.len(), suite.len());
        for (bench, (name, stats)) in suite.iter().zip(&parallel) {
            assert_eq!(name, bench.name());
            let sequential = simulate_scaled(bench, 4_000).unwrap();
            assert_eq!(stats.outputs, sequential.outputs, "{name}");
            assert_eq!(stats.cycles, sequential.cycles, "{name}");
        }
    }
}
