//! The shared per-row executor behind every engine path.
//!
//! The session's in-core tiled modes and its bounded-memory streaming
//! mode ([`crate::ExecMode`]) reduce to
//! the same inner problem: given a contiguous run of iteration rows and
//! a resident window of the input stream, produce one output per
//! iteration. This module is that single integration point — the
//! rank-window view, the batched-tap predicate, and the row loop with
//! its three row classes:
//!
//! * **sweep rows** — every tap is one contiguous resident run *and*
//!   the kernel runs the compiled backend: the row evaluates through
//!   the vectorized [`UnrolledProgram`] register sweep — `U` adjacent
//!   rows per dispatch when they line up, the single-output program
//!   otherwise (every row at the default `U = 1`);
//! * **fast rows** — taps are contiguous and resident but the kernel is
//!   a closure (or the `Closure` backend is forced onto the scalar
//!   bytecode): a batched per-element loop gathers each window from tap
//!   bases;
//! * **gather rows** — some tap is non-contiguous or non-resident: the
//!   defensive per-point fallback with exact error reporting.

use std::sync::Mutex;
use std::time::Instant;

use stencil_core::{MemorySystemPlan, Tile, TilePlan};
use stencil_polyhedral::{DomainIndex, Point, Row};

use crate::compile::{CompiledKernel, Datapath};
use crate::error::EngineError;
use crate::input::InputGrid;
use crate::report::{RunReport, TileReport};
use crate::unroll::UnrolledProgram;

/// Locks `m`, recovering from poisoning: a panicked worker already
/// surfaces as [`EngineError::WorkerPanic`] through the scope join, and
/// the guarded collections stay consistent (push/pop only), so a
/// poisoned lock must not turn into a second panic on the submit path.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Consumes `m`, recovering its value even when poisoned (see
/// [`lock_recover`]).
fn into_inner_recover<T>(m: Mutex<T>) -> T {
    m.into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How the row executor evaluates the kernel datapath. One enum serves
/// every backend: only `Program` row-sweeps; the other two evaluate
/// per element.
// One value per stage, built once per run: the inline program's size
// costs nothing, and boxing it would only add an indirection per row.
#[allow(clippy::large_enum_variant)]
pub(crate) enum RowKernel<'a> {
    /// A window closure (the `Closure` backend, or an expression-less
    /// stage): always per element, always f64.
    Closure(&'a (dyn Fn(&[f64]) -> f64 + Sync)),
    /// Compiled bytecode forced onto the per-element path (the
    /// `Closure` backend selected with a compiled kernel) — used by
    /// cross-checks to isolate the sweep from the bytecode semantics.
    Bytecode(&'a CompiledKernel, Datapath),
    /// The compiled sweep: grouped runs of adjacent aligned rows
    /// evaluate the multi-output `group` program (one dispatch per U
    /// rows), every other contiguous row the single-output program,
    /// and gather rows the scalar bytecode in the program's datapath.
    Program(&'a CompiledKernel, UnrolledProgram),
}

impl RowKernel<'_> {
    /// Evaluates one window in declared offset order.
    fn eval_window(&self, window: &[f64]) -> f64 {
        match self {
            RowKernel::Closure(c) => c(window),
            RowKernel::Bytecode(ck, dp) => ck.eval_in(*dp, window),
            RowKernel::Program(ck, up) => ck.eval_in(up.datapath(), window),
        }
    }

    /// Output rows per grouped dispatch — `1` off the compiled sweep.
    pub(crate) fn unroll(&self) -> usize {
        match self {
            RowKernel::Program(_, up) => up.unroll(),
            _ => 1,
        }
    }

    /// The arithmetic precision this kernel evaluates in — reports
    /// derive their `datapath` field from here.
    pub(crate) fn datapath(&self) -> Datapath {
        match self {
            RowKernel::Closure(_) => Datapath::F64,
            RowKernel::Bytecode(_, dp) => *dp,
            RowKernel::Program(_, up) => up.datapath(),
        }
    }
}

/// A rank-windowed view of the input stream: `vals` holds the values of
/// lexicographic ranks `[base, base + vals.len())` of the full input
/// domain indexed by `idx`. The in-core paths use a full window
/// (`base == 0`, every rank resident); the streaming path keeps only
/// the current band's halo rows resident.
pub(crate) struct RankWindow<'a> {
    /// Index of the *full* input domain (rank queries stay global).
    pub idx: &'a DomainIndex,
    /// Values of the resident rank range, in rank order.
    pub vals: &'a [f64],
    /// Global rank of `vals[0]`.
    pub base: u64,
}

impl RankWindow<'_> {
    /// Window offset of global rank `b`, if `b..b + len` is resident.
    fn resident_run(&self, b: u64, len: usize) -> Option<usize> {
        let off = usize::try_from(b.checked_sub(self.base)?).ok()?;
        let end = off.checked_add(len)?;
        (end <= self.vals.len()).then_some(off)
    }

    /// The resident value at point `p`: `Err(false)` if `p` is outside
    /// the input domain, `Err(true)` if in-domain but not resident.
    fn value_at(&self, p: &Point) -> Result<f64, bool> {
        if !self.idx.contains(p) {
            return Err(false);
        }
        self.resident_run(self.idx.rank_lt(p), 1)
            .map(|off| self.vals[off])
            .ok_or(true)
    }
}

/// Row tallies of [`execute_rows`], by row class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RowStats {
    /// Rows evaluated by the compiled register-program sweep.
    pub sweep: u64,
    /// Rows on the batched per-element fast path.
    pub fast: u64,
    /// Rows that fell back to per-point gathers.
    pub gather: u64,
}

impl RowStats {
    /// Accumulates another tally (e.g. across parallel row chunks).
    pub fn merge(&mut self, other: RowStats) {
        self.sweep += other.sweep;
        self.fast += other.fast;
        self.gather += other.gather;
    }
}

/// Runs the iteration rows `rows` (a contiguous slice of one band's
/// index, whose `base` ranks start at `out_base`) against the resident
/// input window, writing `out` (one slot per iteration).
///
/// Per output row, every window tap becomes a base rank into the flat
/// input stream; resident contiguous rows then either sweep the
/// compiled register program over the whole row or run the batched
/// per-element loop, while rows whose taps are not contiguous (or not
/// fully resident) fall back to per-point gathers.
pub(crate) fn execute_rows(
    rows: &[Row],
    out_base: u64,
    offsets: &[Point],
    win: &RankWindow<'_>,
    kernel: &RowKernel<'_>,
    out: &mut [f64],
) -> Result<RowStats, EngineError> {
    let n = offsets.len();
    let mut window = vec![0.0f64; n];
    let mut bases = vec![0usize; n];
    let mut ubases: Vec<usize> = Vec::new();
    let mut stats = RowStats::default();
    let program = match kernel {
        RowKernel::Program(_, up) => Some(up),
        _ => None,
    };

    let mut i = 0usize;
    while i < rows.len() {
        // Grouped unrolled dispatch: U adjacent rows with identical
        // extent, stepping +1 in the unroll axis, writing contiguous
        // output — one multi-output register sweep covers them all.
        if let Some(up) = program.filter(|up| up.unroll() > 1) {
            if let Some(len) = unroll_group_bases(rows, i, up, offsets, win, &mut ubases) {
                let start = rows[i]
                    .base
                    .checked_sub(out_base)
                    .and_then(|s| usize::try_from(s).ok())
                    .ok_or_else(|| inconsistent_row(&rows[i], out_base))?;
                let group_len = len * up.unroll();
                if let Some(group_out) = out.get_mut(start..).and_then(|o| o.get_mut(..group_len)) {
                    up.sweep_group(&ubases, win.vals, group_out, len);
                    stats.sweep += up.unroll() as u64;
                    i += up.unroll();
                    continue;
                }
            }
        }

        let row = &rows[i];
        i += 1;
        let len = usize::try_from(row.len())
            .map_err(|_| EngineError::DomainTooLarge { points: row.len() })?;
        let start = row
            .base
            .checked_sub(out_base)
            .and_then(|s| usize::try_from(s).ok())
            .ok_or_else(|| inconsistent_row(row, out_base))?;
        let out_row = out
            .get_mut(start..)
            .and_then(|o| o.get_mut(..len))
            .ok_or_else(|| inconsistent_row(row, out_base))?;

        let mut all_fast = true;
        for (k, f) in offsets.iter().enumerate() {
            let start = tap_point(&row.prefix, row.lo, f);
            let end = tap_point(&row.prefix, row.hi, f);
            match contiguous_base(win.idx, &start, &end, len).and_then(|b| win.resident_run(b, len))
            {
                Some(off) => bases[k] = off,
                None => {
                    all_fast = false;
                    break;
                }
            }
        }

        if all_fast {
            if let Some(up) = program {
                // Single-row sweep (every row at U=1; a group remainder
                // or alignment miss above it): each tap is a
                // column-shifted contiguous slice, and the single-output
                // register program keeps the datapath identical to the
                // group.
                stats.sweep += 1;
                up.sweep_single(&bases, win.vals, out_row, &mut ubases);
            } else {
                stats.fast += 1;
                for (t, slot) in out_row.iter_mut().enumerate() {
                    for (w, &b) in window.iter_mut().zip(&bases) {
                        *w = win.vals[b + t];
                    }
                    *slot = kernel.eval_window(&window);
                }
            }
        } else {
            // Defensive fallback: gather taps point by point. A convex
            // input domain keeps every shifted row contiguous, so
            // plan-derived inputs never land here; custom input indexes
            // that break contiguity still execute correctly (or report
            // the exact missing point).
            stats.gather += 1;
            for (t, slot) in out_row.iter_mut().enumerate() {
                let t_inner = i64::try_from(t)
                    .map_err(|_| EngineError::DomainTooLarge { points: row.len() })?;
                let i = row.prefix.pushed(row.lo + t_inner);
                for (w, f) in window.iter_mut().zip(offsets) {
                    let h = i + *f;
                    *w = match win.value_at(&h) {
                        Ok(v) => v,
                        Err(false) => {
                            return Err(EngineError::MissingInput {
                                point: h.to_string(),
                            })
                        }
                        Err(true) => {
                            return Err(EngineError::InconsistentIndex {
                                detail: format!(
                                    "tap {h} is in the input domain but outside the \
                                     resident window [{}, {})",
                                    win.base,
                                    win.base + win.vals.len() as u64
                                ),
                            })
                        }
                    };
                }
                *slot = kernel.eval_window(&window);
            }
        }
    }

    Ok(stats)
}

/// Probes whether rows `i..i + U` form an unrollable group: identical
/// inner extent, prefixes equal except the last coordinate stepping
/// +1 per row, contiguous output ranks, and every shared tap of the
/// group resident as one contiguous run. On success fills `ubases`
/// with the window offset of each group utap and returns the row
/// length; any miss returns `None` and the caller falls back to
/// single-row dispatch for `rows[i]`.
fn unroll_group_bases(
    rows: &[Row],
    i: usize,
    up: &UnrolledProgram,
    offsets: &[Point],
    win: &RankWindow<'_>,
    ubases: &mut Vec<usize>,
) -> Option<usize> {
    let group = rows.get(i..i + up.unroll())?;
    let first = &group[0];
    let len = usize::try_from(first.len()).ok()?;
    if len == 0 {
        return None;
    }
    let pdims = first.prefix.dims();
    if pdims == 0 {
        return None;
    }
    for (d, row) in group.iter().enumerate().skip(1) {
        let step = u64::try_from(d).ok()?;
        if row.lo != first.lo
            || row.hi != first.hi
            || row.base != first.base.checked_add(step.checked_mul(len as u64)?)?
        {
            return None;
        }
        if (0..pdims - 1).any(|c| row.prefix[c] != first.prefix[c])
            || row.prefix[pdims - 1] != first.prefix[pdims - 1].checked_add(d as i64)?
        {
            return None;
        }
    }
    ubases.clear();
    for &(u, k) in up.group_utaps() {
        let row = &group[usize::from(u)];
        let f = &offsets[usize::from(k)];
        let start = tap_point(&row.prefix, row.lo, f);
        let end = tap_point(&row.prefix, row.hi, f);
        let b = contiguous_base(win.idx, &start, &end, len)?;
        ubases.push(win.resident_run(b, len)?);
    }
    Some(len)
}

/// Window offsets in the user's declared reference order — the order
/// the kernel consumes (`FilterPlan.user_index` inverts the chain's
/// descending sort).
pub(crate) fn plan_offsets(plan: &MemorySystemPlan) -> Vec<Point> {
    let mut offsets = vec![Point::zero(plan.iteration_domain().dims()); plan.port_count()];
    for f in plan.filters() {
        offsets[f.user_index] = f.offset;
    }
    offsets
}

/// Rejects a compiled kernel whose tap count does not match the plan's
/// window.
pub(crate) fn check_kernel_window(
    plan: &MemorySystemPlan,
    kernel: &CompiledKernel,
) -> Result<(), EngineError> {
    if kernel.taps() != plan.port_count() {
        return Err(EngineError::KernelCompile {
            detail: format!(
                "kernel compiled for {} taps but the plan's window has {} points",
                kernel.taps(),
                plan.port_count()
            ),
        });
    }
    Ok(())
}

/// Resolves the worker count: `0` requests the machine's parallelism,
/// and no run uses more workers than it has bands (or rows).
pub(crate) fn threads_for(requested: usize, tiles: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let t = if requested == 0 { hw } else { requested };
    t.clamp(1, tiles.max(1))
}

/// The in-core tiled executor: validates the input, splits the output
/// buffer into disjoint per-band slices, and runs the bands on a scoped
/// worker pool pulling from a shared queue. This is the single real
/// implementation behind the session's `InCore`/`Tiled` modes.
pub(crate) fn execute_tiled(
    plan: &MemorySystemPlan,
    tile_plan: &TilePlan,
    input: &InputGrid<'_>,
    kernel: &RowKernel<'_>,
    threads: usize,
    backend: crate::compile::KernelBackend,
) -> Result<(Vec<f64>, RunReport), EngineError> {
    let expected = input.index().len();
    let declared = plan
        .input_domain()
        .count()
        .map_err(|e| EngineError::Plan(e.into()))?;
    if expected != declared {
        return Err(EngineError::InputSizeMismatch {
            expected: declared,
            got: expected,
        });
    }

    let offsets = plan_offsets(plan);
    let started = Instant::now();
    let total =
        usize::try_from(tile_plan.total_outputs()).map_err(|_| EngineError::DomainTooLarge {
            points: tile_plan.total_outputs(),
        })?;
    let mut outputs = vec![0.0f64; total];

    // Disjoint per-band output slices: bands are contiguous rank ranges.
    let mut work: Vec<(&Tile, &mut [f64])> = Vec::with_capacity(tile_plan.tile_count());
    let mut rest: &mut [f64] = &mut outputs;
    for tile in tile_plan.tiles() {
        let len = usize::try_from(tile.len)
            .map_err(|_| EngineError::DomainTooLarge { points: tile.len })?;
        if len > rest.len() {
            return Err(EngineError::InconsistentIndex {
                detail: format!(
                    "band {} claims {len} outputs but only {} remain unassigned",
                    tile.id,
                    rest.len()
                ),
            });
        }
        let (head, tail) = rest.split_at_mut(len);
        work.push((tile, head));
        rest = tail;
    }
    // Shared work queue; idle workers steal the next unclaimed band.
    work.reverse(); // pop() hands out bands in rank order
    let queue = Mutex::new(work);
    let results: Mutex<Vec<TileReport>> = Mutex::new(Vec::with_capacity(tile_plan.tile_count()));
    let failure: Mutex<Option<EngineError>> = Mutex::new(None);

    let worker_count = threads_for(threads, tile_plan.tile_count());
    crossbeam::scope(|s| {
        for _ in 0..worker_count {
            s.spawn(|_| loop {
                let item = lock_recover(&queue).pop();
                let Some((tile, out)) = item else { break };
                match execute_tile(tile, &offsets, input, kernel, out) {
                    Ok(report) => lock_recover(&results).push(report),
                    Err(e) => {
                        lock_recover(&failure).get_or_insert(e);
                        break;
                    }
                }
            });
        }
    })
    .map_err(|_| EngineError::WorkerPanic)?;

    if let Some(e) = into_inner_recover(failure) {
        return Err(e);
    }
    let mut per_tile = into_inner_recover(results);
    per_tile.sort_by_key(|t| t.id);

    let report = RunReport {
        outputs: tile_plan.total_outputs(),
        tiles: tile_plan.tile_count(),
        threads: worker_count,
        backend,
        unroll: kernel.unroll(),
        datapath: kernel.datapath(),
        halo_elements: per_tile.iter().map(|t| t.halo_elements).sum(),
        elapsed: started.elapsed(),
        per_tile,
    };
    Ok((outputs, report))
}

/// Runs one band against the full in-core input.
fn execute_tile(
    tile: &Tile,
    offsets: &[Point],
    input: &InputGrid<'_>,
    kernel: &RowKernel<'_>,
    out: &mut [f64],
) -> Result<TileReport, EngineError> {
    let tile_started = Instant::now();
    let idx = tile
        .iter_domain
        .index()
        .map_err(|e| EngineError::Plan(e.into()))?;
    let win = RankWindow {
        idx: input.index(),
        vals: input.values(),
        base: 0,
    };
    let stats = execute_rows(idx.rows(), 0, offsets, &win, kernel, out)?;

    Ok(TileReport {
        id: tile.id,
        outputs: tile.len,
        halo_elements: tile
            .halo_domain
            .count()
            .map_err(|e| EngineError::Plan(e.into()))?,
        sweep_rows: stats.sweep,
        fast_rows: stats.fast,
        gather_rows: stats.gather,
        elapsed: tile_started.elapsed(),
    })
}

/// Splits a band's iteration rows into contiguous per-worker chunks
/// writing disjoint slices of the band buffer.
pub(crate) fn execute_band_parallel(
    band_rows: &[Row],
    offsets: &[Point],
    win: &RankWindow<'_>,
    kernel: &RowKernel<'_>,
    out: &mut [f64],
    workers: usize,
) -> Result<RowStats, EngineError> {
    // Chunk boundaries in row space; output slices follow row bases.
    let per = band_rows.len().div_ceil(workers);
    let mut chunks: Vec<(&[Row], &mut [f64])> = Vec::with_capacity(workers);
    let mut rest_rows = band_rows;
    let mut rest_out: &mut [f64] = out;
    let mut consumed = 0u64;
    while !rest_rows.is_empty() {
        let take = per.min(rest_rows.len());
        let (head, tail) = rest_rows.split_at(take);
        let chunk_vals: u64 = head.iter().map(Row::len).sum();
        let chunk_len = usize::try_from(chunk_vals)
            .map_err(|_| EngineError::DomainTooLarge { points: chunk_vals })?;
        if head.first().map(|r| r.base) != Some(consumed) || chunk_len > rest_out.len() {
            return Err(EngineError::InconsistentIndex {
                detail: "band iteration rows are not in contiguous rank order".into(),
            });
        }
        let (o_head, o_tail) = rest_out.split_at_mut(chunk_len);
        chunks.push((head, o_head));
        rest_rows = tail;
        rest_out = o_tail;
        consumed += chunk_vals;
    }

    let queue = Mutex::new(chunks);
    let results: Mutex<Vec<RowChunkResult>> = Mutex::new(Vec::with_capacity(workers));
    crossbeam::scope(|s| {
        for _ in 0..workers {
            s.spawn(|_| loop {
                let item = lock_recover(&queue).pop();
                let Some((rows, out)) = item else { break };
                let out_base = rows.first().map_or(0, |r| r.base);
                let r = execute_rows(rows, out_base, offsets, win, kernel, out);
                let failed = r.is_err();
                lock_recover(&results).push(r);
                if failed {
                    break;
                }
            });
        }
    })
    .map_err(|_| EngineError::WorkerPanic)?;

    let mut stats = RowStats::default();
    for r in into_inner_recover(results) {
        stats.merge(r?);
    }
    Ok(stats)
}

type RowChunkResult = Result<RowStats, EngineError>;

fn inconsistent_row(row: &Row, out_base: u64) -> EngineError {
    EngineError::InconsistentIndex {
        detail: format!(
            "iteration row at {} (base {}) does not fit its band's output \
             slice starting at rank {out_base}",
            row.prefix, row.base
        ),
    }
}

/// The input point read by tap `f` at iteration `(prefix, inner)`.
fn tap_point(prefix: &Point, inner: i64, f: &Point) -> Point {
    prefix.pushed(inner) + *f
}

/// The batched-tap predicate: `Some(start rank)` iff the shifted row
/// `start..=end` is one contiguous run of the input stream — both ends
/// in-domain and exactly `len - 1` ranks apart.
///
/// The rank difference is taken with `checked_sub`: an index produced
/// by [`DomainIndex::build`] ranks monotonically, but the engine also
/// accepts hand-built indexes ([`DomainIndex::from_rows`]) whose base
/// values may invert rank order, and the fast path must degrade to the
/// gather fallback there instead of panicking on underflow.
fn contiguous_base(in_idx: &DomainIndex, start: &Point, end: &Point, len: usize) -> Option<u64> {
    if !in_idx.contains(start) || !in_idx.contains(end) {
        return None;
    }
    let base = in_idx.rank_lt(start);
    match in_idx.rank_lt(end).checked_sub(base) {
        Some(span) if span == (len - 1) as u64 => Some(base),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrambled_rank_order_degrades_to_gather_not_panic() {
        // Hand-built index with inverted bases: the prefix-[1] row
        // ranks *before* the prefix-[0] row, so rank_lt(end) <
        // rank_lt(start) for a span crossing the two. The old unchecked
        // subtraction panicked with overflow here; the predicate must
        // report "not contiguous" instead.
        let idx = DomainIndex::from_rows(
            2,
            vec![
                Row {
                    prefix: Point::new(&[0]),
                    lo: 0,
                    hi: 4,
                    base: 5,
                },
                Row {
                    prefix: Point::new(&[1]),
                    lo: 0,
                    hi: 4,
                    base: 0,
                },
            ],
        );
        let start = Point::new(&[0, 0]); // rank 5
        let end = Point::new(&[1, 4]); // rank 4 — inverted
        assert!(idx.rank_lt(&end) < idx.rank_lt(&start));
        assert_eq!(contiguous_base(&idx, &start, &end, 10), None);
        // Sanity: a consistent span on the same index still batches.
        let lo = Point::new(&[1, 0]);
        let hi = Point::new(&[1, 4]);
        assert_eq!(contiguous_base(&idx, &lo, &hi, 5), Some(0));
    }

    #[test]
    fn row_stats_merge_accumulates() {
        let mut a = RowStats {
            sweep: 1,
            fast: 2,
            gather: 3,
        };
        a.merge(RowStats {
            sweep: 10,
            fast: 20,
            gather: 30,
        });
        assert_eq!(
            a,
            RowStats {
                sweep: 11,
                fast: 22,
                gather: 33,
            }
        );
    }
}
