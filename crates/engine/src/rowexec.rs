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
//!
//! Every band, in core or streaming, runs through
//! [`crate::chain::StreamStage`]. In core the bands split across the
//! workers (each band's rows unsplit); streaming, each band's rows
//! split across them ([`split_band_rows`]). Both hand their row chunks
//! to [`execute_band_parallel`], the only caller of [`fork_join`] — the
//! engine's only `std::thread::scope`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use stencil_core::MemorySystemPlan;
use stencil_polyhedral::{DomainIndex, Point, Row};

use crate::compile::{CompiledKernel, Datapath};
use crate::error::EngineError;
use crate::unroll::UnrolledProgram;

/// Locks `m`, recovering from poisoning: a panicking worker already
/// surfaces as [`EngineError::WorkerPanic`] (through [`fork_join`], or
/// its serve job's error slot), and no guarded value (work queues, job
/// slots, counters) is left half-updated by a panic, so a poisoned lock
/// must not turn into a second panic.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv` while `blocked` holds, recovering from poisoning as
/// [`lock_recover`] does. `Condvar::wait_while` returns as soon as a
/// wake-up finds the lock poisoned, before `blocked` clears.
pub(crate) fn wait_recover<'a, T>(
    cv: &Condvar,
    mut guard: MutexGuard<'a, T>,
    mut blocked: impl FnMut(&T) -> bool,
) -> MutexGuard<'a, T> {
    while blocked(&guard) {
        guard = cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
    }
    guard
}

/// Runs `f`, turning a panic inside it into
/// [`EngineError::WorkerPanic`]: the one unwind guard around work a
/// worker thread must survive.
pub(crate) fn guard_unwind<T>(
    f: impl FnOnce() -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or(Err(EngineError::WorkerPanic))
}

/// Runs `f` over every item on up to `workers` scoped threads pulling
/// from one shared queue, and returns the results in item order.
///
/// Items are claimed in order; the first failed item drops every
/// unclaimed one, and the first error by item order is returned. At one
/// worker (or one item) `f` runs inline on the caller's thread. A panic
/// in `f` is [`EngineError::WorkerPanic`] on both paths.
pub(crate) fn fork_join<I, T, F>(items: Vec<I>, workers: usize, f: F) -> Result<Vec<T>, EngineError>
where
    I: Send,
    T: Send,
    F: Fn(I) -> Result<T, EngineError> + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return guard_unwind(|| items.into_iter().map(&f).collect());
    }
    let mut slots: Vec<Option<Result<T, EngineError>>> = items.iter().map(|_| None).collect();
    let queue = Mutex::new(items.into_iter().enumerate());
    let joined: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let Some((k, item)) = lock_recover(&queue).next() else {
                            break done;
                        };
                        let r = f(item);
                        if r.is_err() {
                            lock_recover(&queue).by_ref().for_each(drop);
                        }
                        done.push((k, r));
                    }
                })
            })
            .collect();
        // Join every worker before judging any, so a second panic is
        // not re-raised by the scope.
        handles.into_iter().map(|h| h.join()).collect()
    });
    for done in joined {
        for (k, r) in done.map_err(|_| EngineError::WorkerPanic)? {
            slots[k] = Some(r);
        }
    }
    // Claimed items form a prefix and each one finishes, so an empty
    // slot only ever follows a failed item.
    slots.into_iter().flatten().collect()
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
/// domain indexed by `idx`: the current band's halo rows, sliced from a
/// whole resident input (in core, or a mapped payload) or from the
/// streaming stage's rolling window.
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
/// and no run uses more workers than it has bands (or rows). Only `0`
/// asks the OS, which reads cgroup files on every call.
pub(crate) fn threads_for(requested: usize, tiles: usize) -> usize {
    let t = match requested {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    };
    t.clamp(1, tiles.max(1))
}

/// A run of iteration rows (bases ranked from the start of its output
/// slice) and the output slice it writes.
pub(crate) type RowChunk<'r, 'o> = (&'r [Row], &'o mut [f64]);

/// Splits a streaming band's iteration rows into at most `workers`
/// contiguous chunks writing disjoint slices of the band buffer `out`.
pub(crate) fn split_band_rows<'r, 'o>(
    band_rows: &'r [Row],
    out: &'o mut [f64],
    workers: usize,
) -> Result<Vec<RowChunk<'r, 'o>>, EngineError> {
    // Chunk boundaries in row space; output slices follow row bases.
    let per = band_rows.len().div_ceil(workers);
    let mut chunks: Vec<RowChunk<'r, 'o>> = Vec::with_capacity(workers);
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
    Ok(chunks)
}

/// Runs row chunks — a streaming band's row split, or whole bands in
/// core — through [`fork_join`] (inline at one worker), its only
/// caller. Returns each chunk's row tallies and the time its worker
/// spent on it, in chunk order.
pub(crate) fn execute_band_parallel(
    chunks: Vec<RowChunk<'_, '_>>,
    offsets: &[Point],
    win: &RankWindow<'_>,
    kernel: &RowKernel<'_>,
    workers: usize,
) -> Result<Vec<(RowStats, Duration)>, EngineError> {
    fork_join(chunks, workers, |(rows, out)| {
        let started = Instant::now();
        let out_base = rows.first().map_or(0, |r| r.base);
        let stats = execute_rows(rows, out_base, offsets, win, kernel, out)?;
        Ok((stats, started.elapsed()))
    })
}

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
    fn fork_join_keeps_item_order_and_types_every_failure() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..9).collect();
        for workers in [1usize, 2, 4] {
            // Beyond one worker, item `late` finishes only after item
            // `early` has run on another worker, so completion order is
            // not item order.
            let reorder = |late: usize, early: usize| {
                let (tx, rx) = std::sync::mpsc::channel::<()>();
                let rx = Mutex::new(rx);
                move |k: usize| {
                    if workers > 1 && k == late {
                        lock_recover(&rx)
                            .recv_timeout(std::time::Duration::from_secs(10))
                            .expect("the early item runs on another worker");
                    } else if k == early {
                        let _ = tx.send(());
                    }
                }
            };

            let wait = reorder(0, 1);
            let ran = fork_join(items.clone(), workers, |k| {
                wait(k);
                Ok((k, std::thread::current().id()))
            })
            .unwrap();
            assert_eq!(
                ran.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
                items,
                "workers={workers}"
            );
            if workers == 1 {
                assert!(ran.iter().all(|&(_, id)| id == caller));
            }

            // Items 5 and 7 fail, 7 first; the first by item order wins.
            let wait = reorder(5, 7);
            let e = fork_join(items.clone(), workers, |k| {
                wait(k);
                match k {
                    5 | 7 => Err(EngineError::MissingInput {
                        point: format!("item {k}"),
                    }),
                    _ => Ok(k),
                }
            })
            .unwrap_err();
            assert_eq!(
                e,
                EngineError::MissingInput {
                    point: "item 5".into()
                },
                "workers={workers}"
            );

            let e = fork_join(items.clone(), workers, |k| {
                if k == 3 {
                    panic!("datapath bug");
                }
                Ok(k)
            })
            .unwrap_err();
            assert_eq!(e, EngineError::WorkerPanic, "workers={workers}");
        }
    }

    #[test]
    fn threads_for_takes_a_resolved_count_as_given() {
        for n in [1usize, 2, 3, 7, 64] {
            for tiles in [0usize, 1, 2, 5, 100, usize::MAX] {
                assert_eq!(
                    threads_for(n, tiles),
                    n.clamp(1, tiles.max(1)),
                    "n={n} tiles={tiles}"
                );
            }
        }
        assert!((1..=4).contains(&threads_for(0, 4)));
    }

    #[test]
    fn guard_unwind_types_a_panic_and_passes_results_through() {
        assert_eq!(guard_unwind(|| Ok(7)), Ok(7));
        let missing = EngineError::MissingInput { point: "p".into() };
        assert_eq!(guard_unwind::<()>(|| Err(missing.clone())), Err(missing));
        let r: Result<u32, _> = guard_unwind(|| panic!("datapath bug"));
        assert_eq!(r, Err(EngineError::WorkerPanic));
        // The guarded thread carries on after the panic.
        assert_eq!(guard_unwind(|| Ok(8)), Ok(8));
    }

    #[test]
    fn lock_recover_reads_through_a_poisoned_lock() {
        let m = Mutex::new(vec![1u32]);
        let poisoned = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut g = m.lock().unwrap();
            g.push(2);
            panic!("poison the lock");
        }));
        assert!(poisoned.is_err() && m.is_poisoned());
        lock_recover(&m).push(3);
        assert_eq!(*lock_recover(&m), vec![1, 2, 3]);
    }

    #[test]
    fn wait_recover_keeps_waiting_on_a_poisoned_lock() {
        let (m, cv) = (Mutex::new(0u32), Condvar::new());
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(m.is_poisoned());
        std::thread::scope(|s| {
            // Held until the wait releases it, so the first wake-up
            // finds the waiter waiting.
            let guard = lock_recover(&m);
            s.spawn(|| {
                // A wake-up with the value still 0, then the value the
                // waiter waits for.
                for v in [0, 7] {
                    *lock_recover(&m) = v;
                    cv.notify_all();
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
            assert_eq!(*wait_recover(&cv, guard, |v| *v == 0), 7);
        });
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
