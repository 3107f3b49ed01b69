//! The shared per-row executor behind every engine path.
//!
//! The session's in-core and bounded-memory streaming modes
//! ([`crate::ExecMode`]) reduce to
//! the same inner problem: given a contiguous run of iteration rows and
//! a resident window of the input stream, produce one output per
//! iteration. This module is that single integration point — the
//! rank-window view, the batched-tap predicate, and the row loop with
//! its three row classes:
//!
//! * **sweep rows** — every tap is one contiguous resident run *and*
//!   the kernel runs the compiled backend: the whole row evaluates
//!   through the stage's [`RowProgram`] — the kernel's native row
//!   body when it carries one, else the vectorized register program;
//! * **fast rows** — taps are contiguous and resident but the kernel is
//!   a closure (or the `Closure` backend is forced onto the scalar
//!   bytecode): a batched per-element loop gathers each window from tap
//!   bases;
//! * **gather rows** — some tap is non-contiguous or non-resident: the
//!   defensive per-point fallback with exact error reporting.
//!
//! Classifying a row needs each tap's input run. On a box input whose
//! box holds every shifted iteration row, one forward-only [`TapCursor`]
//! finds tap 0's run and every other tap sits at a fixed rank offset
//! from it ([`box_tap_offsets`], the paper's Eq. 2 reuse distances as
//! ranks); on any other input one cursor per tap walks the input index
//! alongside the output rows. A cursor falls back to the binary-search
//! predicate [`contiguous_base`] only to seed itself or to confirm a
//! miss, and the sweep's register file lives in one [`SweepScratch`]
//! per call, so no row pays a search or an allocation.
//!
//! Rows write their outputs once ([`RowOut`]): a chunk either fills a
//! preassigned slice, or appends its rows in rank order to a vector
//! that nothing zero-filled — the native row body's appending form
//! writes each output straight into the result.
//!
//! Every band, in core or streaming, runs through
//! [`crate::chain::StreamStage`], and each band's rows split across the
//! workers ([`split_band_rows`]). Its row chunks go to
//! [`execute_band_parallel`], the only caller of [`fork_join`] — the
//! engine's only `std::thread::scope`.

use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use stencil_core::MemorySystemPlan;
use stencil_polyhedral::{DomainIndex, Point, Row, MAX_DIMS};

use crate::compile::CompiledKernel;
use crate::error::EngineError;
use crate::unroll::{RowProgram, SweepScratch};

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
pub(crate) enum RowKernel<'a> {
    /// A window closure (the `Closure` backend, or an expression-less
    /// stage): always per element.
    Closure(&'a (dyn Fn(&[f64]) -> f64 + Sync)),
    /// Compiled bytecode forced onto the per-element path (the
    /// `Closure` backend selected with a compiled kernel) — used by
    /// cross-checks to isolate the sweep from the bytecode semantics.
    Bytecode(&'a CompiledKernel),
    /// The compiled sweep: every contiguous row runs the row program,
    /// gather rows the scalar bytecode. The program is built once per
    /// session stage and borrowed.
    Program(&'a CompiledKernel, &'a RowProgram),
}

impl RowKernel<'_> {
    /// Evaluates one window in declared offset order.
    fn eval_window(&self, window: &[f64]) -> f64 {
        match self {
            RowKernel::Closure(c) => c(window),
            RowKernel::Bytecode(ck) | RowKernel::Program(ck, _) => ck.eval(window),
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
    /// Each tap's rank offset from tap 0 ([`box_tap_offsets`]), when
    /// the stage's input is a box holding every shifted iteration row:
    /// then only tap 0 is looked up per row.
    pub box_taps: Option<&'a [i64]>,
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

/// Where a row chunk's outputs go: each written once.
pub(crate) enum RowOut<'o> {
    /// A preassigned slice, one slot per iteration: slot 0 holds the
    /// chunk's first rank.
    Slice(&'o mut [f64]),
    /// Rows append in rank order to `vec`, whose length at `origin`
    /// holds the chunk's first rank: no slot exists, or is cleared,
    /// before its row is computed.
    Append {
        /// The growing result.
        vec: &'o mut Vec<f64>,
        /// `vec`'s length where the chunk starts.
        origin: usize,
    },
}

impl<'o> RowOut<'o> {
    /// Appends to `vec` after what it already holds.
    pub(crate) fn append(vec: &'o mut Vec<f64>) -> Self {
        let origin = vec.len();
        RowOut::Append { vec, origin }
    }

    /// True if the row of outputs `start..` (from the chunk's first
    /// rank) is the next one an append output takes; always true for
    /// a slice, whose slots are checked when taken.
    fn is_next(&self, start: usize) -> bool {
        match self {
            RowOut::Slice(_) => true,
            RowOut::Append { vec, origin } => vec.len() == origin + start,
        }
    }

    /// The `len` slots of the outputs at `start..` (from the chunk's
    /// first rank): borrowed from a slice, or appended as zeros, for a
    /// path that writes its row in place. `None` if a slice lacks them
    /// or an append output is not at `start`.
    fn slot(&mut self, start: usize, len: usize) -> Option<&mut [f64]> {
        if !self.is_next(start) {
            return None;
        }
        match self {
            RowOut::Slice(out) => out.get_mut(start..)?.get_mut(..len),
            RowOut::Append { vec, .. } => {
                let at = vec.len();
                vec.resize(at + len, 0.0);
                vec.get_mut(at..)
            }
        }
    }
}

/// Runs the iteration rows `rows` (a contiguous slice of one band's
/// index, whose `base` ranks start at `out_base`) against the resident
/// input window, writing each output once into `out`.
///
/// Per output row, every window tap becomes a base rank into the flat
/// input stream: tap 0 through its forward [`TapCursor`] and the rest at
/// their box offsets when the window has them, else each tap through
/// its own cursor. Resident contiguous rows then either sweep the
/// compiled kernel over the whole row (its native body appends the row
/// straight to an append output) or run the batched per-element loop,
/// while rows whose taps are not contiguous (or not fully resident)
/// fall back to per-point gathers.
pub(crate) fn execute_rows(
    rows: &[Row],
    out_base: u64,
    offsets: &[Point],
    win: &RankWindow<'_>,
    kernel: &RowKernel<'_>,
    mut out: RowOut<'_>,
) -> Result<RowStats, EngineError> {
    let n = offsets.len();
    let mut window = vec![0.0f64; n];
    let mut bases = vec![0usize; n];
    let mut cursors = vec![TapCursor::default(); n];
    let mut scratch = SweepScratch::default();
    let mut stats = RowStats::default();
    let program = match kernel {
        RowKernel::Program(_, prog) => Some(*prog),
        _ => None,
    };

    for row in rows {
        let len = usize::try_from(row.len())
            .map_err(|_| EngineError::DomainTooLarge { points: row.len() })?;
        let start = row
            .base
            .checked_sub(out_base)
            .and_then(|s| usize::try_from(s).ok())
            .ok_or_else(|| inconsistent_row(row, out_base))?;
        if !out.is_next(start) {
            return Err(inconsistent_row(row, out_base));
        }

        let all_fast = match win.box_taps {
            Some(deltas) => box_bases(
                win,
                deltas,
                &mut cursors[0],
                row,
                &offsets[0],
                len,
                &mut bases,
            ),
            None => offsets
                .iter()
                .zip(&mut cursors)
                .zip(&mut bases)
                .all(|((f, cursor), base)| {
                    match cursor
                        .base(win, row, f, len)
                        .and_then(|b| win.resident_run(b, len))
                    {
                        Some(off) => {
                            *base = off;
                            true
                        }
                        None => false,
                    }
                }),
        };

        if all_fast {
            if let Some(prog) = program {
                // Each tap is a column-shifted contiguous slice. The
                // native body appends the row as it computes it;
                // otherwise the sweep writes the row's slot.
                stats.sweep += 1;
                match (prog.native(), &mut out) {
                    (Some(native), RowOut::Append { vec, .. }) => {
                        native.append(win.vals, &bases, len, vec);
                    }
                    _ => {
                        let out_row = out
                            .slot(start, len)
                            .ok_or_else(|| inconsistent_row(row, out_base))?;
                        prog.sweep(&bases, win.vals, out_row, &mut scratch);
                    }
                }
            } else {
                stats.fast += 1;
                let out_row = out
                    .slot(start, len)
                    .ok_or_else(|| inconsistent_row(row, out_base))?;
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
            let out_row = out
                .slot(start, len)
                .ok_or_else(|| inconsistent_row(row, out_base))?;
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

/// Fills `bases` with every tap's window offset for iteration row `row`
/// (of `len` points) on a box input: tap 0 (offset `f0`) through its
/// `cursor`, tap `k` at `deltas[k]` ranks from it. False if tap 0's run
/// is not found or some tap's run is not resident.
fn box_bases(
    win: &RankWindow<'_>,
    deltas: &[i64],
    cursor: &mut TapCursor,
    row: &Row,
    f0: &Point,
    len: usize,
    bases: &mut [usize],
) -> bool {
    let Some(first) = cursor
        .base(win, row, f0, len)
        .and_then(|b| i64::try_from(b.checked_sub(win.base)?).ok())
    else {
        return false;
    };
    deltas
        .iter()
        .zip(bases)
        .all(|(&d, base)| match usize::try_from(first + d) {
            Ok(off) if off + len <= win.vals.len() => {
                *base = off;
                true
            }
            _ => false,
        })
}

/// Each tap's rank offset from tap 0 when the stage's input index is a
/// dense box ([`DomainIndex::dense_box`]) that holds the stage's
/// iteration box shifted by every offset of the window.
///
/// The rank of a box point is linear in its coordinates, so tap `k` of
/// every iteration row starts `δ_k = Σ_d (f_k − f_0)_d · stride_d` ranks
/// after tap 0 — the software form of the paper's reuse FIFOs, which
/// hand each tap to the datapath at a fixed distance from the first
/// (§3, Eq. 2). Each index finds its box once and keeps it, so this
/// costs arithmetic over the window, no walk. `None` for any
/// other input (a triangle, a skewed domain, a hand-built index) or a
/// window that leaves the input box: those stages look every tap up
/// through its own cursor.
pub(crate) fn box_tap_offsets(
    in_idx: &DomainIndex,
    out_idx: &DomainIndex,
    offsets: &[Point],
) -> Option<Vec<i64>> {
    let (input, iter) = (in_idx.dense_box()?, out_idx.dense_box()?);
    let f0 = offsets.first()?;
    if input.len() != iter.len() || offsets.iter().any(|f| f.dims() != input.len()) {
        return None;
    }
    let inside = offsets.iter().all(|f| {
        input
            .iter()
            .zip(iter)
            .zip(f.as_slice())
            .all(|((&(in_lo, in_hi), &(lo, hi)), &o)| in_lo <= lo + o && hi + o <= in_hi)
    });
    if !inside {
        return None;
    }
    let mut strides = vec![1i64; input.len()];
    for d in (1..input.len()).rev() {
        let (lo, hi) = input[d];
        strides[d - 1] = strides[d].checked_mul(hi - lo + 1)?;
    }
    offsets
        .iter()
        .map(|f| {
            f.as_slice()
                .iter()
                .zip(f0.as_slice())
                .zip(&strides)
                .try_fold(0i64, |acc, ((&a, &b), &s)| {
                    acc.checked_add((a - b).checked_mul(s)?)
                })
        })
        .collect()
}

/// One tap's forward-only position in the input index.
///
/// Iteration rows arrive in lexicographic order, and a tap shifts them
/// by a constant offset, so the input row a tap reads only ever moves
/// forward — the software form of the paper's data-filter counters,
/// which need no address logic (§3.3). The cursor keeps the input row
/// of its last lookup and walks forward from it by comparing prefix
/// slices, a step or two per output row in a box domain, instead of
/// four binary searches over the whole index.
///
/// It seeds itself, and re-seeds after any miss (a shifted row outside
/// its input row, a prefix not in the index, or a query stepping
/// backwards), through [`contiguous_base`]'s binary search, so its
/// answer is always that predicate's.
#[derive(Debug, Clone, Copy, Default)]
struct TapCursor {
    /// Index of the first input row whose prefix is not below the last
    /// queried one; `None` until seeded.
    row: Option<usize>,
}

impl TapCursor {
    /// [`contiguous_base`] of tap `f` over iteration row `row` (of
    /// `len` points): the input rank where the shifted row starts, if
    /// it is one contiguous run of the input stream.
    fn base(&mut self, win: &RankWindow<'_>, row: &Row, f: &Point, len: usize) -> Option<u64> {
        let idx = win.idx;
        let inner = row.prefix.dims();
        if idx.prefixes_ascend() {
            // The shifted row has one prefix, so it is contiguous iff a
            // single input row with that prefix holds both its ends.
            let mut key = [0i64; MAX_DIMS];
            for ((k, &p), &o) in key.iter_mut().zip(row.prefix.as_slice()).zip(f.as_slice()) {
                *k = p + o;
            }
            let key = &key[..inner];
            let (lo, hi) = (row.lo + f[inner], row.hi + f[inner]);
            let in_rows = idx.rows();
            if let Some(mut r) = self.row {
                while let Some(x) = in_rows.get(r) {
                    match x.prefix.as_slice().cmp(key) {
                        Ordering::Less => r += 1,
                        Ordering::Equal if x.lo <= lo && hi <= x.hi => {
                            self.row = Some(r);
                            return Some(x.base + (lo - x.lo) as u64);
                        }
                        _ => break,
                    }
                }
            }
            self.row = Some(in_rows.partition_point(|x| x.prefix.as_slice() < key));
        }
        contiguous_base(
            idx,
            &tap_point(&row.prefix, row.lo, f),
            &tap_point(&row.prefix, row.hi, f),
            len,
        )
    }
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

/// The machine's parallelism, which the OS finds by reading cgroup
/// files: a session asks once ([`crate::Session`]'s `threads(0)`).
pub(crate) fn machine_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Clamps a resolved worker count to the work: no run uses more workers
/// than it has bands (or rows), and every run uses at least one.
pub(crate) fn threads_for(workers: usize, tiles: usize) -> usize {
    workers.clamp(1, tiles.max(1))
}

/// A run of iteration rows and where its outputs go.
pub(crate) type RowChunk<'r, 'o> = (&'r [Row], RowOut<'o>);

/// Splits a band's iteration rows into at most `workers`
/// contiguous chunks writing disjoint slices of `out`, the band's
/// outputs from the rank of its first row on.
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
    let mut consumed = band_rows.first().map_or(0, |r| r.base);
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
        chunks.push((head, RowOut::Slice(o_head)));
        rest_rows = tail;
        rest_out = o_tail;
        consumed += chunk_vals;
    }
    Ok(chunks)
}

/// Runs row chunks — one band's row split — through [`fork_join`]
/// (inline at one worker), its only caller. Returns each chunk's row tallies and the time its worker
/// spent on it, in chunk order.
pub(crate) fn execute_band_parallel(
    chunks: Vec<RowChunk<'_, '_>>,
    offsets: &[Point],
    win: &RankWindow<'_>,
    kernel: &RowKernel<'_>,
    workers: usize,
) -> Result<Vec<(RowStats, Duration)>, EngineError> {
    fork_join(chunks, workers, |(rows, out): RowChunk<'_, '_>| {
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

    /// Runs one cursor per tap over `queries` (iteration rows, in the
    /// given order) against `in_idx`, asserting each lookup equals
    /// [`contiguous_base`]. Returns how many lookups hit.
    fn assert_cursors_agree(in_idx: &DomainIndex, queries: &[Row], offsets: &[Point]) -> usize {
        let win = RankWindow {
            idx: in_idx,
            vals: &[],
            base: 0,
            box_taps: None,
        };
        let mut cursors = vec![TapCursor::default(); offsets.len()];
        let mut hits = 0;
        for row in queries {
            let len = usize::try_from(row.len()).unwrap();
            for (f, cursor) in offsets.iter().zip(&mut cursors) {
                let start = tap_point(&row.prefix, row.lo, f);
                let end = tap_point(&row.prefix, row.hi, f);
                let want = contiguous_base(in_idx, &start, &end, len);
                assert_eq!(
                    cursor.base(&win, row, f, len),
                    want,
                    "row {} [{}, {}] tap {f}",
                    row.prefix,
                    row.lo,
                    row.hi
                );
                hits += usize::from(want.is_some());
            }
        }
        hits
    }

    fn points(coords: &[Vec<i64>]) -> Vec<Point> {
        coords.iter().map(|c| Point::new(c)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn tap_cursor_matches_the_predicate_on_random_boxes(
            dims in 2usize..=3,
            lo in proptest::collection::vec(-3i64..=3, 3),
            ext in proptest::collection::vec(1i64..=7, 3),
            shrink in proptest::collection::vec(-1i64..=2, 6),
            raw in proptest::collection::vec(-2i64..=2, 3..=24),
        ) {
            let input: Vec<(i64, i64)> = (0..dims).map(|d| (lo[d], lo[d] + ext[d])).collect();
            // The iteration box sits inside, on or across the input's edge.
            let iter: Vec<(i64, i64)> = input
                .iter()
                .enumerate()
                .map(|(d, &(a, b))| (a + shrink[2 * d], (b - shrink[2 * d + 1]).max(a + shrink[2 * d])))
                .collect();
            let in_idx = stencil_polyhedral::Polyhedron::rect(&input).index().unwrap();
            let it_idx = stencil_polyhedral::Polyhedron::rect(&iter).index().unwrap();
            let offsets: Vec<Point> = raw.chunks_exact(dims).map(Point::new).collect();
            assert_cursors_agree(&in_idx, it_idx.rows(), &offsets);
        }
    }

    /// Asserts that `box_tap_offsets` places every tap of every
    /// iteration row of `it_idx` where the contiguity predicate does:
    /// tap 0's rank plus the tap's offset.
    fn assert_box_offsets_agree(in_idx: &DomainIndex, it_idx: &DomainIndex, offsets: &[Point]) {
        let deltas = box_tap_offsets(in_idx, it_idx, offsets).expect("a box holding the window");
        assert_eq!(deltas.len(), offsets.len());
        for row in it_idx.rows() {
            let len = usize::try_from(row.len()).unwrap();
            let base = |f: &Point| {
                let start = tap_point(&row.prefix, row.lo, f);
                let end = tap_point(&row.prefix, row.hi, f);
                contiguous_base(in_idx, &start, &end, len).expect("inside the box")
            };
            let b0 = base(&offsets[0]);
            for (f, &d) in offsets.iter().zip(&deltas) {
                assert_eq!(
                    i64::try_from(base(f)).unwrap(),
                    i64::try_from(b0).unwrap() + d,
                    "row {} tap {f}",
                    row.prefix
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// On a box input, every tap sits at its box offset from tap 0
        /// exactly when the window keeps the iteration box inside the
        /// input box; otherwise the stage keeps per-tap cursors.
        #[test]
        fn box_offsets_match_the_predicate_on_random_boxes(
            dims in 2usize..=3,
            lo in proptest::collection::vec(-3i64..=3, 3),
            ext in proptest::collection::vec(2i64..=7, 3),
            shrink in proptest::collection::vec(-1i64..=2, 6),
            raw in proptest::collection::vec(-2i64..=2, 3..=24),
        ) {
            let input: Vec<(i64, i64)> = (0..dims).map(|d| (lo[d], lo[d] + ext[d])).collect();
            let iter: Vec<(i64, i64)> = input
                .iter()
                .enumerate()
                .map(|(d, &(a, b))| (a + shrink[2 * d], (b - shrink[2 * d + 1]).max(a + shrink[2 * d])))
                .collect();
            let in_idx = stencil_polyhedral::Polyhedron::rect(&input).index().unwrap();
            let it_idx = stencil_polyhedral::Polyhedron::rect(&iter).index().unwrap();
            let offsets: Vec<Point> = raw.chunks_exact(dims).map(Point::new).collect();
            let inside = offsets.iter().all(|f| {
                (0..dims).all(|d| input[d].0 <= iter[d].0 + f[d] && iter[d].1 + f[d] <= input[d].1)
            });
            proptest::prop_assert_eq!(box_tap_offsets(&in_idx, &it_idx, &offsets).is_some(), inside);
            if inside {
                assert_box_offsets_agree(&in_idx, &it_idx, &offsets);
            }
        }
    }

    #[test]
    fn only_box_inputs_get_box_offsets() {
        use stencil_polyhedral::{Constraint, Polyhedron};
        let cross = points(&[vec![-1, 0], vec![0, -1], vec![0, 0], vec![0, 1], vec![1, 0]]);
        let boxed = Polyhedron::rect(&[(0, 9), (0, 9)]).index().unwrap();
        let interior = Polyhedron::rect(&[(1, 8), (1, 8)]).index().unwrap();
        assert_box_offsets_agree(&boxed, &interior, &cross);
        // DENOISE's cross over a 10-column box: one row up, one left,
        // itself, one right, one row down.
        assert_eq!(
            box_tap_offsets(&boxed, &interior, &cross),
            Some(vec![0, 9, 10, 11, 20])
        );

        let triangle = Polyhedron::rect(&[(0, 3), (0, 3)])
            .with_constraint(Constraint::new(&[1, -1], 0))
            .index()
            .unwrap();
        let skewed = Polyhedron::new(
            2,
            vec![
                Constraint::lower_bound(2, 0, 0),
                Constraint::upper_bound(2, 0, 7),
                Constraint::new(&[-1, 1], 0),
                Constraint::new(&[1, -1], 4),
            ],
        )
        .index()
        .unwrap();
        let row = |p: i64, lo: i64, hi: i64, base: u64| Row {
            prefix: Point::new(&[p]),
            lo,
            hi,
            base,
        };
        let gaps =
            DomainIndex::from_rows(2, vec![row(0, 0, 4, 0), row(1, 0, 4, 5), row(3, 0, 4, 10)]);
        let scrambled = DomainIndex::from_rows(
            2,
            (0..=6).map(|p| row(p, 0, 4, 5 * (6 - p) as u64)).collect(),
        );
        let unordered = DomainIndex::from_rows(
            2,
            [4, 0, 2, 1, 6, 3, 5]
                .map(|p| row(p, 0, 4, 5 * p as u64))
                .to_vec(),
        );
        let small = Polyhedron::rect(&[(1, 2), (1, 3)]).index().unwrap();
        for (name, idx) in [
            ("triangle", &triangle),
            ("skewed", &skewed),
            ("gaps", &gaps),
            ("scrambled", &scrambled),
            ("unordered", &unordered),
        ] {
            assert_eq!(box_tap_offsets(idx, &small, &cross), None, "{name} input");
            assert_eq!(box_tap_offsets(idx, idx, &cross), None, "{name} as both");
        }
        // A box input whose window reaches past its edge.
        assert_eq!(box_tap_offsets(&boxed, &boxed, &cross), None);
        assert_eq!(box_tap_offsets(&boxed, &triangle, &cross), None);
    }

    /// On a box, the rank distance between consecutive filters of the
    /// plan's chain is the reuse FIFO between them: the box offsets are
    /// the prefix sums of the plan's Eq. 2 capacities.
    #[test]
    fn box_offsets_step_by_the_plans_fifo_capacities() {
        use stencil_kernels::{denoise, paper_suite};
        let benches = [denoise()]
            .into_iter()
            .chain(paper_suite().into_iter().filter(|b| b.dims() == 3));
        let mut checked = 0;
        for bench in benches {
            let extents: Vec<i64> = bench.extents().iter().map(|&e| e.min(12)).collect();
            let plan = MemorySystemPlan::generate(&bench.spec_for(&extents).unwrap()).unwrap();
            let in_idx = plan.input_domain().index().unwrap();
            let it_idx = plan.iteration_domain().index().unwrap();
            let deltas = box_tap_offsets(&in_idx, &it_idx, &plan_offsets(&plan))
                .unwrap_or_else(|| panic!("{}: a box plan", bench.name()));
            let chain: Vec<i64> = plan
                .filters()
                .iter()
                .map(|f| deltas[f.user_index])
                .collect();
            let steps: Vec<u64> = chain.windows(2).map(|w| (w[0] - w[1]) as u64).collect();
            assert_eq!(steps, plan.fifo_capacities(), "{}", bench.name());
            checked += 1;
        }
        assert!(checked >= 3, "DENOISE and the 3D suite: {checked}");
    }

    #[test]
    fn tap_cursor_matches_the_predicate_on_skewed_and_triangular_domains() {
        use stencil_polyhedral::{Constraint, Polyhedron};
        let cross = points(&[vec![-1, 0], vec![0, -1], vec![0, 0], vec![0, 1], vec![1, 0]]);
        // The `index.rs` triangle: 0 <= i <= 3, 0 <= j <= i.
        let triangle =
            Polyhedron::rect(&[(0, 3), (0, 3)]).with_constraint(Constraint::new(&[1, -1], 0));
        // Fig. 9's skewed strip: 0 <= i <= 7, i <= j <= i + 4.
        let skewed = Polyhedron::new(
            2,
            vec![
                Constraint::lower_bound(2, 0, 0),
                Constraint::upper_bound(2, 0, 7),
                Constraint::new(&[-1, 1], 0),
                Constraint::new(&[1, -1], 4),
            ],
        );
        for dom in [triangle, skewed] {
            let idx = dom.index().unwrap();
            let hits = assert_cursors_agree(&idx, idx.rows(), &cross);
            // Shifted rows of a skewed domain leave their input row, so
            // both the hit and the re-seed paths run.
            assert!(hits > 0 && hits < idx.rows().len() * cross.len(), "{hits}");
        }
    }

    #[test]
    fn tap_cursor_matches_the_predicate_on_hand_built_indexes() {
        let row = |p: i64, lo: i64, hi: i64, base: u64| Row {
            prefix: Point::new(&[p]),
            lo,
            hi,
            base,
        };
        let cross = points(&[vec![-1, 0], vec![0, -1], vec![0, 0], vec![0, 1], vec![1, 0]]);
        let queries: Vec<Row> = (0..=6).map(|p| row(p, 1, 3, 0)).collect();
        // Prefix gaps (no rows 2 and 5), a shifted row, and bases that
        // invert rank order.
        let gaps = DomainIndex::from_rows(
            2,
            vec![
                row(0, 0, 4, 0),
                row(1, 0, 4, 5),
                row(3, -1, 3, 10),
                row(4, 0, 4, 15),
                row(6, 0, 4, 20),
            ],
        );
        let scrambled = DomainIndex::from_rows(
            2,
            (0..=6).map(|p| row(p, 0, 4, 5 * (6 - p) as u64)).collect(),
        );
        // Prefixes out of order: the cursor must never walk it.
        let unordered = DomainIndex::from_rows(
            2,
            [4, 0, 2, 1, 6, 3, 5]
                .map(|p| row(p, 0, 4, 5 * p as u64))
                .to_vec(),
        );
        assert!(gaps.prefixes_ascend() && scrambled.prefixes_ascend());
        assert!(!unordered.prefixes_ascend());
        for idx in [&gaps, &scrambled, &unordered] {
            assert_cursors_agree(idx, &queries, &cross);
        }
    }

    #[test]
    fn tap_cursor_reseeds_on_a_backward_query() {
        let idx = stencil_polyhedral::Polyhedron::rect(&[(0, 9), (0, 9)])
            .index()
            .unwrap();
        let it = stencil_polyhedral::Polyhedron::rect(&[(1, 8), (1, 8)])
            .index()
            .unwrap();
        let cross = points(&[vec![-1, 0], vec![0, -1], vec![0, 0], vec![0, 1], vec![1, 0]]);
        // Forward, then backward, then a scattered order.
        let mut queries: Vec<Row> = it.rows().to_vec();
        queries.extend(it.rows().iter().rev());
        queries.extend([6, 2, 7, 0, 5, 1].map(|r| it.rows()[r]));
        assert_eq!(
            assert_cursors_agree(&idx, &queries, &cross),
            queries.len() * cross.len()
        );

        // A backward step re-seeds: the cursor lands where a binary
        // search puts it, not past the queried prefix.
        let win = RankWindow {
            idx: &idx,
            vals: &[],
            base: 0,
            box_taps: None,
        };
        let f = Point::new(&[0, 0]);
        let mut cursor = TapCursor::default();
        for r in [7usize, 3] {
            let row = it.rows()[r];
            assert_eq!(
                cursor.base(&win, &row, &f, 8),
                Some(idx.rank_lt(&row.prefix.pushed(1)))
            );
            assert_eq!(cursor.row, Some(r + 1));
        }
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
