//! The band loop behind every [`crate::Session`] stage.
//!
//! A [`StreamStage`] runs one kernel band by band over its halo window.
//! A streaming session chains its stages into a *band wavefront*
//! ([`run_chain`]): stage 0 pulls the rows its current band needs from
//! the [`RowSource`] (or admits them in place from a mapped input),
//! then runs the band straight onto the tail of stage 1's halo window;
//! stage 1 runs every band that has become ready onto stage 2's window,
//! and so on, until the last stage pushes its band's rows to the
//! [`RowSink`]. Before a band lands, the receiving stage evicts the rows
//! below its next band's halo, so no stage ever holds more than one
//! band's halo window and no value is copied between stages.
//!
//! The wavefront needs no per-row handshake because the schedules line
//! up: a downstream stage's band cuts are its upstream's cuts shifted
//! down by the downstream window's largest outermost offset
//! (`Session`'s lagged schedules, built with
//! [`stencil_core::MemorySystemPlan::tile_plan_from_cuts`]), so upstream
//! band `b` produces exactly the rows downstream band `b` still lacks.
//! In 1-D, where one index row spans every band, the downstream simply
//! waits until its one row is complete.
//!
//! The same machinery serves both spatial pipelines (`Session::then`,
//! distinct kernels) and iterative time-stepping (`Session::iterate`,
//! one kernel self-chained T times): either way each stage holds one
//! halo window, so T coupled steps stay within a T×halo residency
//! budget instead of materializing T intermediate grids. Band
//! schedules are built once at session construction and handed in
//! prebuilt, so a T-step ring pays plan validation once, not per step.
//!
//! In core, the stages run the same wavefront: stage 0 reads its whole
//! input resident ([`StreamStage::attach_resident`]) and every later
//! stage its upstream's bands through a halo window, so no intermediate
//! grid is ever materialised. [`StreamStage`] is the only code that runs
//! a band, and [`run_chain`] the only loop that drives it.
//!
//! Every output is written once. At one worker a band appends to the
//! downstream halo window, or for the last stage to the run's result
//! ([`Outlet::Append`]) or its band buffer ([`Outlet::Sink`]); at more
//! than one its row chunks write disjoint slices. The halo window and
//! the band buffer are reserved at the stage's planned bound the first
//! time the stage needs them, so they never grow by reallocation.

use std::borrow::Cow;
use std::ops::Range;
use std::time::Duration;

use stencil_core::{row_outer_span, MemorySystemPlan, Tile, TilePlan};
use stencil_polyhedral::{DomainIndex, Point, Row};
use stencil_telemetry::HighWater;

use crate::compile::KernelBackend;
use crate::error::EngineError;
use crate::report::{RunReport, StreamReport, TileReport};
use crate::rowexec::{
    box_tap_offsets, execute_band_parallel, plan_offsets, split_band_rows, threads_for, RankWindow,
    RowKernel, RowOut, RowStats,
};
use crate::stream::{result_buffer, RowSink, RowSource};

/// One kernel stage, run band by band over the band schedule of its
/// [`TilePlan`] — the only code that runs a band.
pub(crate) struct StreamStage<'k> {
    tile_plan: TilePlan,
    in_idx: &'k DomainIndex,
    // The stage's iteration index: each band's rows are a rank range of
    // it.
    out_idx: &'k DomainIndex,
    // Each tap's rank offset from tap 0 when the input is a box holding
    // every shifted iteration row (`RankWindow::box_taps`).
    box_taps: Option<Vec<i64>>,
    dims: usize,
    offsets: Vec<Point>,
    kernel: &'k RowKernel<'k>,
    backend: KernelBackend,
    chunk_rows: u64,
    worker_count: usize,
    // Rolling halo window state. With `resident_input` set the whole
    // input is resident (a mapped payload or an in-memory grid),
    // `window` stays empty, and the resident range alone tracks the
    // logical halo window (rank == offset, guaranteed by the contiguity
    // check in `new`). Otherwise `window[..filled]` holds the input
    // ranks from the first resident row up to `admitted`: pulled from
    // the source, or appended by the upstream stage. The buffer is
    // reserved at the stage's planned bound on first use.
    resident_input: Option<&'k [f64]>,
    window: Vec<f64>,
    filled: usize,
    // Input rows wholly admitted and not yet evicted.
    resident: Range<usize>,
    // Input ranks admitted so far: the rank the next admitted value has.
    admitted: u64,
    // The next band to run.
    cursor: usize,
    // The last stage's band outputs on the way to a sink, reused across
    // bands.
    out_buf: Vec<f64>,
    // Telemetry.
    gauge: HighWater,
    resident_bound: u64,
    rows_in: u64,
    values_in: u64,
    rows_out: u64,
    // Each band run so far, in band order, and the most workers one
    // used.
    bands: Vec<TileReport>,
    threads_used: usize,
}

impl std::fmt::Debug for StreamStage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamStage")
            .field("bands", &self.tile_plan.tile_count())
            .field("cursor", &self.cursor)
            .field("resident", &self.resident)
            .finish_non_exhaustive()
    }
}

impl<'k> StreamStage<'k> {
    /// Adopts a prebuilt band schedule (validated once at session
    /// construction), the stage's input index and its iteration index
    /// `out_idx`, and checks that the input index is in contiguous
    /// stream order. A stage runs on at most `workers` workers.
    // Every argument is one independent part of a stage.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        plan: &MemorySystemPlan,
        in_idx: &'k DomainIndex,
        out_idx: &'k DomainIndex,
        tile_plan: TilePlan,
        kernel: &'k RowKernel<'k>,
        backend: KernelBackend,
        chunk_rows: Option<u64>,
        workers: usize,
    ) -> Result<Self, EngineError> {
        // A band addresses residents by rank offset from the window
        // base, which requires the input stream to be exactly the rows
        // in order — i.e. contiguous monotone bases. The index finds
        // that once and keeps it; only a failure walks it again, to
        // name the first row out of place.
        if !in_idx.ranks_contiguous() {
            let mut at = 0u64;
            for row in in_idx.rows() {
                if row.base != at {
                    return Err(EngineError::InconsistentIndex {
                        detail: format!(
                            "input row at {} has base {} but the stream is at rank {at}; \
                             a stage requires contiguous rank order",
                            row.prefix, row.base
                        ),
                    });
                }
                at += row.len();
            }
        }
        let offsets = plan_offsets(plan);

        Ok(Self {
            box_taps: box_tap_offsets(in_idx, out_idx, &offsets),
            dims: in_idx.dims(),
            offsets,
            kernel,
            backend,
            chunk_rows: chunk_rows.unwrap_or(0),
            worker_count: workers,
            resident_input: None,
            window: Vec::new(),
            filled: 0,
            resident: 0..0,
            admitted: 0,
            cursor: 0,
            out_buf: Vec::new(),
            gauge: HighWater::new(),
            resident_bound: 0,
            rows_in: 0,
            values_in: 0,
            rows_out: 0,
            bands: Vec::with_capacity(tile_plan.tile_count()),
            threads_used: 0,
            tile_plan,
            in_idx,
            out_idx,
        })
    }

    /// Attaches an input that is resident as a whole — a mapped
    /// `.sgrid` payload or an in-memory grid: bands execute as slices of
    /// it and the stage never pulls a row — zero copies into the halo
    /// window.
    ///
    /// Only valid on a fresh stage (nothing pulled yet) whose input
    /// index covers exactly `values.len()` points.
    pub(crate) fn attach_resident(&mut self, values: &'k [f64]) -> Result<(), EngineError> {
        if self.admitted > 0 {
            return Err(EngineError::InconsistentIndex {
                detail: "resident input attached to a stage that already pulled rows".into(),
            });
        }
        let (expected, got) = (self.in_idx.len(), values.len() as u64);
        if got != expected {
            return Err(EngineError::InputSizeMismatch { expected, got });
        }
        self.resident_input = Some(values);
        Ok(())
    }

    /// Values pulled into (or logically admitted to) the halo window.
    pub(crate) fn values_in(&self) -> u64 {
        self.values_in
    }

    /// The input the stage's bands read when it is resident as a whole
    /// ([`resident_span`]).
    pub(crate) fn resident_span(&self) -> u64 {
        resident_span(self.in_idx, &self.tile_plan, self.out_idx.len())
    }

    /// The band the stage runs next, if any is left.
    fn current(&self) -> Option<&Tile> {
        self.tile_plan.tiles().get(self.cursor)
    }

    /// True once every input row the current band's halo holds is
    /// admitted: the next unadmitted row lies above the halo, or none
    /// is left.
    fn ready(&self) -> bool {
        self.current().is_some_and(|tile| {
            self.in_idx
                .rows()
                .get(self.resident.end)
                .is_none_or(|row| tile.row_above_halo(row_outer_span(row, self.dims)))
        })
    }

    /// Stage 0's intake for its current band: pulls from `source` every
    /// input row up to the top of the band's halo, or admits them in
    /// place when the input is resident (and `source` may be `None`).
    /// Rows below the halo (never read by any band) are consumed for
    /// stream order and dropped.
    fn pull(&mut self, mut source: Option<&mut dyn RowSource>) -> Result<(), EngineError> {
        if self.resident_input.is_none() {
            self.reserve_window()?;
        }
        let Some(tile) = self.tile_plan.tiles().get(self.cursor) else {
            return Ok(());
        };
        let rows = self.in_idx.rows();
        while let Some(row) = rows.get(self.resident.end) {
            let span = row_outer_span(row, self.dims);
            if tile.row_above_halo(span) {
                break;
            }
            let len = usize::try_from(row.len())
                .map_err(|_| EngineError::DomainTooLarge { points: row.len() })?;
            let discard = tile.row_below_halo(span);
            if self.resident_input.is_none() {
                let source = source.as_deref_mut().ok_or_else(|| EngineError::Source {
                    detail: "a stage without a resident input has no row source".into(),
                })?;
                self.window.truncate(self.filled);
                source.fill_row(len, &mut self.window)?;
                let got = self.window.len() - self.filled;
                if got != len {
                    return Err(EngineError::Source {
                        detail: format!("source produced {got} of {len} requested values"),
                    });
                }
                if !discard {
                    self.filled += len;
                }
            }
            if discard {
                self.resident.start = self.resident.end + 1;
            }
            self.resident.end += 1;
            self.rows_in += 1;
            self.values_in += len as u64;
            self.admitted += len as u64;
        }
        Ok(())
    }

    /// The halo window an upstream band starting at input rank `start`
    /// lands on, reserved: the band's values go after `filled`.
    fn tail(&mut self, start: u64) -> Result<&mut Vec<f64>, EngineError> {
        if start != self.admitted {
            return Err(EngineError::InconsistentIndex {
                detail: format!(
                    "an upstream band starts at rank {start} but the stage has admitted {} values",
                    self.admitted
                ),
            });
        }
        self.reserve_window()?;
        Ok(&mut self.window)
    }

    /// Reserves the owned halo window, once, at the stage's planned
    /// bound: the most values any band's halo holds, the rows of its
    /// halo times the widest of them, as the bound
    /// [`MemorySystemPlan::planned_residency_bound`] gives for the same
    /// input index and band schedule. The window then never grows by
    /// reallocation, and, like a run's result, faults in whole huge
    /// pages where it spans them (a one-band window holds a whole grid).
    fn reserve_window(&mut self) -> Result<(), EngineError> {
        if self.window.capacity() > 0 {
            return Ok(());
        }
        let bound = halo_window_bound(self.in_idx, &self.tile_plan);
        let bound =
            usize::try_from(bound).map_err(|_| EngineError::DomainTooLarge { points: bound })?;
        self.window = result_buffer(bound);
        Ok(())
    }

    /// Admits the `len` values an upstream band just wrote on the tail,
    /// and every input row they complete.
    fn admit(&mut self, len: usize) {
        self.filled += len;
        self.admitted += len as u64;
        let rows = self.in_idx.rows();
        while let Some(row) = rows
            .get(self.resident.end)
            .filter(|r| r.base + r.len() <= self.admitted)
        {
            self.resident.end += 1;
            self.rows_in += 1;
            self.values_in += row.len();
        }
    }

    /// The logical halo-window length in values: the filled part of the
    /// owned buffer, or the resident rows' rank span on the resident
    /// path (both identical by the contiguity invariant).
    fn window_len(&self) -> Result<usize, EngineError> {
        if self.resident_input.is_none() {
            return Ok(self.filled);
        }
        if self.resident.is_empty() {
            return Ok(0);
        }
        let rows = self.in_idx.rows();
        let first = &rows[self.resident.start];
        let last = &rows[self.resident.end - 1];
        let span = last.base + last.len() - first.base;
        usize::try_from(span).map_err(|_| EngineError::DomainTooLarge { points: span })
    }

    /// Evicts rows entirely below the current band's halo. Evicting
    /// before admitting keeps the peak at one band's halo window. The
    /// owned window is compacted once per band: the evicted rows are
    /// summed first and moved out in one copy.
    fn evict_below_halo(&mut self) -> Result<(), EngineError> {
        let Some(tile) = self.tile_plan.tiles().get(self.cursor) else {
            return Ok(());
        };
        let rows = self.in_idx.rows();
        let mut evicted = 0u64;
        while self.resident.start < self.resident.end
            && tile.row_below_halo(row_outer_span(&rows[self.resident.start], self.dims))
        {
            evicted += rows[self.resident.start].len();
            self.resident.start += 1;
        }
        if self.resident_input.is_none() && evicted > 0 {
            let n = usize::try_from(evicted)
                .map_err(|_| EngineError::DomainTooLarge { points: evicted })?;
            self.window.copy_within(n..self.filled, 0);
            self.filled -= n;
        }
        Ok(())
    }

    /// Runs the current band through the shared sweep/fast/gather
    /// executor, placing its outputs (one per band iteration) in `out`
    /// from `origin` on, records it, and moves on to the next band. At
    /// one worker `out` is cut back to `origin` and the rows append to
    /// it; at more, `out` is cut or zero-extended to the band's end and
    /// each worker's row chunk overwrites its own slice of it.
    fn run_band(&mut self, out: &mut Vec<f64>, origin: usize) -> Result<(), EngineError> {
        let tile = &self.tile_plan.tiles()[self.cursor];
        let rows = self.in_idx.rows();
        let resident = &rows[self.resident.clone()];

        let window_len = self.window_len()?;
        self.gauge.observe(window_len as u64);
        let widest = resident.iter().map(Row::len).max().unwrap_or(0);
        self.resident_bound = self.resident_bound.max(resident.len() as u64 * widest);

        let base = resident.first().map_or(0, |r| r.base);
        // Resident path: the "window" is a borrowed slice of the whole
        // input (rank == offset by the contiguity invariant); nothing
        // was ever copied in. Otherwise: the owned rolling buffer.
        let vals: &[f64] = match self.resident_input {
            Some(input) => {
                let start = usize::try_from(base)
                    .map_err(|_| EngineError::DomainTooLarge { points: base })?;
                start
                    .checked_add(window_len)
                    .and_then(|end| input.get(start..end))
                    .ok_or_else(|| EngineError::InconsistentIndex {
                        detail: format!(
                            "band {} window [{base}, +{window_len}) exceeds the resident input",
                            tile.id
                        ),
                    })?
            }
            None => &self.window[..self.filled],
        };
        let win = RankWindow {
            idx: self.in_idx,
            vals,
            base,
            box_taps: self.box_taps.as_deref(),
        };
        let band_len = usize::try_from(tile.len)
            .map_err(|_| EngineError::DomainTooLarge { points: tile.len })?;
        let band_rows = band_rows(self.out_idx, tile)?;
        let workers = threads_for(self.worker_count, band_rows.len());
        let chunks = if workers == 1 {
            out.truncate(origin);
            vec![(band_rows.as_ref(), RowOut::append(out))]
        } else {
            out.resize(origin + band_len, 0.0);
            split_band_rows(&band_rows, &mut out[origin..], workers)?
        };
        let used = chunks.len();
        let (mut stats, mut busy) = (RowStats::default(), Duration::ZERO);
        for (chunk, elapsed) in
            execute_band_parallel(chunks, &self.offsets, &win, self.kernel, workers)?
        {
            stats.merge(chunk);
            busy += elapsed;
        }
        if out.len() != origin + band_len {
            return Err(EngineError::InconsistentIndex {
                detail: format!(
                    "band {} claims {band_len} outputs but its rows produced {}",
                    tile.id,
                    out.len() - origin
                ),
            });
        }
        self.rows_out += band_rows.len() as u64;
        if self.cursor + 1 == self.tile_plan.tile_count() {
            // The stage's last band has read its window: release it now,
            // so a one-band chain holds two windows at a time, not one
            // per stage.
            self.window = Vec::new();
        }
        self.threads_used = self.threads_used.max(used);
        // The halo count is the in-core report's, taken there.
        self.bands.push(TileReport {
            id: tile.id,
            outputs: tile.len,
            halo_elements: 0,
            sweep_rows: stats.sweep,
            fast_rows: stats.fast,
            gather_rows: stats.gather,
            elapsed: busy,
        });
        self.cursor += 1;
        Ok(())
    }

    /// Runs the current band of the last stage to `outlet`: appended to
    /// the run's result, or through the stage's band buffer to the sink
    /// row by row. Returns the values produced. The band buffer is
    /// reserved once, at the longest band.
    fn run_band_out(&mut self, outlet: &mut Outlet<'_>) -> Result<u64, EngineError> {
        let tile = &self.tile_plan.tiles()[self.cursor];
        let (start, len) = (tile.start_rank, tile.len);
        let sink = match outlet {
            Outlet::Append(result) => {
                let origin = result.len();
                self.run_band(result, origin)?;
                return Ok(len);
            }
            Outlet::Sink(sink) => sink,
        };
        let rows = band_rows(self.out_idx, tile)?;
        let mut out = std::mem::take(&mut self.out_buf);
        if out.capacity() == 0 {
            let longest = self.tile_plan.tiles().iter().map(|t| t.len).max();
            let longest = longest.unwrap_or(0);
            out = result_buffer(
                usize::try_from(longest)
                    .map_err(|_| EngineError::DomainTooLarge { points: longest })?,
            );
        }
        let ran = self.run_band(&mut out, 0);
        let pushed = ran.and_then(|()| {
            for row in rows.iter() {
                let at = usize::try_from(row.base - start)
                    .map_err(|_| EngineError::DomainTooLarge { points: row.base })?;
                let n = usize::try_from(row.len())
                    .map_err(|_| EngineError::DomainTooLarge { points: row.len() })?;
                sink.push_row(&out[at..at + n])?;
            }
            Ok(len)
        });
        self.out_buf = out;
        pushed
    }

    /// The stage's peak halo-window residency so far, in values.
    pub(crate) fn peak_resident(&self) -> u64 {
        self.gauge.get()
    }

    /// The stage's running halo-window bound, in values.
    pub(crate) fn runtime_bound(&self) -> u64 {
        self.resident_bound
    }

    /// The finished streaming stage's report.
    pub(crate) fn report(&self, elapsed: Duration) -> StreamReport {
        StreamReport {
            outputs: self.tile_plan.total_outputs(),
            bands: self.tile_plan.tile_count(),
            threads: self.worker_count,
            backend: self.backend,
            chunk_rows: self.chunk_rows,
            rows_in: self.rows_in,
            values_in: self.values_in,
            rows_out: self.rows_out,
            peak_resident: self.gauge.get(),
            resident_bound: self.resident_bound,
            sweep_rows: self.bands.iter().map(|b| b.sweep_rows).sum(),
            fast_rows: self.bands.iter().map(|b| b.fast_rows).sum(),
            gather_rows: self.bands.iter().map(|b| b.gather_rows).sum(),
            elapsed,
        }
    }

    /// The finished stage's in-core report: its bands, each with its
    /// workers' busy time and the input points of its halo region (the
    /// band dilated by the window, as [`Tile::halo_domain`] holds them),
    /// and the most workers a band used.
    pub(crate) fn engine_report(&self, elapsed: Duration) -> RunReport {
        let mut per_tile = self.bands.clone();
        for (band, tile) in per_tile.iter_mut().zip(self.tile_plan.tiles()) {
            let (lo, hi) = (
                tile.band.0.min(tile.halo_band.0),
                tile.band.1.max(tile.halo_band.1),
            );
            band.halo_elements = points_within(self.in_idx.rows(), self.dims, (lo, hi));
        }
        RunReport {
            outputs: self.tile_plan.total_outputs(),
            tiles: self.tile_plan.tile_count(),
            threads: self.threads_used.max(1),
            backend: self.backend,
            halo_elements: per_tile.iter().map(|t| t.halo_elements).sum(),
            elapsed,
            per_tile,
        }
    }
}

/// The most input values any band of `tile_plan` holds while it
/// streams: the rows of its halo times the widest of them, as
/// [`MemorySystemPlan::planned_residency_bound`] gives for the same
/// band schedule over `in_idx`.
pub(crate) fn halo_window_bound(in_idx: &DomainIndex, tile_plan: &TilePlan) -> u64 {
    let rows = in_idx.rows();
    let span = |r: &Row| row_outer_span(r, in_idx.dims());
    let mut bound = 0u64;
    for tile in tile_plan.tiles() {
        let first = rows.partition_point(|r| tile.row_below_halo(span(r)));
        let halo = rows[first..]
            .iter()
            .take_while(|r| !tile.row_above_halo(span(r)));
        let (count, widest) = halo.fold((0u64, 0u64), |(n, w), r| (n + 1, w.max(r.len())));
        bound = bound.max(count * widest);
    }
    bound
}

/// The input points a band schedule reads in core: those whose
/// outermost coordinate lies between its first band's halo and its
/// last's, open at either end where the schedule reaches the end of its
/// iteration domain of `outputs` points. A whole schedule reads its
/// whole input; a band range, such as a serve shard, the input its
/// bands' halos span (in 1-D, a clipped slice of the one row).
pub(crate) fn resident_span(in_idx: &DomainIndex, tile_plan: &TilePlan, outputs: u64) -> u64 {
    let tiles = tile_plan.tiles();
    let (Some(first), Some(last)) = (tiles.first(), tiles.last()) else {
        return 0;
    };
    // A whole schedule needs no walk over the index's rows.
    if first.start_rank == 0 && last.end_rank() == outputs {
        return in_idx.len();
    }
    let lo = if first.start_rank == 0 {
        i64::MIN
    } else {
        first.halo_band.0
    };
    let hi = if last.end_rank() == outputs {
        i64::MAX
    } else {
        last.halo_band.1
    };
    points_within(in_idx.rows(), in_idx.dims(), (lo, hi))
}

/// The points of `rows` whose outermost coordinate lies in `lo..=hi`:
/// whole rows past 1-D, a clipped slice of the one row in 1-D.
fn points_within(rows: &[Row], dims: usize, (lo, hi): (i64, i64)) -> u64 {
    rows.iter()
        .map(|row| {
            let (a, b) = row_outer_span(row, dims);
            let (a, b) = (a.max(lo), b.min(hi));
            if a > b {
                0
            } else if dims == 1 {
                (b - a + 1) as u64
            } else {
                row.len()
            }
        })
        .sum()
}

/// The iteration rows of `tile`: the rows of the stage's iteration
/// index whose ranks fall in the band's rank range. Bands cut along the
/// outermost dimension, so past 1-D they are whole rows and borrowed;
/// in 1-D, where one row spans every band, the row is clipped to the
/// band.
fn band_rows<'i>(idx: &'i DomainIndex, tile: &Tile) -> Result<Cow<'i, [Row]>, EngineError> {
    let (start, end) = (tile.start_rank, tile.end_rank());
    let rows = idx.rows();
    let first = rows.partition_point(|r| r.base + r.len() <= start);
    let last = rows.partition_point(|r| r.base < end);
    let inconsistent = || EngineError::InconsistentIndex {
        detail: format!(
            "band {} ranks [{start}, {end}) are not a row range of the stage's iteration index",
            tile.id
        ),
    };
    let slice = rows.get(first..last).ok_or_else(inconsistent)?;
    let (Some(head), Some(tail)) = (slice.first(), slice.last()) else {
        return Err(inconsistent());
    };
    if head.base > start || tail.base + tail.len() < end {
        return Err(inconsistent());
    }
    if head.base == start && tail.base + tail.len() == end {
        return Ok(Cow::Borrowed(slice));
    }
    let mut clipped = slice.to_vec();
    let skip = start - head.base;
    let cut = tail.base + tail.len() - end;
    let first = &mut clipped[0];
    first.lo += i64::try_from(skip).map_err(|_| inconsistent())?;
    first.base = start;
    let last = clipped.last_mut().expect("non-empty");
    last.hi -= i64::try_from(cut).map_err(|_| inconsistent())?;
    Ok(Cow::Owned(clipped))
}

/// Where the last stage of a wavefront puts its bands.
pub(crate) enum Outlet<'o> {
    /// Rows go to a sink, in order.
    Sink(&'o mut dyn RowSink),
    /// Bands append to the run's result, reserved for every output.
    Append(&'o mut Vec<f64>),
}

/// Runs a chain of stages as one band wavefront: stage 0 admits each
/// band's rows (in place from a resident input, else pulled from
/// `source`) and hands the band to stage 1 in place, every stage runs
/// each band that becomes ready, and the last stage's bands go to
/// `outlet`. Returns the values the last stage produced.
pub(crate) fn run_chain(
    stages: &mut [StreamStage<'_>],
    mut source: Option<&mut dyn RowSource>,
    outlet: &mut Outlet<'_>,
) -> Result<u64, EngineError> {
    let mut produced = 0u64;
    while stages[0].current().is_some() {
        stages[0].evict_below_halo()?;
        stages[0].pull(source.as_mut().map(|s| &mut **s as &mut dyn RowSource))?;
        produced += hand_off(stages, 0, outlet)?;
    }
    if let Some((k, stage)) = stages
        .iter()
        .enumerate()
        .find(|(_, s)| s.current().is_some())
    {
        return Err(EngineError::InconsistentIndex {
            detail: format!(
                "stage {k} still has {} of {} bands to run after its upstream finished",
                stage.tile_plan.tile_count() - stage.cursor,
                stage.tile_plan.tile_count()
            ),
        });
    }
    Ok(produced)
}

/// Runs stage `k`'s current band onto the tail of stage `k + 1`'s halo
/// window (or, for the last stage, to `outlet`), then every downstream
/// band that band made ready. Returns the values the last stage
/// produced.
fn hand_off(
    stages: &mut [StreamStage<'_>],
    k: usize,
    outlet: &mut Outlet<'_>,
) -> Result<u64, EngineError> {
    let (head, rest) = stages.split_at_mut(k + 1);
    let up = &mut head[k];
    let Some(down) = rest.first_mut() else {
        return up.run_band_out(outlet);
    };
    let Some(tile) = up.current() else {
        return Ok(0);
    };
    let (start, len) = (tile.start_rank, tile.len);
    let len = usize::try_from(len).map_err(|_| EngineError::DomainTooLarge { points: len })?;
    down.evict_below_halo()?;
    let origin = down.filled;
    up.run_band(down.tail(start)?, origin)?;
    down.admit(len);
    let mut produced = 0u64;
    while stages[k + 1].ready() {
        produced += hand_off(stages, k + 1, outlet)?;
    }
    Ok(produced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{pack_grid, MappedGrid};
    use crate::stream::SliceSource;
    use stencil_core::StencilSpec;
    use stencil_polyhedral::Polyhedron;

    fn compute(w: &[f64]) -> f64 {
        w[2] + 0.25 * (w[0] + w[1] + w[3] + w[4] - 4.0 * w[2])
    }

    fn denoise_plan(rows: i64, cols: i64) -> MemorySystemPlan {
        let window = [[-1, 0], [0, -1], [0, 0], [0, 1], [1, 0]]
            .iter()
            .map(|o| Point::new(o))
            .collect();
        let iter = Polyhedron::rect(&[(1, rows - 2), (1, cols - 2)]);
        MemorySystemPlan::generate(&StencilSpec::new("denoise", iter, window).unwrap()).unwrap()
    }

    fn stage<'a>(
        plan: &MemorySystemPlan,
        [in_idx, out_idx]: [&'a DomainIndex; 2],
        chunk: u64,
    ) -> StreamStage<'a> {
        static KERNEL: RowKernel<'static> = RowKernel::Closure(&compute);
        let tiles = plan.tile_plan_chunked(chunk).unwrap();
        StreamStage::new(
            plan,
            in_idx,
            out_idx,
            tiles,
            &KERNEL,
            KernelBackend::Closure,
            Some(chunk),
            1,
        )
        .unwrap()
    }

    #[test]
    fn batched_eviction_keeps_the_owned_window_identical_to_the_mapped_one() {
        // 38 iteration rows in bands of 7: the last band is short.
        let plan = denoise_plan(40, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let out_idx = plan.iteration_domain().index().unwrap();
        let vals: Vec<f64> = (0..in_idx.len())
            .map(|r| (r % 97) as f64 * 0.5 - 11.0)
            .collect();
        let path = std::env::temp_dir().join(format!("chain_window_{}.sgrid", std::process::id()));
        pack_grid(&path, &[vals.len() as u64], &vals).unwrap();

        let mut owned = stage(&plan, [&in_idx, &out_idx], 7);
        let grid = MappedGrid::open(&path).unwrap();
        let mut mapped = stage(&plan, [&in_idx, &out_idx], 7);
        mapped.attach_resident(grid.values()).unwrap();
        // The mapped stage admits in place, with no source at all.
        let mut source = SliceSource::new(&vals);
        let mut bands = 0usize;
        while let Some(tile) = owned.current() {
            let len = usize::try_from(tile.len).unwrap();
            owned.evict_below_halo().unwrap();
            owned.pull(Some(&mut source)).unwrap();
            mapped.evict_below_halo().unwrap();
            mapped.pull(None).unwrap();
            bands += 1;
            assert_eq!(owned.resident, mapped.resident, "band {bands}");
            let len_w = mapped.window_len().unwrap();
            let base = usize::try_from(mapped.in_idx.rows()[mapped.resident.start].base).unwrap();
            let window = &grid.values()[base..base + len_w];
            assert_eq!(owned.filled, len_w, "band {bands}");
            assert!(
                owned.window[..owned.filled]
                    .iter()
                    .zip(window)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "band {bands}: owned window diverges from the mapped slice"
            );
            let (mut out, mut mapped_out) = (Vec::new(), vec![f64::NAN; 3]);
            owned.run_band(&mut out, 0).unwrap();
            mapped.run_band(&mut mapped_out, 0).unwrap();
            assert_eq!((out.len(), mapped_out.len()), (len, len));
            assert!(out
                .iter()
                .zip(&mapped_out)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            for s in [&owned, &mapped] {
                assert_eq!(s.peak_resident(), s.runtime_bound(), "band {bands}");
            }
        }
        assert!(mapped.current().is_none());
        assert_eq!(bands, 6);
        assert_eq!(owned.values_in(), vals.len() as u64);
        assert_eq!(mapped.values_in(), vals.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_owned_window_is_reserved_once_at_the_planned_bound() {
        // Bands of 7 rows landing on a downstream window, one worker: the
        // window is reserved at the planned bound before the first band
        // and never moves, and each band appends exactly its outputs.
        let plan = denoise_plan(40, 24);
        let in_idx = plan.input_domain().index().unwrap();
        let out_idx = plan.iteration_domain().index().unwrap();
        let vals: Vec<f64> = (0..in_idx.len()).map(|r| (r % 13) as f64).collect();
        let tiles = plan.tile_plan_chunked(7).unwrap();
        let bound = usize::try_from(plan.planned_residency_bound(&tiles).unwrap()).unwrap();
        let mut owned = stage(&plan, [&in_idx, &out_idx], 7);
        let mut source = SliceSource::new(&vals);
        let mut at = None;
        while owned.current().is_some() {
            owned.evict_below_halo().unwrap();
            owned.pull(Some(&mut source)).unwrap();
            assert_eq!(owned.window.capacity(), bound);
            assert!(owned.filled <= bound);
            let place = owned.window.as_ptr();
            assert_eq!(*at.get_or_insert(place), place, "the window moved");
            let mut out = vec![f64::NAN; 2];
            let len = usize::try_from(owned.current().unwrap().len).unwrap();
            owned.run_band(&mut out, 1).unwrap();
            assert_eq!(out.len(), 1 + len);
            assert!(out[0].is_nan(), "a band keeps what lies before its origin");
        }
        assert_eq!(owned.peak_resident(), owned.runtime_bound());
        assert_eq!(owned.runtime_bound(), bound as u64);
    }

    #[test]
    fn one_dimensional_bands_are_clipped_slices_of_the_one_row() {
        let spec = StencilSpec::new(
            "blur1d",
            Polyhedron::rect(&[(1, 40)]),
            vec![Point::new(&[-1]), Point::new(&[0]), Point::new(&[1])],
        )
        .unwrap();
        let plan = MemorySystemPlan::generate(&spec).unwrap();
        let idx = plan.iteration_domain().index().unwrap();
        let tiles = plan.tile_plan_chunked(8).unwrap();
        let mut next = 0u64;
        for tile in tiles.tiles() {
            let rows = band_rows(&idx, tile).unwrap();
            assert!(matches!(rows, Cow::Owned(_)), "band {}", tile.id);
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].base, next);
            assert_eq!((rows[0].lo, rows[0].hi), tile.band);
            next += rows[0].len();
        }
        assert_eq!(next, 40);

        // Past 1-D a band is a borrowed run of whole rows.
        let plan = denoise_plan(20, 24);
        let idx = plan.iteration_domain().index().unwrap();
        for tile in plan.tile_plan_chunked(5).unwrap().tiles() {
            let rows = band_rows(&idx, tile).unwrap();
            assert!(matches!(rows, Cow::Borrowed(_)));
            assert_eq!(rows.iter().map(Row::len).sum::<u64>(), tile.len);
        }
    }
}
