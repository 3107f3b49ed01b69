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
//! In core, a stage is the same machine over its whole resident input
//! ([`StreamStage::attach_resident`]), its bands split across the
//! workers and writing their outputs in place
//! ([`StreamStage::run_in_place`]): [`StreamStage`] is the only code
//! that runs a band.

use std::borrow::Cow;
use std::ops::Range;
use std::time::{Duration, Instant};

use stencil_core::{row_outer_span, MemorySystemPlan, Tile, TilePlan};
use stencil_polyhedral::{DomainIndex, Point, Row};
use stencil_telemetry::HighWater;

use crate::compile::KernelBackend;
use crate::error::EngineError;
use crate::report::{RunReport, StreamReport, TileReport};
use crate::rowexec::{
    execute_band_parallel, plan_offsets, prefixes_ascend, split_band_rows, threads_for, RankWindow,
    RowChunk, RowKernel, RowStats,
};
use crate::stream::{RowSink, RowSource};

/// One kernel stage, run band by band over the band schedule of its
/// [`TilePlan`] — the only code that runs a band.
pub(crate) struct StreamStage<'k> {
    tile_plan: TilePlan,
    in_idx: &'k DomainIndex,
    // The stage's iteration index: each band's rows are a rank range of
    // it.
    out_idx: &'k DomainIndex,
    // Whether `in_idx` may be walked forward (`RankWindow::ascending`).
    in_ascending: bool,
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
    // the source, or written in place by the upstream stage. Past
    // `filled` the buffer keeps its high-water length, so a band landing
    // on the tail reuses it instead of growing it again.
    resident_input: Option<&'k [f64]>,
    window: Vec<f64>,
    filled: usize,
    // Input rows wholly admitted and not yet evicted.
    resident: Range<usize>,
    // Input ranks admitted so far: the rank the next admitted value has.
    admitted: u64,
    // The next band to run.
    cursor: usize,
    // The last stage's band outputs, reused across bands.
    out_buf: Vec<f64>,
    // Telemetry.
    gauge: HighWater,
    resident_bound: u64,
    rows_in: u64,
    values_in: u64,
    rows_out: u64,
    stats: RowStats,
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
        // in order — i.e. contiguous monotone bases.
        let mut expect_base = 0u64;
        for row in in_idx.rows() {
            if row.base != expect_base {
                return Err(EngineError::InconsistentIndex {
                    detail: format!(
                        "input row at {} has base {} but the stream is at rank {expect_base}; \
                         a stage requires contiguous rank order",
                        row.prefix, row.base
                    ),
                });
            }
            expect_base += row.len();
        }

        Ok(Self {
            in_ascending: prefixes_ascend(in_idx),
            dims: in_idx.dims(),
            offsets: plan_offsets(plan),
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
            stats: RowStats::default(),
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

    /// Runs every band over the attached resident input, each band
    /// writing its outputs in place into one zeroed buffer of the
    /// stage's total outputs, and returns that buffer with the stage's
    /// [`RunReport`] (`started`: when the stage began). Bands, not rows,
    /// split across the workers: each band reads the whole resident
    /// input, so no halo window moves.
    pub(crate) fn run_in_place(
        &self,
        started: Instant,
    ) -> Result<(Vec<f64>, RunReport), EngineError> {
        let input = self
            .resident_input
            .ok_or_else(|| EngineError::InconsistentIndex {
                detail: "an in-place stage needs its whole input resident".into(),
            })?;
        let tiles = self.tile_plan.tiles();
        let total = usize::try_from(self.tile_plan.total_outputs()).map_err(|_| {
            EngineError::DomainTooLarge {
                points: self.tile_plan.total_outputs(),
            }
        })?;
        let mut outputs = vec![0.0f64; total];
        let band_rows = tiles
            .iter()
            .map(|t| band_rows(self.out_idx, t))
            .collect::<Result<Vec<_>, _>>()?;

        // Disjoint per-band output slices: bands are contiguous rank ranges.
        let mut chunks: Vec<RowChunk<'_, '_>> = Vec::with_capacity(tiles.len());
        let mut rest: &mut [f64] = &mut outputs;
        for (tile, rows) in tiles.iter().zip(&band_rows) {
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
            chunks.push((rows, head));
            rest = tail;
        }
        let win = RankWindow {
            idx: self.in_idx,
            vals: input,
            base: 0,
            ascending: self.in_ascending,
        };
        let per_band =
            execute_band_parallel(chunks, &self.offsets, &win, self.kernel, self.worker_count)?;

        let per_tile = tiles
            .iter()
            .zip(per_band)
            .map(|(tile, (stats, elapsed))| {
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
                    elapsed,
                })
            })
            .collect::<Result<Vec<_>, EngineError>>()?;
        let report = RunReport {
            outputs: self.tile_plan.total_outputs(),
            tiles: self.tile_plan.tile_count(),
            threads: self.worker_count,
            backend: self.backend,
            unroll: self.kernel.unroll(),
            datapath: self.kernel.datapath(),
            halo_elements: per_tile.iter().map(|t| t.halo_elements).sum(),
            elapsed: started.elapsed(),
            per_tile,
        };
        Ok((outputs, report))
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
    /// place when the input is resident. Rows below the halo (never read
    /// by any band) are consumed for stream order and dropped.
    fn pull(&mut self, source: &mut dyn RowSource) -> Result<(), EngineError> {
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

    /// The `len` window slots the upstream band starting at input rank
    /// `start` writes in place: the tail of the halo window.
    fn tail(&mut self, start: u64, len: usize) -> Result<&mut [f64], EngineError> {
        if start != self.admitted {
            return Err(EngineError::InconsistentIndex {
                detail: format!(
                    "an upstream band starts at rank {start} but the stage has admitted {} values",
                    self.admitted
                ),
            });
        }
        let end = self.filled + len;
        if self.window.len() < end {
            self.window.resize(end, 0.0);
        }
        Ok(&mut self.window[self.filled..end])
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
    /// executor, writing its outputs into `out` (one slot per band
    /// iteration), and moves on to the next band.
    fn run_band(&mut self, out: &mut [f64]) -> Result<(), EngineError> {
        let tile = &self.tile_plan.tiles()[self.cursor];
        let rows = self.in_idx.rows();

        let window_len = self.window_len()?;
        self.gauge.observe(window_len as u64);
        let widest = rows[self.resident.clone()]
            .iter()
            .map(Row::len)
            .max()
            .unwrap_or(0);
        self.resident_bound = self.resident_bound.max(self.resident.len() as u64 * widest);

        let base = rows.get(self.resident.start).map_or(0, |r| r.base);
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
            ascending: self.in_ascending,
        };
        let band_rows = band_rows(self.out_idx, tile)?;
        let workers = threads_for(self.worker_count, band_rows.len());
        let chunks = split_band_rows(&band_rows, out, workers)?;
        for (stats, _) in execute_band_parallel(chunks, &self.offsets, &win, self.kernel, workers)?
        {
            self.stats.merge(stats);
        }
        self.rows_out += band_rows.len() as u64;
        self.cursor += 1;
        Ok(())
    }

    /// Runs the current band into the stage's band buffer and pushes
    /// its rows to `sink` in order; returns the values pushed.
    fn run_band_to_sink(&mut self, sink: &mut dyn RowSink) -> Result<u64, EngineError> {
        let tile = &self.tile_plan.tiles()[self.cursor];
        let (start, len) = (tile.start_rank, tile.len);
        let rows = band_rows(self.out_idx, tile)?;
        let band_len =
            usize::try_from(len).map_err(|_| EngineError::DomainTooLarge { points: len })?;
        let mut out = std::mem::take(&mut self.out_buf);
        // Every band slot is written by the executor (or it errors), so
        // the previous band's values never need clearing.
        out.resize(band_len, 0.0);
        let ran = self.run_band(&mut out);
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
            unroll: self.kernel.unroll(),
            datapath: self.kernel.datapath(),
            chunk_rows: self.chunk_rows,
            rows_in: self.rows_in,
            values_in: self.values_in,
            rows_out: self.rows_out,
            peak_resident: self.gauge.get(),
            resident_bound: self.resident_bound,
            sweep_rows: self.stats.sweep,
            fast_rows: self.stats.fast,
            gather_rows: self.stats.gather,
            elapsed,
        }
    }
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

/// Runs a streaming chain as one band wavefront: stage 0 pulls each
/// band's rows from `source` and hands the band to stage 1 in place,
/// every stage runs each band that becomes ready, and the last stage
/// pushes its rows to `sink`. Returns the values pushed.
pub(crate) fn run_chain(
    stages: &mut [StreamStage<'_>],
    source: &mut dyn RowSource,
    sink: &mut dyn RowSink,
) -> Result<u64, EngineError> {
    let mut pushed = 0u64;
    while stages[0].current().is_some() {
        stages[0].evict_below_halo()?;
        stages[0].pull(source)?;
        pushed += hand_off(stages, 0, sink)?;
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
    Ok(pushed)
}

/// Runs stage `k`'s current band onto the tail of stage `k + 1`'s halo
/// window (or, for the last stage, to `sink`), then every downstream
/// band that band made ready. Returns the values pushed to `sink`.
fn hand_off(
    stages: &mut [StreamStage<'_>],
    k: usize,
    sink: &mut dyn RowSink,
) -> Result<u64, EngineError> {
    let (head, rest) = stages.split_at_mut(k + 1);
    let up = &mut head[k];
    let Some(down) = rest.first_mut() else {
        return up.run_band_to_sink(sink);
    };
    let Some(tile) = up.current() else {
        return Ok(0);
    };
    let (start, len) = (tile.start_rank, tile.len);
    let len = usize::try_from(len).map_err(|_| EngineError::DomainTooLarge { points: len })?;
    down.evict_below_halo()?;
    up.run_band(down.tail(start, len)?)?;
    down.admit(len);
    let mut pushed = 0u64;
    while stages[k + 1].ready() {
        pushed += hand_off(stages, k + 1, sink)?;
    }
    Ok(pushed)
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
        // The mapped stage admits in place: pulling from the empty
        // source would fail.
        let (mut source, mut empty) = (SliceSource::new(&vals), SliceSource::new(&[]));
        let mut bands = 0usize;
        while let Some(tile) = owned.current() {
            let len = usize::try_from(tile.len).unwrap();
            owned.evict_below_halo().unwrap();
            owned.pull(&mut source).unwrap();
            mapped.evict_below_halo().unwrap();
            mapped.pull(&mut empty).unwrap();
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
            let (mut out, mut mapped_out) = (vec![0.0; len], vec![0.0; len]);
            owned.run_band(&mut out).unwrap();
            mapped.run_band(&mut mapped_out).unwrap();
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
