//! The pump-driven streaming stage machine behind [`crate::Session`].
//!
//! A monolithic streaming loop drives a single kernel from inside one
//! function: it owns the control flow, pulling from the source and
//! pushing to the sink. Temporal chaining inverts that: each stage
//! becomes a [`StreamStage`] state machine that is *pumped* for output
//! rows and *fed* input rows, so stage `k`'s output rows can flow
//! straight into stage `k + 1`'s halo window without an intermediate
//! grid. [`pump_chain`] wires the stages: it pumps the last stage, and
//! whenever a stage reports [`StagePump::Need`], the demand recurses
//! upstream until it reaches the real [`RowSource`].
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
use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

use stencil_core::{row_outer_span, MemorySystemPlan, TilePlan};
use stencil_polyhedral::{DomainIndex, Point, Row};
use stencil_telemetry::HighWater;

use crate::compile::KernelBackend;
use crate::error::EngineError;
use crate::report::{RunReport, StreamReport, TileReport};
use crate::rowexec::{
    execute_band_parallel, plan_offsets, prefixes_ascend, split_band_rows, threads_for, RankWindow,
    RowChunk, RowKernel, RowStats,
};
use crate::stream::RowSource;

/// What a [`StreamStage::pump`] call produced.
pub(crate) enum StagePump {
    /// The stage needs the next input row (of this many values) fed via
    /// [`StreamStage::feed`] before it can make progress.
    Need(usize),
    /// One finished output row, in lexicographic rank order: a range of
    /// the stage's band buffer ([`StreamStage::band_out`]), valid until
    /// the stage is pumped again.
    Row(Range<usize>),
    /// Every band has executed and every output row has been emitted.
    Done,
}

/// A row pull the stage has announced but not yet received.
struct PendingPull {
    /// Number of values the next [`StreamStage::feed`] must deliver.
    len: usize,
    /// The row precedes the first band's halo: honor stream order by
    /// consuming it, but never make it resident.
    discard: bool,
}

/// One kernel stage, as an incremental state machine over the band
/// schedule of its [`TilePlan`] — the only code that runs a band.
pub(crate) struct StreamStage<'k> {
    tile_plan: TilePlan,
    in_idx: Cow<'k, DomainIndex>,
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
    // check in `new`).
    resident_input: Option<&'k [f64]>,
    window: Vec<f64>,
    resident: Range<usize>,
    cursor: usize,
    evicted: bool,
    pending: Option<PendingPull>,
    // The current band's outputs, reused across bands; `out_rows` are
    // the not-yet-emitted rows as ranges of it.
    out_buf: Vec<f64>,
    out_rows: VecDeque<Range<usize>>,
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
    /// construction) and the stage's input index, and checks that the
    /// index is in contiguous stream order. A stage runs on at most
    /// `workers` workers.
    pub(crate) fn new(
        plan: &MemorySystemPlan,
        in_idx: Cow<'k, DomainIndex>,
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
            in_ascending: prefixes_ascend(&in_idx),
            dims: in_idx.dims(),
            offsets: plan_offsets(plan),
            kernel,
            backend,
            chunk_rows: chunk_rows.unwrap_or(0),
            worker_count: workers,
            resident_input: None,
            window: Vec::new(),
            resident: 0..0,
            cursor: 0,
            evicted: false,
            pending: None,
            out_buf: Vec::new(),
            out_rows: VecDeque::new(),
            gauge: HighWater::new(),
            resident_bound: 0,
            rows_in: 0,
            values_in: 0,
            rows_out: 0,
            stats: RowStats::default(),
            tile_plan,
            in_idx,
        })
    }

    /// Attaches an input that is resident as a whole — a mapped
    /// `.sgrid` payload or an in-memory grid: bands execute as slices of
    /// it and the stage never reports [`StagePump::Need`] — zero copies
    /// into the halo window.
    ///
    /// Only valid on a fresh stage (nothing pulled yet) whose input
    /// index covers exactly `values.len()` points.
    pub(crate) fn attach_resident(&mut self, values: &'k [f64]) -> Result<(), EngineError> {
        if self.rows_in > 0 || self.pending.is_some() {
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

    /// The current band's output buffer, which [`StagePump::Row`]
    /// ranges index.
    pub(crate) fn band_out(&self) -> &[f64] {
        &self.out_buf
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
        let band_idx = tiles
            .iter()
            .map(|t| {
                t.iter_domain
                    .index()
                    .map_err(|e| EngineError::Plan(e.into()))
            })
            .collect::<Result<Vec<_>, _>>()?;

        // Disjoint per-band output slices: bands are contiguous rank ranges.
        let mut chunks: Vec<RowChunk<'_, '_>> = Vec::with_capacity(tiles.len());
        let mut rest: &mut [f64] = &mut outputs;
        for (tile, idx) in tiles.iter().zip(&band_idx) {
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
            chunks.push((idx.rows(), head));
            rest = tail;
        }
        let win = RankWindow {
            idx: &self.in_idx,
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

    /// Advances the stage until it emits a row, needs input, or
    /// finishes. Emitted rows drain before the next band pulls, so a
    /// downstream consumer is never more than one band behind — and the
    /// band buffer an emitted range points into is only overwritten once
    /// every row of it has been handed off.
    pub(crate) fn pump(&mut self) -> Result<StagePump, EngineError> {
        loop {
            if let Some(row) = self.out_rows.pop_front() {
                self.rows_out += 1;
                return Ok(StagePump::Row(row));
            }
            if let Some(p) = &self.pending {
                // Announced but unfed pull: re-announce rather than
                // desynchronize the stream.
                return Ok(StagePump::Need(p.len));
            }
            if self.cursor >= self.tile_plan.tile_count() {
                return Ok(StagePump::Done);
            }
            if !self.evicted {
                self.evict_below_halo()?;
                self.evicted = true;
            }
            if let Some(need) = self.next_pull()? {
                if self.resident_input.is_some() {
                    // The row is already resident: admit it logically
                    // instead of asking upstream.
                    self.absorb(&need);
                    continue;
                }
                let len = need.len;
                self.pending = Some(need);
                return Ok(StagePump::Need(len));
            }
            self.execute_band()?;
            self.cursor += 1;
            self.evicted = false;
        }
    }

    /// Delivers the row announced by the last [`StagePump::Need`].
    pub(crate) fn feed(&mut self, row: &[f64]) -> Result<(), EngineError> {
        let Some(p) = self.pending.take() else {
            return Err(EngineError::InconsistentIndex {
                detail: "stage fed a row it did not request".into(),
            });
        };
        if row.len() != p.len {
            return Err(EngineError::Source {
                detail: format!(
                    "source produced {} of {} requested values",
                    row.len(),
                    p.len
                ),
            });
        }
        if p.discard {
            // Consumed for stream order only; never resident.
            self.resident.start = self.resident.end + 1;
        } else {
            self.window.extend_from_slice(row);
        }
        self.resident.end += 1;
        self.rows_in += 1;
        self.values_in += p.len as u64;
        Ok(())
    }

    /// Resident-input twin of [`feed`](Self::feed): the row's values
    /// are already resident, so only the window bookkeeping advances —
    /// nothing is copied.
    fn absorb(&mut self, p: &PendingPull) {
        if p.discard {
            self.resident.start = self.resident.end + 1;
        }
        self.resident.end += 1;
        self.rows_in += 1;
        self.values_in += p.len as u64;
    }

    /// The logical halo-window length in values: the owned buffer's
    /// length on the copying path, the resident rows' rank span on the
    /// resident path (both identical by the contiguity invariant).
    fn window_len(&self) -> Result<usize, EngineError> {
        if self.resident_input.is_none() {
            return Ok(self.window.len());
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
    /// before pulling keeps the peak at one band's halo window. The
    /// owned window is compacted once per band: the evicted rows are
    /// summed first and drained in one move.
    fn evict_below_halo(&mut self) -> Result<(), EngineError> {
        let tile = &self.tile_plan.tiles()[self.cursor];
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
            self.window.drain(0..n);
        }
        Ok(())
    }

    /// The next pull the current band still needs, if any.
    fn next_pull(&self) -> Result<Option<PendingPull>, EngineError> {
        let tile = &self.tile_plan.tiles()[self.cursor];
        let rows = self.in_idx.rows();
        if self.resident.end >= rows.len() {
            return Ok(None);
        }
        let row = &rows[self.resident.end];
        let span = row_outer_span(row, self.dims);
        if tile.row_above_halo(span) {
            return Ok(None);
        }
        let len = usize::try_from(row.len())
            .map_err(|_| EngineError::DomainTooLarge { points: row.len() })?;
        Ok(Some(PendingPull {
            len,
            discard: tile.row_below_halo(span),
        }))
    }

    /// Runs the current band through the shared sweep/fast/gather
    /// executor into the reused band buffer and queues its output rows
    /// as ranges of it.
    fn execute_band(&mut self) -> Result<(), EngineError> {
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

        let band_idx = tile
            .iter_domain
            .index()
            .map_err(|e| EngineError::Plan(e.into()))?;
        let band_len = usize::try_from(tile.len)
            .map_err(|_| EngineError::DomainTooLarge { points: tile.len })?;
        // Every band row is written by the executor (or it errors), so
        // the previous band's values never need clearing.
        self.out_buf.resize(band_len, 0.0);
        let base = rows.get(self.resident.start).map_or(0, |r| r.base);
        // Resident path: the "window" is a borrowed slice of the whole
        // input (rank == offset by the contiguity invariant); nothing
        // was ever copied in. Copying path: the owned rolling buffer.
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
            None => &self.window,
        };
        let win = RankWindow {
            idx: &self.in_idx,
            vals,
            base,
            ascending: self.in_ascending,
        };
        let band_rows = band_idx.rows();
        let workers = threads_for(self.worker_count, band_rows.len());
        let chunks = split_band_rows(band_rows, &mut self.out_buf, workers)?;
        for (stats, _) in execute_band_parallel(chunks, &self.offsets, &win, self.kernel, workers)?
        {
            self.stats.merge(stats);
        }

        for row in band_rows {
            let start = usize::try_from(row.base)
                .map_err(|_| EngineError::DomainTooLarge { points: row.base })?;
            let len = usize::try_from(row.len())
                .map_err(|_| EngineError::DomainTooLarge { points: row.len() })?;
            let range = start
                .checked_add(len)
                .filter(|&end| end <= self.out_buf.len())
                .map(|end| start..end)
                .ok_or_else(|| EngineError::InconsistentIndex {
                    detail: format!(
                        "band {} output row at {} exceeds the band buffer",
                        tile.id, row.prefix
                    ),
                })?;
            self.out_rows.push_back(range);
        }
        Ok(())
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

/// Pumps the last stage of `stages` for one output row, recursively
/// satisfying upstream demand; the first stage pulls from `source`.
/// The row is borrowed from the last stage's band buffer. Returns
/// `None` when the pipeline is exhausted.
pub(crate) fn pump_chain<'s>(
    stages: &'s mut [StreamStage<'_>],
    source: &mut dyn RowSource,
    buf: &mut Vec<f64>,
) -> Result<Option<&'s [f64]>, EngineError> {
    let (upstream, last) = stages.split_at_mut(stages.len() - 1);
    let last = &mut last[0];
    loop {
        match last.pump()? {
            StagePump::Row(range) => return Ok(Some(&last.band_out()[range])),
            StagePump::Done => return Ok(None),
            StagePump::Need(len) if upstream.is_empty() => {
                buf.clear();
                source.fill_row(len, buf)?;
                last.feed(buf)?;
            }
            StagePump::Need(len) => {
                // A whole upstream row feeds straight from the upstream
                // band buffer. An upstream stage emits one row per
                // *band* row, so in 1-D domains, where bands subdivide
                // the single index row, accumulate the shorter parts
                // (they arrive in rank order) until the request is whole.
                let first = next_part(upstream, source, buf, len, 0)?;
                if first.len() >= len {
                    last.feed(first)?;
                    continue;
                }
                let mut row = first.to_vec();
                while row.len() < len {
                    row.extend_from_slice(next_part(upstream, source, buf, len, row.len())?);
                }
                last.feed(&row)?;
            }
        }
    }
}

/// The next upstream output row towards a downstream request of `len`
/// values of which `have` are already collected.
fn next_part<'s>(
    upstream: &'s mut [StreamStage<'_>],
    source: &mut dyn RowSource,
    buf: &mut Vec<f64>,
    len: usize,
    have: usize,
) -> Result<&'s [f64], EngineError> {
    pump_chain(upstream, source, buf)?.ok_or_else(|| EngineError::Source {
        detail: format!(
            "upstream stage exhausted while {} more input values were required",
            len - have
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{pack_grid, MappedGrid};
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

    fn stage(plan: &MemorySystemPlan, chunk_rows: u64) -> StreamStage<'static> {
        static KERNEL: RowKernel<'static> = RowKernel::Closure(&compute);
        let tiles = plan.tile_plan_chunked(chunk_rows).unwrap();
        StreamStage::new(
            plan,
            Cow::Owned(plan.input_domain().index().unwrap()),
            tiles,
            &KERNEL,
            KernelBackend::Closure,
            Some(chunk_rows),
            1,
        )
        .unwrap()
    }

    /// Pumps `stage` through its next band, feeding any pull from
    /// `vals` at rank `*fed`, and returns the band's outputs — or `None`
    /// once every band has run.
    fn next_band(stage: &mut StreamStage<'_>, vals: &[f64], fed: &mut usize) -> Option<Vec<f64>> {
        let mut out = Vec::new();
        loop {
            match stage.pump().unwrap() {
                StagePump::Need(len) => {
                    stage.feed(&vals[*fed..*fed + len]).unwrap();
                    *fed += len;
                }
                StagePump::Row(range) => {
                    out.extend_from_slice(&stage.band_out()[range]);
                    if stage.out_rows.is_empty() {
                        return Some(out);
                    }
                }
                StagePump::Done => return None,
            }
        }
    }

    #[test]
    fn batched_eviction_keeps_the_owned_window_identical_to_the_mapped_one() {
        // 38 iteration rows in bands of 7: the last band is short.
        let plan = denoise_plan(40, 24);
        let vals: Vec<f64> = (0..plan.input_domain().index().unwrap().len())
            .map(|r| (r % 97) as f64 * 0.5 - 11.0)
            .collect();
        let path = std::env::temp_dir().join(format!("chain_window_{}.sgrid", std::process::id()));
        pack_grid(&path, &[vals.len() as u64], &vals).unwrap();

        let mut owned = stage(&plan, 7);
        let grid = MappedGrid::open(&path).unwrap();
        let mut mapped = stage(&plan, 7);
        mapped.attach_resident(grid.values()).unwrap();
        let (mut fed, mut never_fed) = (0usize, 0usize);
        let mut bands = 0usize;
        while let Some(out) = next_band(&mut owned, &vals, &mut fed) {
            let mapped_out = next_band(&mut mapped, &[], &mut never_fed).unwrap();
            bands += 1;
            assert_eq!(owned.resident, mapped.resident, "band {bands}");
            let len = mapped.window_len().unwrap();
            let base = usize::try_from(mapped.in_idx.rows()[mapped.resident.start].base).unwrap();
            let window = &grid.values()[base..base + len];
            assert_eq!(owned.window.len(), len, "band {bands}");
            assert!(
                owned
                    .window
                    .iter()
                    .zip(window)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "band {bands}: owned window diverges from the mapped slice"
            );
            assert!(out
                .iter()
                .zip(&mapped_out)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(out.len(), mapped_out.len());
            for s in [&owned, &mapped] {
                assert_eq!(s.peak_resident(), s.runtime_bound(), "band {bands}");
            }
        }
        assert!(next_band(&mut mapped, &[], &mut never_fed).is_none());
        assert_eq!(bands, 6);
        assert_eq!((fed, never_fed), (vals.len(), 0));
        std::fs::remove_file(&path).ok();
    }
}
