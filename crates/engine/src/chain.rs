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

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use stencil_core::{row_outer_span, MemorySystemPlan, TilePlan};
use stencil_polyhedral::{DomainIndex, Point, Row};
use stencil_telemetry::HighWater;

use crate::compile::KernelBackend;
use crate::error::EngineError;
use crate::format::MappedGrid;
use crate::report::StreamReport;
use crate::rowexec::{
    execute_band_parallel, execute_rows, plan_offsets, threads_for, RankWindow, RowKernel, RowStats,
};
use crate::stream::RowSource;

/// What a [`StreamStage::pump`] call produced.
pub(crate) enum StagePump {
    /// The stage needs the next input row (of this many values) fed via
    /// [`StreamStage::feed`] before it can make progress.
    Need(usize),
    /// One finished output row, in lexicographic rank order.
    Row(Vec<f64>),
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

/// One kernel stage of a streaming pipeline, as an incremental state
/// machine over the band schedule of its [`TilePlan`].
pub(crate) struct StreamStage<'k> {
    tile_plan: TilePlan,
    in_idx: DomainIndex,
    dims: usize,
    offsets: Vec<Point>,
    kernel: RowKernel<'k>,
    backend: KernelBackend,
    chunk_rows: u64,
    worker_count: usize,
    // Rolling halo window state. With `mapped` set the whole input is
    // resident in mapped pages, `window` stays empty, and the resident
    // range alone tracks the logical halo window (rank == map offset,
    // guaranteed by the contiguity check in `new`).
    mapped: Option<MappedGrid>,
    window: Vec<f64>,
    resident: Range<usize>,
    cursor: usize,
    evicted: bool,
    pending: Option<PendingPull>,
    out_rows: VecDeque<Vec<f64>>,
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
    /// construction) and checks that the stage's input index is in
    /// contiguous stream order.
    pub(crate) fn new(
        plan: &MemorySystemPlan,
        tile_plan: TilePlan,
        kernel: RowKernel<'k>,
        backend: KernelBackend,
        chunk_rows: Option<u64>,
        threads: usize,
    ) -> Result<Self, EngineError> {
        let in_idx = plan
            .input_domain()
            .index()
            .map_err(|e| EngineError::Plan(e.into()))?;

        // Streaming addresses residents by rank offset from the window
        // base, which requires the input stream to be exactly the rows
        // in order — i.e. contiguous monotone bases.
        let mut expect_base = 0u64;
        for row in in_idx.rows() {
            if row.base != expect_base {
                return Err(EngineError::InconsistentIndex {
                    detail: format!(
                        "input row at {} has base {} but the stream is at rank {expect_base}; \
                         streaming requires contiguous rank order",
                        row.prefix, row.base
                    ),
                });
            }
            expect_base += row.len();
        }

        Ok(Self {
            dims: in_idx.dims(),
            offsets: plan_offsets(plan),
            kernel,
            backend,
            chunk_rows: chunk_rows.unwrap_or(0),
            worker_count: threads_for(threads, usize::MAX),
            mapped: None,
            window: Vec::new(),
            resident: 0..0,
            cursor: 0,
            evicted: false,
            pending: None,
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

    /// Attaches a memory-mapped input covering the whole stream: bands
    /// execute as slices of the mapped payload and the stage never
    /// reports [`StagePump::Need`] — zero copies into the halo window.
    ///
    /// Only valid on a fresh stage (nothing pulled yet) whose input
    /// domain matches the mapped element count exactly.
    pub(crate) fn attach_mapped(&mut self, grid: MappedGrid) -> Result<(), EngineError> {
        if self.rows_in > 0 || self.pending.is_some() {
            return Err(EngineError::InconsistentIndex {
                detail: "mapped input attached to a stage that already pulled rows".into(),
            });
        }
        let expected: u64 = self.in_idx.rows().iter().map(Row::len).sum();
        let got = grid.values().len() as u64;
        if got != expected {
            return Err(EngineError::InputSizeMismatch { expected, got });
        }
        self.mapped = Some(grid);
        Ok(())
    }

    /// Whether a mapped input is attached (the zero-copy path).
    pub(crate) fn is_mapped(&self) -> bool {
        self.mapped.is_some()
    }

    /// Values pulled into (or logically admitted to) the halo window.
    pub(crate) fn values_in(&self) -> u64 {
        self.values_in
    }

    /// Advances the stage until it emits a row, needs input, or
    /// finishes. Emitted rows drain before the next band pulls, so a
    /// downstream consumer is never more than one band behind.
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
                if self.mapped.is_some() {
                    // The row is already resident in the mapping:
                    // admit it logically instead of asking upstream.
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

    /// Mapped-mode twin of [`feed`](Self::feed): the row's values are
    /// already resident in the mapping, so only the window bookkeeping
    /// advances — nothing is copied.
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
    /// mapped path (both identical by the contiguity invariant).
    fn window_len(&self) -> Result<usize, EngineError> {
        if self.mapped.is_none() {
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
    /// before pulling keeps the peak at one band's halo window.
    fn evict_below_halo(&mut self) -> Result<(), EngineError> {
        let tile = &self.tile_plan.tiles()[self.cursor];
        let rows = self.in_idx.rows();
        while self.resident.start < self.resident.end
            && tile.row_below_halo(row_outer_span(&rows[self.resident.start], self.dims))
        {
            if self.mapped.is_none() {
                let n = usize::try_from(rows[self.resident.start].len()).map_err(|_| {
                    EngineError::DomainTooLarge {
                        points: rows[self.resident.start].len(),
                    }
                })?;
                self.window.drain(0..n);
            }
            self.resident.start += 1;
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
    /// executor and queues its output rows.
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
        let mut out_buf = vec![0.0f64; band_len];
        let base = rows.get(self.resident.start).map_or(0, |r| r.base);
        // Mapped path: the "window" is a borrowed slice of the mapped
        // payload (rank == offset by the contiguity invariant); nothing
        // was ever copied in. Copying path: the owned rolling buffer.
        let vals: &[f64] = match &self.mapped {
            Some(grid) => {
                let start = usize::try_from(base)
                    .map_err(|_| EngineError::DomainTooLarge { points: base })?;
                start
                    .checked_add(window_len)
                    .and_then(|end| grid.values().get(start..end))
                    .ok_or_else(|| EngineError::InconsistentIndex {
                        detail: format!(
                            "band {} window [{base}, +{window_len}) exceeds the mapped payload",
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
        };
        let band_rows = band_idx.rows();
        let workers = threads_for(self.worker_count, band_rows.len());
        let kernel = &self.kernel;
        let band_stats = if workers <= 1 {
            catch_unwind(AssertUnwindSafe(|| {
                execute_rows(band_rows, 0, &self.offsets, &win, kernel, &mut out_buf)
            }))
            .map_err(|_| EngineError::WorkerPanic)??
        } else {
            execute_band_parallel(
                band_rows,
                &self.offsets,
                &win,
                kernel,
                &mut out_buf,
                workers,
            )?
        };
        self.stats.merge(band_stats);

        for row in band_rows {
            let start = usize::try_from(row.base)
                .map_err(|_| EngineError::DomainTooLarge { points: row.base })?;
            let len = usize::try_from(row.len())
                .map_err(|_| EngineError::DomainTooLarge { points: row.len() })?;
            let slice = out_buf
                .get(start..)
                .and_then(|s| s.get(..len))
                .ok_or_else(|| EngineError::InconsistentIndex {
                    detail: format!(
                        "band {} output row at {} exceeds the band buffer",
                        tile.id, row.prefix
                    ),
                })?;
            self.out_rows.push_back(slice.to_vec());
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

    /// The finished stage's report, with the legacy field semantics.
    pub(crate) fn report(&self, elapsed: std::time::Duration) -> StreamReport {
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
/// Returns `None` when the pipeline is exhausted.
pub(crate) fn pump_chain(
    stages: &mut [StreamStage<'_>],
    source: &mut dyn RowSource,
    buf: &mut Vec<f64>,
) -> Result<Option<Vec<f64>>, EngineError> {
    let (upstream, last) = stages.split_at_mut(stages.len() - 1);
    let last = &mut last[0];
    loop {
        match last.pump()? {
            StagePump::Row(row) => return Ok(Some(row)),
            StagePump::Done => return Ok(None),
            StagePump::Need(len) => {
                if upstream.is_empty() {
                    buf.clear();
                    source.fill_row(len, buf)?;
                    last.feed(buf)?;
                } else {
                    // An upstream stage emits one row per *band* row. In
                    // 1-D domains bands subdivide the single index row,
                    // so accumulate emissions (they arrive in rank
                    // order) until the downstream request is whole.
                    let mut row: Vec<f64> = Vec::new();
                    while row.len() < len {
                        match pump_chain(upstream, source, buf)? {
                            Some(part) if row.is_empty() => row = part,
                            Some(part) => row.extend_from_slice(&part),
                            None => {
                                return Err(EngineError::Source {
                                    detail: format!(
                                        "upstream stage exhausted while {} more input values \
                                         were required",
                                        len - row.len()
                                    ),
                                })
                            }
                        }
                    }
                    last.feed(&row)?;
                }
            }
        }
    }
}
