//! Streaming endpoints: the row sources and sinks the unified
//! [`crate::Session`] layer pulls from and pushes to out of core.
//!
//! The in-core modes hold the whole input and output grids in RAM, so
//! domain size and memory footprint are coupled. The paper's central
//! observation (Sec. 2.3) is that a stencil only ever needs the *reuse
//! window* — the data between the first and last use of an element —
//! resident at once. Streaming is the software form of that bound:
//!
//! * a [`RowSource`] delivers input values in lexicographic stream
//!   order, one input index row per pull — the same order the
//!   accelerator's off-chip interface consumes;
//! * the session's stage machine ([`crate::ExecMode::Streaming`]) walks
//!   the bands of a [`stencil_core::TilePlan`] in rank order, keeping
//!   exactly the rows of the current band's `halo_band` resident
//!   (evicting before pulling, so peak residency never exceeds one
//!   band's halo: `halo rows × widest row`);
//! * finished bands execute through the same sweep/fast/gather row
//!   executor as the in-core path and push their output rows to a
//!   [`RowSink`] before the next band's rows are pulled — the sink and
//!   source are therefore never more than one band apart (bounded
//!   backpressure);
//! * a source backed by an `.sgrid` file ([`MmapSource`]) can skip the
//!   pull/copy cycle entirely: it advertises the whole payload as a
//!   [`MappedGrid`] and the stage machine executes bands as slices of
//!   the mapped pages — zero parse, zero copy;
//! * the `.sgrid` output end ([`MmapSink`], named for the writable
//!   mapping it once stored rows into) writes through the file: rows
//!   are encoded into one reused buffer and written sequentially, the
//!   header last, then the data synced — no per-page write faults.
//!
//! Residency is telemetry-tracked with a [`stencil_telemetry::HighWater`]
//! gauge; the report's `peak_resident` and its planned `resident_bound`
//! feed the validator rule `peak_resident <= resident_bound`.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use crate::error::EngineError;
use crate::format::{GridFormatError, GridHeader, MappedGrid};

/// Supplies input values in lexicographic stream order.
///
/// [`crate::Session::run_streaming`] pulls one input index row per
/// call, in row order; rows before the first band's halo are pulled and
/// discarded (the stream has no seek), rows after the last band's halo
/// are never pulled. A source therefore needs no random access — a
/// growing file, a generator, or a network stream all fit.
pub trait RowSource {
    /// Appends the next `len` values of the input stream to `buf`.
    ///
    /// # Errors
    ///
    /// A typed [`EngineError`] describing why the row could not be
    /// produced (exhausted stream, truncated input, I/O failure, ...).
    fn fill_row(&mut self, len: usize, buf: &mut Vec<f64>) -> Result<(), EngineError>;

    /// The whole input as one contiguous mapped payload, when this
    /// source is backed by memory-mapped storage. The streaming stage
    /// machine uses this to execute bands as slices of the mapping
    /// instead of pulling row copies through [`fill_row`].
    ///
    /// The default (`None`) keeps plain sources on the copying path.
    ///
    /// [`fill_row`]: RowSource::fill_row
    fn mapped(&self) -> Option<MappedGrid> {
        None
    }
}

/// Receives finished output rows in lexicographic stream order.
pub trait RowSink {
    /// Consumes the next output row.
    ///
    /// # Errors
    ///
    /// A typed [`EngineError`] describing why the row was rejected.
    fn push_row(&mut self, row: &[f64]) -> Result<(), EngineError>;

    /// Finalizes the sink after the last row: verify completeness,
    /// flush buffered bytes, sync written data to storage. The
    /// streaming endpoints call this exactly once at end-of-run; the
    /// default is a no-op for sinks with nothing buffered.
    ///
    /// # Errors
    ///
    /// A typed [`EngineError`] when finalization fails — a failed flush
    /// here means tail rows were lost, so it must not be ignored.
    fn finish(&mut self) -> Result<(), EngineError> {
        Ok(())
    }
}

impl<S: RowSource + ?Sized> RowSource for Box<S> {
    fn fill_row(&mut self, len: usize, buf: &mut Vec<f64>) -> Result<(), EngineError> {
        (**self).fill_row(len, buf)
    }

    fn mapped(&self) -> Option<MappedGrid> {
        (**self).mapped()
    }
}

impl<S: RowSink + ?Sized> RowSink for Box<S> {
    fn push_row(&mut self, row: &[f64]) -> Result<(), EngineError> {
        (**self).push_row(row)
    }

    fn finish(&mut self) -> Result<(), EngineError> {
        (**self).finish()
    }
}

/// A [`RowSource`] over an in-memory slice in rank order — the
/// streaming equivalent of [`crate::InputGrid`]'s value buffer.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    vals: &'a [f64],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Streams `vals` front to back.
    #[must_use]
    pub fn new(vals: &'a [f64]) -> Self {
        Self { vals, pos: 0 }
    }
}

impl RowSource for SliceSource<'_> {
    fn fill_row(&mut self, len: usize, buf: &mut Vec<f64>) -> Result<(), EngineError> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.vals.len());
        let Some(end) = end else {
            return Err(EngineError::Source {
                detail: format!(
                    "slice exhausted: {len} values requested at position {} of {}",
                    self.pos,
                    self.vals.len()
                ),
            });
        };
        buf.extend_from_slice(&self.vals[self.pos..end]);
        self.pos = end;
        Ok(())
    }
}

/// A [`RowSource`] that generates each value from its stream rank — an
/// out-of-core input that never exists in memory at full size.
pub struct FnSource<F> {
    gen: F,
    next_rank: u64,
}

impl<F: FnMut(u64) -> f64> FnSource<F> {
    /// Generates the value of rank `r` as `gen(r)`.
    pub fn new(gen: F) -> Self {
        Self { gen, next_rank: 0 }
    }
}

impl<F> std::fmt::Debug for FnSource<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnSource")
            .field("next_rank", &self.next_rank)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(u64) -> f64> RowSource for FnSource<F> {
    fn fill_row(&mut self, len: usize, buf: &mut Vec<f64>) -> Result<(), EngineError> {
        buf.reserve(len);
        for _ in 0..len {
            buf.push((self.gen)(self.next_rank));
            self.next_rank += 1;
        }
        Ok(())
    }
}

/// A file-backed [`RowSource`]: reads consecutive little-endian `f64`
/// values from any [`std::io::Read`].
///
/// Each pull issues (at most a handful of) bulk reads for the whole
/// row's bytes and decodes in place — one syscall per row against a raw
/// [`std::fs::File`], not one per value. A stream that ends mid-row
/// surfaces as [`EngineError::TruncatedInput`] with the partial-value
/// byte count, so a torn file is distinguishable from a short one.
#[derive(Debug)]
pub struct ReadSource<R> {
    reader: R,
    scratch: Vec<u8>,
}

impl<R: std::io::Read> ReadSource<R> {
    /// Streams little-endian `f64` values from `reader`.
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            scratch: Vec::new(),
        }
    }
}

impl<R: std::io::Read> RowSource for ReadSource<R> {
    fn fill_row(&mut self, len: usize, buf: &mut Vec<f64>) -> Result<(), EngineError> {
        let need = len
            .checked_mul(8)
            .ok_or(EngineError::DomainTooLarge { points: len as u64 })?;
        self.scratch.clear();
        self.scratch.resize(need, 0);
        let mut got = 0;
        while got < need {
            match self.reader.read(&mut self.scratch[got..]) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(EngineError::Source {
                        detail: format!("read failed at byte {got} of {need}: {e}"),
                    })
                }
            }
        }
        if got < need {
            return Err(EngineError::TruncatedInput {
                values_expected: len,
                values_got: got / 8,
                trailing_bytes: got % 8,
            });
        }
        buf.reserve(len);
        for chunk in self.scratch.chunks_exact(8) {
            buf.push(f64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        Ok(())
    }
}

/// An empty run result with room for exactly `len` outputs, its whole
/// 2 MiB pages advised for transparent huge pages before anything
/// writes them: a fresh large result then faults in its aligned
/// interior 2 MiB at a time instead of 4 KiB at a time (EXPERIMENTS.md
/// "Result buffers on huge pages"). Capacity is never rounded up to a
/// huge page: a page that reached past the last output would be
/// resident but unused. Every result a run fills by appending is
/// allocated here: the one-worker in-core sweep's and a streaming
/// `Session::run`'s. The zeroed result of a sweep above one worker and
/// a multi-shard served job's join (which grows shard 0's result) are
/// not (DESIGN.md §9 "Result allocation").
pub(crate) fn result_buffer(len: usize) -> Vec<f64> {
    let mut values = Vec::with_capacity(len);
    memmap2::advise_huge_pages(values.spare_capacity_mut());
    values
}

/// A [`RowSink`] that collects every output row into one vector —
/// useful for tests and for comparing against in-core runs.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// All received values, in arrival (= rank) order.
    pub values: Vec<f64>,
}

impl VecSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl RowSink for VecSink {
    fn push_row(&mut self, row: &[f64]) -> Result<(), EngineError> {
        self.values.extend_from_slice(row);
        Ok(())
    }
}

/// A file-backed [`RowSink`]: writes consecutive little-endian `f64`
/// values to any [`std::io::Write`].
///
/// Each row is encoded into a reusable byte buffer and written with one
/// `write_all`; [`finish`](RowSink::finish) flushes the writer, so tail
/// rows buffered by a [`std::io::BufWriter`] reach the file without the
/// caller having to remember [`into_inner`](WriteSink::into_inner).
#[derive(Debug)]
pub struct WriteSink<W> {
    writer: W,
    scratch: Vec<u8>,
}

impl<W: std::io::Write> WriteSink<W> {
    /// Streams little-endian `f64` values to `writer`.
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            scratch: Vec::new(),
        }
    }

    /// Unwraps the writer (e.g. to inspect it). Prefer letting the
    /// streaming run call [`RowSink::finish`] for flushing.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: std::io::Write> RowSink for WriteSink<W> {
    fn push_row(&mut self, row: &[f64]) -> Result<(), EngineError> {
        self.scratch.clear();
        self.scratch.reserve(row.len() * 8);
        for v in row {
            self.scratch.extend_from_slice(&v.to_le_bytes());
        }
        self.writer
            .write_all(&self.scratch)
            .map_err(|e| EngineError::Sink {
                detail: format!("write failed: {e}"),
            })
    }

    fn finish(&mut self) -> Result<(), EngineError> {
        self.writer.flush().map_err(|e| EngineError::Sink {
            detail: format!("flush failed: {e}"),
        })
    }
}

/// A [`RowSource`] over a memory-mapped `.sgrid` file.
///
/// `fill_row` copies out of the mapping (the fallback for non-streaming
/// consumers), but the streaming stage machine asks
/// [`mapped`](RowSource::mapped) first and, finding the whole payload
/// resident, executes bands directly over the mapped pages — the
/// zero-copy fast path the format exists for.
#[derive(Debug, Clone)]
pub struct MmapSource {
    grid: MappedGrid,
    pos: usize,
}

impl MmapSource {
    /// Opens and maps `path`, validating the `.sgrid` header.
    ///
    /// # Errors
    ///
    /// [`EngineError::GridFormat`] for a missing or malformed file.
    pub fn open(path: &Path) -> Result<MmapSource, EngineError> {
        Ok(Self::from_grid(MappedGrid::open(path)?))
    }

    /// Wraps an already-opened mapping.
    #[must_use]
    pub fn from_grid(grid: MappedGrid) -> MmapSource {
        MmapSource { grid, pos: 0 }
    }

    /// The underlying mapping.
    #[must_use]
    pub fn grid(&self) -> &MappedGrid {
        &self.grid
    }
}

impl RowSource for MmapSource {
    fn fill_row(&mut self, len: usize, buf: &mut Vec<f64>) -> Result<(), EngineError> {
        let vals = self.grid.values();
        let end = self.pos.checked_add(len).filter(|&e| e <= vals.len());
        let Some(end) = end else {
            return Err(EngineError::TruncatedInput {
                values_expected: len,
                values_got: vals.len().saturating_sub(self.pos),
                trailing_bytes: 0,
            });
        };
        buf.extend_from_slice(&vals[self.pos..end]);
        self.pos = end;
        Ok(())
    }

    fn mapped(&self) -> Option<MappedGrid> {
        Some(self.grid.clone())
    }
}

/// Most payload bytes [`MmapSink`] holds encoded before it writes
/// them out (a single longer row is written whole).
const SINK_WRITE_BYTES: usize = 1 << 20;

/// A [`RowSink`] writing an `.sgrid` file with sequential file writes.
///
/// The name is kept from when it stored rows into a writable mapping;
/// it now writes through the file: pushed rows are encoded into one
/// reused buffer and written in order, about 1 MiB at a time, so the
/// output costs no per-page write faults and no `msync`. The header is
/// written last, by [`finish`](RowSink::finish), after it has checked
/// that every declared value arrived; a sink dropped unfinished, or a
/// run that fails mid-stream, leaves a zeroed header that
/// [`MappedGrid::open`] rejects.
#[derive(Debug)]
pub struct MmapSink {
    file: File,
    header: GridHeader,
    /// Values pushed so far.
    cursor: u64,
    /// Encoded payload bytes not yet written to `file`.
    buf: Vec<u8>,
}

impl MmapSink {
    /// Opens `path` as an `.sgrid` file of the given extents, ready to
    /// receive rows. An existing file is not truncated but resized to
    /// exactly header plus payload, so a reused output path keeps its
    /// allocated blocks; its header slot is zeroed until `finish`.
    ///
    /// # Errors
    ///
    /// [`EngineError::GridFormat`] for invalid extents or filesystem
    /// failures.
    pub fn create(path: &Path, extents: &[u64]) -> Result<MmapSink, EngineError> {
        let header = GridHeader::new(extents).map_err(EngineError::GridFormat)?;
        let file_len = (header.payload_offset() as u64)
            .checked_add(header.payload_bytes())
            .ok_or(EngineError::GridFormat(GridFormatError::ExtentOverflow))?;
        let io = |e: std::io::Error| EngineError::GridFormat(e.into());
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io)?;
        file.set_len(file_len).map_err(io)?;
        file.write_all(&vec![0; header.payload_offset()])
            .map_err(io)?;
        let buf_len = header.payload_bytes().min(SINK_WRITE_BYTES as u64);
        Ok(MmapSink {
            file,
            header,
            cursor: 0,
            buf: Vec::with_capacity(usize::try_from(buf_len).expect("at most 1 MiB")),
        })
    }

    /// The declared output header.
    #[must_use]
    pub fn header(&self) -> &GridHeader {
        &self.header
    }

    /// Writes the buffered payload bytes where they belong in the file:
    /// they end at the value cursor, so a write retried after an I/O
    /// error lands in the same place.
    fn write_buf(&mut self) -> Result<(), EngineError> {
        let at = self.header.payload_offset() as u64 + self.cursor * 8 - self.buf.len() as u64;
        self.file
            .seek(SeekFrom::Start(at))
            .and_then(|_| self.file.write_all(&self.buf))
            .map_err(|e| sink_io("payload write", &e))?;
        self.buf.clear();
        Ok(())
    }
}

/// A failed file operation of [`MmapSink`], typed as a sink failure.
fn sink_io(what: &str, e: &std::io::Error) -> EngineError {
    EngineError::Sink {
        detail: format!("{what} failed: {e}"),
    }
}

impl RowSink for MmapSink {
    fn push_row(&mut self, row: &[f64]) -> Result<(), EngineError> {
        let end = self
            .cursor
            .checked_add(row.len() as u64)
            .filter(|&e| e <= self.header.elements());
        let Some(end) = end else {
            return Err(EngineError::Sink {
                detail: format!(
                    "row of {} values overflows the declared {}-element grid at value {}",
                    row.len(),
                    self.header.elements(),
                    self.cursor
                ),
            });
        };
        if self.buf.len() + row.len() * 8 > SINK_WRITE_BYTES {
            self.write_buf()?;
        }
        // One growth per row, then a plain encode loop over its bytes.
        let at = self.buf.len();
        self.buf.resize(at + row.len() * 8, 0);
        for (bytes, v) in self.buf[at..].chunks_exact_mut(8).zip(row) {
            bytes.copy_from_slice(&v.to_le_bytes());
        }
        self.cursor = end;
        Ok(())
    }

    fn finish(&mut self) -> Result<(), EngineError> {
        if self.cursor != self.header.elements() {
            return Err(EngineError::Sink {
                detail: format!(
                    "finalized with {} of {} declared values written",
                    self.cursor,
                    self.header.elements()
                ),
            });
        }
        self.write_buf()?;
        self.file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.write_all(&self.header.encode()))
            .map_err(|e| sink_io("header write", &e))?;
        self.file.sync_data().map_err(|e| sink_io("sync", &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("stream_{name}_{}.sgrid", std::process::id()))
    }

    #[test]
    fn slice_source_reports_exhaustion() {
        let vals = [1.0, 2.0];
        let mut s = SliceSource::new(&vals);
        let mut buf = Vec::new();
        s.fill_row(2, &mut buf).unwrap();
        assert_eq!(buf, vals);
        let e = s.fill_row(1, &mut buf).unwrap_err();
        assert!(e.to_string().contains("slice exhausted"), "{e}");
    }

    #[test]
    fn read_source_and_write_sink_round_trip_values() {
        let vals = [3.5f64, -2.25, 0.125];
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut source = ReadSource::new(&bytes[..]);
        let mut buf = Vec::new();
        source.fill_row(3, &mut buf).unwrap();
        assert_eq!(buf, vals);
        let mut sink = WriteSink::new(Vec::<u8>::new());
        sink.push_row(&vals).unwrap();
        sink.finish().unwrap();
        assert_eq!(sink.into_inner(), bytes);
    }

    #[test]
    fn read_source_types_truncation_with_partial_value_bytes() {
        let vals = [1.0f64, 2.0, 3.0];
        let mut bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        bytes.truncate(21); // 2 whole values + 5 bytes of the third
        let mut source = ReadSource::new(&bytes[..]);
        let mut buf = Vec::new();
        let err = source.fill_row(3, &mut buf).unwrap_err();
        assert_eq!(
            err,
            EngineError::TruncatedInput {
                values_expected: 3,
                values_got: 2,
                trailing_bytes: 5,
            }
        );
        assert!(buf.is_empty(), "no values delivered from a torn row");
    }

    #[test]
    fn write_sink_finish_flushes_a_bufwriter() {
        let p = temp("flush");
        {
            let file = std::fs::File::create(&p).unwrap();
            let mut sink = WriteSink::new(std::io::BufWriter::new(file));
            sink.push_row(&[42.0, -1.0]).unwrap();
            sink.finish().unwrap();
            // Read while the BufWriter is still alive: finish() must
            // already have flushed, not rely on Drop.
            let on_disk = std::fs::read(&p).unwrap();
            assert_eq!(on_disk.len(), 16);
            assert_eq!(&on_disk[..8], &42.0f64.to_le_bytes());
        }
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn mmap_source_reads_and_advertises_the_mapping() {
        let p = temp("mmsrc");
        let vals: Vec<f64> = (0..12).map(f64::from).collect();
        crate::format::pack_grid(&p, &[3, 4], &vals).unwrap();
        let mut src = MmapSource::open(&p).unwrap();
        assert_eq!(src.grid().header().extents(), &[3, 4]);
        assert_eq!(src.mapped().unwrap().values(), &vals[..]);
        let mut buf = Vec::new();
        src.fill_row(4, &mut buf).unwrap();
        src.fill_row(8, &mut buf).unwrap();
        assert_eq!(buf, vals);
        let err = src.fill_row(1, &mut buf).unwrap_err();
        assert!(matches!(err, EngineError::TruncatedInput { .. }));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn mmap_sink_round_trips_and_rejects_incomplete_finish() {
        let p = temp("mmsink");
        let mut sink = MmapSink::create(&p, &[2, 3]).unwrap();
        sink.push_row(&[1.0, 2.0, 3.0]).unwrap();
        let err = sink.finish().unwrap_err();
        assert!(err.to_string().contains("3 of 6"), "{err}");
        sink.push_row(&[4.0, 5.0, 6.0]).unwrap();
        sink.finish().unwrap();
        let overflow = sink.push_row(&[7.0]).unwrap_err();
        assert!(overflow.to_string().contains("overflows"), "{overflow}");
        drop(sink);
        let grid = MappedGrid::open(&p).unwrap();
        assert_eq!(grid.values(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let _ = std::fs::remove_file(&p);
    }
}
