//! Integration test: the `.sgrid` binary grid format and the
//! mmap-backed zero-copy streaming path.
//!
//! Four guarantees are certified here:
//!
//! * **Byte-level round-trip.** For every paper benchmark, packing the
//!   input grid to a `.sgrid` file and mapping it back reproduces each
//!   value bit-for-bit (`to_bits` equality), and streaming the kernel
//!   from the mapping is bit-identical to the in-memory run while the
//!   grid-io telemetry records zero payload copies.
//! * **Corruption is typed, never a panic.** Proptest flips arbitrary
//!   header bytes, truncates, and pads files; every structural defect
//!   surfaces as a typed [`GridFormatError`] from `MappedGrid::open`.
//! * **Streaming I/O fixes hold.** [`ReadSource`] reports truncated
//!   payloads with a typed error carrying the partial-value byte
//!   count; [`WriteSink`] flushes on `finish()` rather than relying on
//!   drop order; [`MmapSink`] refuses an incomplete finalize, writes
//!   its header only at finalize (an unfinished or failed run leaves a
//!   file that does not open), and resizes a reused output path to
//!   exactly the new grid.
//! * **Oversized jobs are typed.** Grid extents whose element or byte
//!   count overflows are rejected by the serving front-end as
//!   [`EngineError::JobTooLarge`], not silently saturated.

use std::path::PathBuf;

use proptest::prelude::*;
use stencil_bench::scaled_extents;
use stencil_core::MemorySystemPlan;
use stencil_engine::{
    pack_grid, EngineError, ExecMode, GridFormatError, InputGrid, JobRequest, MappedGrid, MmapSink,
    MmapSource, ReadSource, RowSink, RowSource, ServiceConfig, ServiceFront, Session, ShardPolicy,
    SliceSource, VecSink, WriteSink,
};
use stencil_kernels::{denoise, paper_suite};

/// Deterministic pseudo-random values for `n` grid cells.
fn input_values(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f64) / 1024.0 - 8.0
        })
        .collect()
}

/// A fresh path in a per-test temp directory. The directory carries the
/// process id so concurrent test processes never share a file.
fn temp_path(dir: &str, file: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("{dir}_{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("temp dir");
    d.join(file)
}

/// A small but valid `.sgrid` byte image for the corruption tests.
fn valid_sgrid_bytes(dir: &str) -> Vec<u8> {
    let path = temp_path(dir, "valid.sgrid");
    pack_grid(&path, &[5, 7], &input_values(35, 3)).expect("pack");
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn every_paper_benchmark_round_trips_through_sgrid_bit_for_bit() {
    for bench in paper_suite() {
        let extents = scaled_extents(&bench, 20_000);
        let spec = bench.spec_for(&extents).expect("spec");
        let plan = MemorySystemPlan::generate(&spec).expect("plan");
        let in_idx = plan.input_domain().index().expect("input index");
        let bb = in_idx.bounding_box().expect("non-empty input domain");
        let grid_extents: Vec<u64> = bb.iter().map(|&(lo, hi)| (hi - lo + 1) as u64).collect();
        let n = usize::try_from(in_idx.len()).expect("domain fits");
        let vals = input_values(n, 0x517E ^ bench.name().len() as u64);

        let path = temp_path(
            "stencil_gridio_roundtrip",
            &format!("{}.sgrid", bench.name()),
        );
        pack_grid(&path, &grid_extents, &vals).expect("pack");
        let grid = MappedGrid::open(&path).expect("map");
        assert_eq!(grid.values().len(), vals.len(), "{}", bench.name());
        for (i, (a, b)) in grid.values().iter().zip(&vals).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: value {i} corrupted in round-trip",
                bench.name()
            );
        }

        // Streaming from the mapping == streaming from memory, with
        // zero payload copies recorded.
        let mut source = SliceSource::new(&vals);
        let mut sink = VecSink::new();
        let session = Session::build(&plan, &bench.stage()).expect("session");
        session
            .mode(ExecMode::Streaming { chunk_rows: None })
            .run_streaming(&mut source, &mut sink)
            .expect("in-memory streaming");
        let reference = sink.values;

        let mut source = MmapSource::from_grid(grid);
        let mut sink = VecSink::new();
        let session = Session::build(&plan, &bench.stage()).expect("session");
        let run = session
            .mode(ExecMode::Streaming { chunk_rows: None })
            .run_streaming(&mut source, &mut sink)
            .expect("mapped streaming");
        assert_eq!(
            sink.values.len(),
            reference.len(),
            "{}: output count",
            bench.name()
        );
        for (i, (a, b)) in sink.values.iter().zip(&reference).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: output {i} diverged between mapped and in-memory streaming",
                bench.name()
            );
        }
        let io = run.grid_io.expect("grid-io block");
        assert_eq!(
            io.values_copied,
            0,
            "{}: copies on mapped path",
            bench.name()
        );
        assert_eq!(io.values_mapped, vals.len() as u64, "{}", bench.name());
        assert!(io.zero_copy(), "{}", bench.name());
        assert!(io.sink_finalized, "{}", bench.name());
        let _ = std::fs::remove_file(&path);
    }
}

proptest! {
    /// Flipping any single byte of the fixed header (or any byte of the
    /// extents table) yields a typed error or a still-consistent file —
    /// never a panic. The exact-length rule makes every header
    /// corruption detectable: a changed extent changes the expected
    /// payload length, which no longer matches the file.
    #[test]
    fn corrupt_header_bytes_are_typed_errors(offset in 0usize..40, bits in 1u8..=255) {
        let mut bytes = valid_sgrid_bytes("stencil_gridio_prop_flip");
        prop_assume!(offset < bytes.len());
        bytes[offset] ^= bits;
        let path = temp_path(
            "stencil_gridio_prop_flip",
            &format!("flip_{offset}_{bits}.sgrid"),
        );
        std::fs::write(&path, &bytes).expect("write corrupted");
        let result = MappedGrid::open(&path);
        let _ = std::fs::remove_file(&path);
        // The header is 24 fixed bytes + 16 extent bytes; any flip in
        // that range breaks magic, version, dtype, dims, or the
        // extents-vs-file-length equation.
        prop_assert!(result.is_err(), "flip at {offset} accepted");
    }

    /// Truncating anywhere, or padding with trailing bytes, is a typed
    /// error — never a panic, never a silently short grid.
    #[test]
    fn truncated_or_padded_files_are_typed_errors(cut in 0usize..320, pad in 1usize..64) {
        let bytes = valid_sgrid_bytes("stencil_gridio_prop_cut");
        prop_assume!(cut < bytes.len());

        let path = temp_path("stencil_gridio_prop_cut", &format!("cut_{cut}.sgrid"));
        std::fs::write(&path, &bytes[..cut]).expect("write truncated");
        let truncated = MappedGrid::open(&path);
        let _ = std::fs::remove_file(&path);
        prop_assert!(truncated.is_err(), "truncation to {cut} bytes accepted");

        let path = temp_path("stencil_gridio_prop_cut", &format!("pad_{pad}.sgrid"));
        let mut padded = bytes.clone();
        padded.extend(std::iter::repeat_n(0xAAu8, pad));
        std::fs::write(&path, &padded).expect("write padded");
        let result = MappedGrid::open(&path);
        let _ = std::fs::remove_file(&path);
        match result {
            Err(GridFormatError::TrailingBytes { extra }) => {
                prop_assert_eq!(extra, pad as u64);
            }
            other => prop_assert!(false, "padded file: {other:?}"),
        }
    }
}

#[test]
fn read_source_types_truncation_instead_of_hanging_or_panicking() {
    // 2 whole values plus 5 stray bytes of a third.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&1.5f64.to_le_bytes());
    bytes.extend_from_slice(&(-2.5f64).to_le_bytes());
    bytes.extend_from_slice(&[1, 2, 3, 4, 5]);
    let mut source = ReadSource::new(std::io::Cursor::new(bytes));
    let mut buf = Vec::new();
    let err = source.fill_row(4, &mut buf).expect_err("short payload");
    match err {
        EngineError::TruncatedInput {
            values_expected,
            values_got,
            trailing_bytes,
        } => {
            assert_eq!(values_expected, 4);
            assert_eq!(values_got, 2);
            assert_eq!(trailing_bytes, 5);
        }
        other => panic!("expected TruncatedInput, got {other:?}"),
    }
}

#[test]
fn write_sink_finish_flushes_buffered_rows_to_disk() {
    let path = temp_path("stencil_gridio_sink", "flush.bin");
    let file = std::fs::File::create(&path).expect("create");
    let mut sink = WriteSink::new(std::io::BufWriter::new(file));
    sink.push_row(&[1.0, 2.0, 3.0]).expect("push");
    sink.finish().expect("finish");
    // Read while the BufWriter is still alive: finish() must already
    // have flushed, not rely on Drop.
    let bytes = std::fs::read(&path).expect("read back");
    assert_eq!(bytes.len(), 24, "finish() left rows in the buffer");
    drop(sink);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn write_sink_surfaces_flush_failures() {
    /// A writer whose flush always fails, as a full disk would.
    struct FailingFlush;
    impl std::io::Write for FailingFlush {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }
    let mut sink = WriteSink::new(FailingFlush);
    sink.push_row(&[1.0]).expect("buffered push");
    let err = sink.finish().expect_err("flush failure must surface");
    assert!(matches!(err, EngineError::Sink { .. }), "{err:?}");
}

#[test]
fn mmap_sink_round_trips_and_rejects_partial_grids() {
    let path = temp_path("stencil_gridio_sink", "out.sgrid");
    let mut sink = MmapSink::create(&path, &[2, 3]).expect("create");
    sink.push_row(&[1.0, 2.0, 3.0]).expect("row 0");
    let err = sink.finish().expect_err("half-written grid");
    assert!(matches!(err, EngineError::Sink { .. }), "{err:?}");
    sink.push_row(&[4.0, 5.0, 6.0]).expect("row 1");
    sink.finish().expect("complete finish");
    drop(sink);
    let grid = MappedGrid::open(&path).expect("reopen");
    assert_eq!(grid.values(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    let _ = std::fs::remove_file(&path);
}

/// Writes `values` as a `(rows, cols)` grid through an [`MmapSink`],
/// one row per push.
fn sink_grid(path: &std::path::Path, rows: u64, cols: u64, values: &[f64]) {
    let mut sink = MmapSink::create(path, &[rows, cols]).expect("create");
    for row in values.chunks(usize::try_from(cols).expect("fits")) {
        sink.push_row(row).expect("push");
    }
    sink.finish().expect("finish");
}

fn assert_bits(got: &[f64], want: &[f64]) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want));
}

#[test]
fn mmap_sink_dropped_unfinished_leaves_an_unopenable_file() {
    let path = temp_path("stencil_gridio_sink_drop", "out.sgrid");
    let mut sink = MmapSink::create(&path, &[2, 3]).expect("create");
    sink.push_row(&[1.0, 2.0, 3.0]).expect("row 0");
    sink.push_row(&[4.0, 5.0, 6.0]).expect("row 1");
    drop(sink);
    let err = MappedGrid::open(&path).expect_err("unfinished grid opened");
    assert_eq!(err, GridFormatError::BadMagic);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mmap_sink_of_a_run_cut_short_by_truncated_input_does_not_open() {
    let bench = denoise();
    let extents = scaled_extents(&bench, 10_000);
    let spec = bench.spec_for(&extents).expect("spec");
    let plan = MemorySystemPlan::generate(&spec).expect("plan");
    let n = usize::try_from(plan.input_domain().index().expect("index").len()).expect("fits");
    let out_bb = spec
        .iteration_domain()
        .index()
        .expect("index")
        .bounding_box()
        .expect("bounding box");
    let out_extents: Vec<u64> = out_bb
        .iter()
        .map(|&(lo, hi)| (hi - lo + 1) as u64)
        .collect();
    let out_len = usize::try_from(out_extents.iter().product::<u64>()).expect("fits");
    // A valid grid from an earlier run sits at the output path.
    let path = temp_path("stencil_gridio_sink_cut", "out.sgrid");
    pack_grid(&path, &out_extents, &vec![1.0; out_len]).expect("pack");

    // Two thirds of the input: the first bands stream out, then the
    // source runs dry.
    let bytes: Vec<u8> = input_values(n, 5)
        .iter()
        .take(n * 2 / 3)
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let mut source = ReadSource::new(&bytes[..]);
    let mut sink = MmapSink::create(&path, &out_extents).expect("create");
    let session = Session::build(&plan, &bench.stage()).expect("session");
    let err = session
        .mode(ExecMode::Streaming {
            chunk_rows: Some(4),
        })
        .run_streaming(&mut source, &mut sink)
        .expect_err("truncated input");
    assert!(matches!(err, EngineError::TruncatedInput { .. }), "{err:?}");
    drop(sink);
    let err = MappedGrid::open(&path).expect_err("cut-short grid opened");
    assert_eq!(err, GridFormatError::BadMagic);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mmap_sink_resizes_an_existing_file_to_exactly_the_new_grid() {
    let values = input_values(6 * 7, 11);
    for (old_rows, old_cols) in [(40, 50), (1, 1)] {
        let path = temp_path("stencil_gridio_sink_resize", &format!("{old_rows}.sgrid"));
        let old = input_values(old_rows * old_cols, 12);
        pack_grid(&path, &[old_rows as u64, old_cols as u64], &old).expect("pack");
        sink_grid(&path, 6, 7, &values);
        let grid = MappedGrid::open(&path).expect("reopen");
        let want_len = grid.header().payload_offset() as u64 + grid.header().payload_bytes();
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), want_len);
        assert_eq!(grid.header().extents(), &[6, 7]);
        assert_bits(grid.values(), &values);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn mmap_sink_rewrites_a_reused_path_with_the_latest_run() {
    // 2.4 MB per grid: the payload crosses several buffered writes.
    let (rows, cols) = (300, 1000);
    let path = temp_path("stencil_gridio_sink_reuse", "out.sgrid");
    let first = input_values(rows * cols, 21);
    let second = input_values(rows * cols, 22);
    sink_grid(&path, rows as u64, cols as u64, &first);
    assert_bits(MappedGrid::open(&path).expect("first").values(), &first);
    sink_grid(&path, rows as u64, cols as u64, &second);
    assert_bits(MappedGrid::open(&path).expect("second").values(), &second);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn overflowing_job_extents_are_rejected_as_job_too_large() {
    let front = ServiceFront::new(ServiceConfig::default());
    let req = JobRequest {
        benchmark: denoise(),
        extents: Some(vec![i64::MAX / 4, 16, 16]),
        mode: ExecMode::InCore,
        shards: ShardPolicy::Whole,
        input: vec![0.0; 8].into(),
    };
    let err = front.submit(&req).expect_err("overflowing extents");
    assert!(
        matches!(err, EngineError::JobTooLarge { .. }),
        "expected JobTooLarge, got {err:?}"
    );
    let _ = front.finish();
}

#[test]
fn in_core_session_reads_a_mapped_grid_without_copying() {
    // The in-core path also accepts a mapped source: run_streaming
    // materializes nothing when the source advertises a mapping.
    let bench = denoise();
    let extents = scaled_extents(&bench, 10_000);
    let spec = bench.spec_for(&extents).expect("spec");
    let plan = MemorySystemPlan::generate(&spec).expect("plan");
    let in_idx = plan.input_domain().index().expect("index");
    let bb = in_idx.bounding_box().expect("bounding box");
    let grid_extents: Vec<u64> = bb.iter().map(|&(lo, hi)| (hi - lo + 1) as u64).collect();
    let n = usize::try_from(in_idx.len()).expect("fits");
    let vals = input_values(n, 99);
    let path = temp_path("stencil_gridio_incore", "in.sgrid");
    pack_grid(&path, &grid_extents, &vals).expect("pack");

    let input = InputGrid::new(&in_idx, &vals).expect("grid");
    let session = Session::build(&plan, &bench.stage()).expect("session");
    let reference = session.run(&input).expect("in-core run").outputs;

    let mut source = MmapSource::open(&path).expect("open");
    let mut sink = VecSink::new();
    let session = Session::build(&plan, &bench.stage()).expect("session");
    let run = session
        .mode(ExecMode::InCore)
        .run_streaming(&mut source, &mut sink)
        .expect("mapped in-core run");
    assert_eq!(sink.values, reference);
    let io = run.grid_io.expect("grid-io block");
    assert_eq!(io.values_copied, 0);
    assert!(io.zero_copy());
    assert!(io.sink_finalized);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pack_grid_is_what_a_manual_writer_would_produce() {
    // Belt and braces on the layout: magic, version, dtype, dims,
    // extents, then LE f64 payload — byte-for-byte.
    let path = temp_path("stencil_gridio_layout", "layout.sgrid");
    pack_grid(&path, &[2, 2], &[0.5, 1.5, -2.0, 3.25]).expect("pack");
    let got = std::fs::read(&path).expect("read");
    let mut want = Vec::new();
    want.extend_from_slice(b"SGRIDBIN");
    want.extend_from_slice(&1u32.to_le_bytes()); // version
    want.extend_from_slice(&1u32.to_le_bytes()); // dtype f64le
    want.extend_from_slice(&2u64.to_le_bytes()); // ndim
    want.extend_from_slice(&2u64.to_le_bytes()); // extent 0
    want.extend_from_slice(&2u64.to_le_bytes()); // extent 1
    for v in [0.5f64, 1.5, -2.0, 3.25] {
        want.extend_from_slice(&v.to_le_bytes());
    }
    assert_eq!(got, want);
    let _ = std::fs::remove_file(&path);
}
