//! Throughput reporting, shaped after `stencil_sim::RunStats` so
//! engine and machine runs read side by side.

use std::fmt;
use std::time::Duration;

use stencil_telemetry::{EngineMetrics, StreamMetrics, TileMetrics};

use crate::compile::{Datapath, KernelBackend};

/// Display suffix naming a non-default datapath: empty for the f64
/// reference, ` (f32)` for the narrowed one.
fn datapath_suffix(datapath: Datapath) -> &'static str {
    match datapath {
        Datapath::F64 => "",
        Datapath::F32 => " (f32)",
    }
}

/// Per-band execution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TileReport {
    /// Band id (outermost-dimension order).
    pub id: usize,
    /// Outputs this band produced.
    pub outputs: u64,
    /// Input elements in the band's halo (its off-chip traffic share).
    pub halo_elements: u64,
    /// Output rows evaluated by the compiled register-program row sweep.
    pub sweep_rows: u64,
    /// Output rows executed on the batched fast path (every window tap
    /// contiguous in the input stream).
    pub fast_rows: u64,
    /// Output rows that fell back to per-point gathers.
    pub gather_rows: u64,
    /// Wall-clock time this band's worker spent executing it.
    pub elapsed: Duration,
}

/// Statistics of one engine run — the software analogue of the
/// simulator's `RunStats`: `outputs` matches the machine's output
/// count, `halo_elements` plays the role of `inputs_streamed`, and
/// wall-clock throughput replaces cycle counts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Total outputs produced (size of the iteration domain).
    pub outputs: u64,
    /// Bands executed.
    pub tiles: usize,
    /// Worker threads used.
    pub threads: usize,
    /// How the kernel datapath executed.
    pub backend: KernelBackend,
    /// Arithmetic precision the kernel evaluated in.
    pub datapath: Datapath,
    /// Total input elements fetched across bands, halo overlap counted
    /// per band — the off-chip traffic of the sharded execution.
    pub halo_elements: u64,
    /// End-to-end wall-clock time (tiling + execution).
    pub elapsed: Duration,
    /// Per-band breakdown, band order.
    pub per_tile: Vec<TileReport>,
}

impl RunReport {
    /// Outputs per wall-clock second. Returns `0.0` when the elapsed
    /// time is below timer resolution — a rate that short is unknown,
    /// and infinity poisons every downstream aggregate (and cannot be
    /// serialized to JSON).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        finite_throughput(self.outputs, self.elapsed)
    }

    /// The run's counters in the `stencil-telemetry` wire schema, ready
    /// for JSON serialization and report-level validation.
    #[must_use]
    pub fn metrics(&self) -> EngineMetrics {
        EngineMetrics {
            outputs: self.outputs,
            tiles: self.tiles,
            threads: self.threads,
            backend: self.backend.as_str().to_string(),
            datapath: self.datapath.as_str().to_string(),
            halo_elements: self.halo_elements,
            elapsed_ns: duration_ns(self.elapsed),
            throughput: self.throughput(),
            per_tile: self
                .per_tile
                .iter()
                .map(|t| TileMetrics {
                    id: t.id,
                    outputs: t.outputs,
                    halo_elements: t.halo_elements,
                    sweep_rows: t.sweep_rows,
                    fast_rows: t.fast_rows,
                    gather_rows: t.gather_rows,
                    elapsed_ns: duration_ns(t.elapsed),
                })
                .collect(),
        }
    }

    /// Ratio of fetched inputs to distinct inputs a single band would
    /// fetch — 1.0 for one band, growing with halo overlap. Mirrors the
    /// off-chip bandwidth multiplier of the Appendix 9.4 tradeoff.
    #[must_use]
    pub fn fetch_overhead(&self, input_points: u64) -> f64 {
        if input_points == 0 {
            1.0
        } else {
            self.halo_elements as f64 / input_points as f64
        }
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "engine run: {} outputs on {} band(s) x {} thread(s) [{} kernel]{} in {:?} ({:.1} Melem/s)",
            self.outputs,
            self.tiles,
            self.threads,
            self.backend,
            datapath_suffix(self.datapath),
            self.elapsed,
            self.throughput() / 1e6
        )?;
        for t in &self.per_tile {
            writeln!(
                f,
                "  band {:>2}: {:>9} outputs, {:>9} halo elems, rows {}V/{}F/{}G, {:?}",
                t.id,
                t.outputs,
                t.halo_elements,
                t.sweep_rows,
                t.fast_rows,
                t.gather_rows,
                t.elapsed
            )?;
        }
        let m = self.metrics();
        let sweep: u64 = m.per_tile.iter().map(|t| t.sweep_rows).sum();
        let fast: u64 = m.per_tile.iter().map(|t| t.fast_rows).sum();
        let gather: u64 = m.per_tile.iter().map(|t| t.gather_rows).sum();
        writeln!(
            f,
            "  metrics: {:.0} elem/s, rows {sweep} sweep / {fast} fast / {gather} gather, {} halo elems",
            m.throughput, m.halo_elements
        )
    }
}

/// Statistics of one out-of-core streaming run
/// ([`crate::ExecMode::Streaming`]). Where [`RunReport`] measures an
/// in-core
/// run, this additionally accounts the stream endpoints (rows pulled
/// and pushed) and the memory story: `peak_resident` is the high-water
/// mark of resident input values and `resident_bound` the planned
/// Sec. 2.3 window — halo rows × widest resident row, maximized over
/// bands.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Total outputs produced (size of the iteration domain).
    pub outputs: u64,
    /// Bands executed.
    pub bands: usize,
    /// Worker threads used per band.
    pub threads: usize,
    /// How the kernel datapath executed.
    pub backend: KernelBackend,
    /// Arithmetic precision the kernel evaluated in.
    pub datapath: Datapath,
    /// Requested band height in outermost-dimension rows (0 = the
    /// plan's default one-band-per-off-chip-stream sharding).
    pub chunk_rows: u64,
    /// Input index rows pulled from the row source.
    pub rows_in: u64,
    /// Input values pulled from the row source.
    pub values_in: u64,
    /// Output rows pushed to the row sink.
    pub rows_out: u64,
    /// High-water mark of resident input values.
    pub peak_resident: u64,
    /// Planned residency bound: max over bands of halo rows × widest
    /// resident row length.
    pub resident_bound: u64,
    /// Output rows evaluated by the compiled register-program row sweep.
    pub sweep_rows: u64,
    /// Output rows executed on the batched fast path.
    pub fast_rows: u64,
    /// Output rows that fell back to per-point gathers.
    pub gather_rows: u64,
    /// End-to-end wall-clock time (tiling + streaming + execution).
    pub elapsed: Duration,
}

impl StreamReport {
    /// Outputs per wall-clock second; `0.0` below timer resolution, as
    /// [`RunReport::throughput`].
    #[must_use]
    pub fn throughput(&self) -> f64 {
        finite_throughput(self.outputs, self.elapsed)
    }

    /// True when the measured peak residency honored the planned halo
    /// window — the invariant the telemetry validator also enforces.
    #[must_use]
    pub fn within_residency_bound(&self) -> bool {
        self.peak_resident <= self.resident_bound
    }

    /// The run's counters in the `stencil-telemetry` wire schema.
    #[must_use]
    pub fn metrics(&self) -> StreamMetrics {
        StreamMetrics {
            outputs: self.outputs,
            bands: self.bands,
            threads: self.threads,
            backend: self.backend.as_str().to_string(),
            datapath: self.datapath.as_str().to_string(),
            chunk_rows: self.chunk_rows,
            rows_in: self.rows_in,
            values_in: self.values_in,
            rows_out: self.rows_out,
            peak_resident: self.peak_resident,
            resident_bound: self.resident_bound,
            sweep_rows: self.sweep_rows,
            fast_rows: self.fast_rows,
            gather_rows: self.gather_rows,
            elapsed_ns: duration_ns(self.elapsed),
            throughput: self.throughput(),
        }
    }
}

impl fmt::Display for StreamReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "streaming run: {} outputs on {} band(s) x {} thread(s) [{} kernel]{} in {:?} ({:.1} Melem/s)",
            self.outputs,
            self.bands,
            self.threads,
            self.backend,
            datapath_suffix(self.datapath),
            self.elapsed,
            self.throughput() / 1e6
        )?;
        writeln!(
            f,
            "  resident: peak {} values (bound {}), {} rows / {} values in, {} rows out",
            self.peak_resident, self.resident_bound, self.rows_in, self.values_in, self.rows_out
        )?;
        writeln!(
            f,
            "  rows {} sweep / {} fast / {} gather",
            self.sweep_rows, self.fast_rows, self.gather_rows
        )
    }
}

/// Grid I/O accounting for a run driven through streaming endpoints:
/// how input values reached the engine (mapped pages vs copies pulled
/// through [`crate::RowSource::fill_row`]) and whether the sink was
/// finalized. The mmap fast path is *provably* zero-copy when
/// `values_copied == 0` with `values_mapped` covering the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridIoReport {
    /// Bytes of input file mapped into memory (header + payload);
    /// zero for non-mapped sources.
    pub bytes_mapped: u64,
    /// Input values consumed as slices of the mapped payload — never
    /// copied into the halo window.
    pub values_mapped: u64,
    /// Input values copied out of the source into engine-owned buffers.
    pub values_copied: u64,
    /// Output values pushed to the sink.
    pub output_values: u64,
    /// Whether [`crate::RowSink::finish`] ran to completion (flush and
    /// sync succeeded) — `false` means tail rows may not be durable.
    pub sink_finalized: bool,
}

impl GridIoReport {
    /// True when the input fed the engine without a single payload
    /// copy: everything arrived as mapped slices.
    #[must_use]
    pub fn zero_copy(&self) -> bool {
        self.values_copied == 0 && self.values_mapped > 0
    }

    /// The counters in the `stencil-telemetry` wire schema.
    #[must_use]
    pub fn metrics(&self) -> stencil_telemetry::GridIoMetrics {
        stencil_telemetry::GridIoMetrics {
            bytes_mapped: self.bytes_mapped,
            values_mapped: self.values_mapped,
            values_copied: self.values_copied,
            output_values: self.output_values,
            sink_finalized: self.sink_finalized,
        }
    }
}

impl fmt::Display for GridIoReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grid io: {} bytes mapped, {} values mapped / {} copied in, {} values out{}",
            self.bytes_mapped,
            self.values_mapped,
            self.values_copied,
            self.output_values,
            if self.sink_finalized {
                ", sink finalized"
            } else {
                ", SINK NOT FINALIZED"
            }
        )
    }
}

/// Whole nanoseconds of `d`, saturating at `u64::MAX` (584 years).
pub(crate) fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Elements per second, `0.0` below timer resolution so the figure
/// stays finite (JSON cannot carry `inf`). A nonzero [`Duration`] is at
/// least one nanosecond, so every other quotient is finite too.
#[must_use]
pub fn finite_throughput(outputs: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        outputs as f64 / secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            outputs: 1000,
            tiles: 2,
            threads: 2,
            backend: KernelBackend::Closure,
            datapath: Datapath::F64,
            halo_elements: 1100,
            elapsed: Duration::from_millis(10),
            per_tile: vec![
                TileReport {
                    id: 0,
                    outputs: 500,
                    halo_elements: 550,
                    sweep_rows: 0,
                    fast_rows: 10,
                    gather_rows: 0,
                    elapsed: Duration::from_millis(5),
                },
                TileReport {
                    id: 1,
                    outputs: 500,
                    halo_elements: 550,
                    sweep_rows: 0,
                    fast_rows: 10,
                    gather_rows: 0,
                    elapsed: Duration::from_millis(5),
                },
            ],
        }
    }

    #[test]
    fn throughput_and_overhead() {
        let r = report();
        assert!((r.throughput() - 100_000.0).abs() < 1e-6);
        assert!((r.fetch_overhead(1000) - 1.1).abs() < 1e-12);
        assert!((r.fetch_overhead(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sub_resolution_elapsed_yields_zero_not_infinity() {
        let r = RunReport {
            elapsed: Duration::ZERO,
            ..report()
        };
        assert_eq!(r.throughput(), 0.0);
        assert!(r.throughput().is_finite());
        assert!(r.metrics().throughput.is_finite());
    }

    #[test]
    fn display_lists_bands() {
        let s = report().to_string();
        assert!(s.contains("2 band(s)"), "{s}");
        assert!(s.contains("[closure kernel]"), "{s}");
        assert!(s.contains("band  0"), "{s}");
        assert!(s.contains("band  1"), "{s}");
        assert!(s.contains("metrics: 100000 elem/s"), "{s}");
        assert!(s.contains("rows 0 sweep / 20 fast / 0 gather"), "{s}");
        let compiled = RunReport {
            backend: KernelBackend::Compiled,
            ..report()
        };
        assert!(compiled.to_string().contains("[compiled kernel]"));
    }

    #[test]
    fn display_appends_sweep_shape_only_when_non_default() {
        // The default shape keeps the exact legacy line.
        assert!(!report().to_string().contains("(f"), "{}", report());
        let shaped = RunReport {
            backend: KernelBackend::Compiled,
            datapath: Datapath::F32,
            ..report()
        };
        let s = shaped.to_string();
        assert!(s.contains("[compiled kernel] (f32) in"), "{s}");
        assert_eq!(shaped.metrics().datapath, "f32");
        let stream = StreamReport {
            datapath: Datapath::F32,
            ..stream_report()
        };
        assert!(
            stream.to_string().contains("[compiled kernel] (f32) in"),
            "{stream}"
        );
        assert_eq!(stream.metrics().datapath, "f32");
        assert!(!stream_report().to_string().contains("(f"));
        assert_eq!(stream_report().metrics().datapath, "f64");
    }

    fn stream_report() -> StreamReport {
        StreamReport {
            outputs: 1000,
            bands: 10,
            threads: 2,
            backend: KernelBackend::Compiled,
            datapath: Datapath::F64,
            chunk_rows: 2,
            rows_in: 22,
            values_in: 1188,
            rows_out: 20,
            peak_resident: 216,
            resident_bound: 216,
            sweep_rows: 20,
            fast_rows: 0,
            gather_rows: 0,
            elapsed: Duration::from_millis(10),
        }
    }

    #[test]
    fn stream_report_throughput_bound_and_metrics() {
        let r = stream_report();
        assert!((r.throughput() - 100_000.0).abs() < 1e-6);
        assert!(r.within_residency_bound());
        let m = r.metrics();
        assert_eq!(m.peak_resident, 216);
        assert_eq!(m.resident_bound, 216);
        assert_eq!(m.elapsed_ns, 10_000_000);
        assert_eq!(
            stencil_telemetry::validate_report(&one_stage_report(None, Some(m))),
            Vec::new()
        );
        let over = StreamReport {
            peak_resident: 217,
            ..stream_report()
        };
        assert!(!over.within_residency_bound());
        let s = over.to_string();
        assert!(s.contains("peak 217 values (bound 216)"), "{s}");
        assert!(s.contains("10 band(s)"), "{s}");
        assert!(s.contains("[compiled kernel]"), "{s}");
        assert!(s.contains("rows 20 sweep / 0 fast / 0 gather"), "{s}");
    }

    #[test]
    fn metrics_mirror_report() {
        let r = report();
        let m = r.metrics();
        assert_eq!(m.outputs, 1000);
        assert_eq!(m.tiles, 2);
        assert_eq!(m.threads, 2);
        assert_eq!(m.halo_elements, 1100);
        assert_eq!(m.elapsed_ns, 10_000_000);
        assert_eq!(m.per_tile.len(), 2);
        assert_eq!(m.per_tile[1].elapsed_ns, 5_000_000);
        assert_eq!(
            stencil_telemetry::validate_report(&one_stage_report(Some(m), None)),
            Vec::new()
        );
    }

    /// `engine` or `stream` as the one stage (declaring the backend it
    /// ran, no residency bound) of a one-session report.
    fn one_stage_report(
        engine: Option<EngineMetrics>,
        stream: Option<StreamMetrics>,
    ) -> stencil_telemetry::MetricsReport {
        let backend = engine
            .as_ref()
            .map(|e| e.backend.clone())
            .or_else(|| stream.as_ref().map(|s| s.backend.clone()))
            .unwrap();
        let mut rep = stencil_telemetry::MetricsReport::new("t");
        rep.sessions.push(stencil_telemetry::SessionMetrics {
            mode: "incore".into(),
            threads: 1,
            outputs: 0,
            peak_resident: 0,
            resident_bound: 0,
            elapsed_ns: 0,
            throughput: 0.0,
            tile_plans_built: 0,
            stages: vec![stencil_telemetry::StageMetrics {
                label: "t".into(),
                backend,
                window_taps: 5,
                window_rows: 3,
                resident_bound: 0,
                engine,
                stream,
            }],
            iterate: None,
            grid_io: None,
        });
        rep
    }
}
