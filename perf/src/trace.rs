//! In-memory span recording around the benchmark's calls into each
//! library layer, and the pass-through row wrappers that time the
//! streaming endpoints.
//!
//! A span has a name, a start and end relative to the tracer's epoch,
//! the index of the span that was open when it started (its parent)
//! and the job it belongs to. Per-row calls (`fill_row`, `push_row`)
//! are too many to record one by one: their wrapper folds every call
//! of one run into a single span whose duration is the summed busy
//! time and whose `calls` field counts them. A layer's self time is
//! its duration minus its children's.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use serde::json::{object, ToValue, Value};
use stencil_engine::{EngineError, MappedGrid, RowSink, RowSource};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
    pub calls: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled every method is a plain
/// pass-through, so untraced jobs run the same calls without timers.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    job: Cell<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            job: Cell::new(0),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Index the next recorded span will get; spans recorded from here
    /// on belong to whatever runs next.
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Runs `f` inside a span named `name` (just runs it when off).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                job: self.job.get(),
                calls: 1,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    /// Runs one whole job inside a `job` span tagged with `job`.
    pub fn job<T>(&self, job: u64, f: impl FnOnce() -> T) -> T {
        self.job.set(job);
        self.span("job", f)
    }

    /// Folds one per-row call that started at `start` into the
    /// aggregate span `slot` (creating it under the open span).
    fn fold(&self, slot: &mut Option<usize>, name: &'static str, start: Instant) {
        let busy = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut spans = self.spans.borrow_mut();
        match *slot {
            Some(i) => {
                spans[i].end_ns += busy;
                spans[i].calls += 1;
            }
            None => {
                let start_ns =
                    u64::try_from(start.duration_since(self.epoch).as_nanos()).unwrap_or(0);
                spans.push(Span {
                    name,
                    start_ns,
                    end_ns: start_ns + busy,
                    parent: self.open.borrow().last().copied(),
                    job: self.job.get(),
                    calls: 1,
                });
                *slot = Some(spans.len() - 1);
            }
        }
    }

    /// The spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> Vec<Span> {
        self.spans.borrow()[mark..].to_vec()
    }
}

/// Every recorded span, with its self time.
impl ToValue for Tracer {
    fn to_value(&self) -> Value {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        Value::Array(
            spans
                .iter()
                .zip(&child_ns)
                .map(|(s, &c)| {
                    object(vec![
                        ("name", s.name.to_value()),
                        ("job", s.job.to_value()),
                        ("start_ns", s.start_ns.to_value()),
                        ("end_ns", s.end_ns.to_value()),
                        ("self_ns", s.ns().saturating_sub(c).to_value()),
                        ("parent", s.parent.to_value()),
                        ("calls", s.calls.to_value()),
                    ])
                })
                .collect(),
        )
    }
}

/// Times every `fill_row` of the wrapped source as `stream.source_pull`
/// and forwards `mapped()`, so a mapped source keeps the engine's
/// zero-copy path while traced.
pub struct TimedSource<'a, S: RowSource + ?Sized> {
    inner: &'a mut S,
    tracer: &'a Tracer,
    slot: Option<usize>,
}

impl<'a, S: RowSource + ?Sized> TimedSource<'a, S> {
    pub fn new(inner: &'a mut S, tracer: &'a Tracer) -> Self {
        TimedSource {
            inner,
            tracer,
            slot: None,
        }
    }
}

impl<S: RowSource + ?Sized> RowSource for TimedSource<'_, S> {
    fn fill_row(&mut self, len: usize, buf: &mut Vec<f64>) -> Result<(), EngineError> {
        let start = Instant::now();
        let out = self.inner.fill_row(len, buf);
        self.tracer
            .fold(&mut self.slot, "stream.source_pull", start);
        out
    }

    fn mapped(&self) -> Option<MappedGrid> {
        self.inner.mapped()
    }
}

/// Times every `push_row` of the wrapped sink as `stream.sink_push` and
/// its `finish` as `stream.sink_finish`, forwarding both.
pub struct TimedSink<'a, K: RowSink + ?Sized> {
    inner: &'a mut K,
    tracer: &'a Tracer,
    slot: Option<usize>,
}

impl<'a, K: RowSink + ?Sized> TimedSink<'a, K> {
    pub fn new(inner: &'a mut K, tracer: &'a Tracer) -> Self {
        TimedSink {
            inner,
            tracer,
            slot: None,
        }
    }
}

impl<K: RowSink + ?Sized> RowSink for TimedSink<'_, K> {
    fn push_row(&mut self, row: &[f64]) -> Result<(), EngineError> {
        let start = Instant::now();
        let out = self.inner.push_row(row);
        self.tracer.fold(&mut self.slot, "stream.sink_push", start);
        out
    }

    fn finish(&mut self) -> Result<(), EngineError> {
        let inner = &mut self.inner;
        self.tracer.span("stream.sink_finish", || inner.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::MemorySystemPlan;
    use stencil_engine::{ExecMode, MmapSink, MmapSource, Session};

    #[test]
    fn spans_nest_and_fold_row_calls() {
        let t = Tracer::new(true);
        t.job(7, || {
            t.span("outer", || {
                let mut slot = None;
                for _ in 0..3 {
                    t.fold(&mut slot, "row", Instant::now());
                }
            })
        });
        let spans = t.since(0);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            (spans[2].name, spans[2].calls, spans[2].parent),
            ("row", 3, Some(1))
        );
        assert!(spans.iter().all(|s| s.job == 7 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.job(1, || t.span("x", || 5)), 5);
        assert_eq!(t.mark(), 0);
    }

    #[test]
    fn wrapped_mmap_source_stays_zero_copy_and_bit_identical() {
        let dir = std::env::temp_dir().join(format!("perf-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let bench = stencil_kernels::denoise();
        let spec = bench.spec_for(&[24, 40]).expect("spec");
        let plan = MemorySystemPlan::generate(&spec).expect("plan");
        let values: Vec<f64> = (0..24 * 40).map(|i| f64::from(i) * 0.5 - 3.0).collect();
        let input = dir.join("in.sgrid");
        stencil_engine::pack_grid(&input, &[24, 40], &values).expect("pack");
        let session = Session::build(&plan, &bench.stage())
            .expect("session")
            .mode(ExecMode::Streaming {
                chunk_rows: Some(8),
            });

        let run = |out: &std::path::Path, traced: bool| {
            let tracer = Tracer::new(traced);
            let mut source = MmapSource::open(&input).expect("open");
            let mut sink = MmapSink::create(out, &[22, 38]).expect("sink");
            let report = if traced {
                let mut s = TimedSource::new(&mut source, &tracer);
                let mut k = TimedSink::new(&mut sink, &tracer);
                session.run_streaming(&mut s, &mut k)
            } else {
                session.run_streaming(&mut source, &mut sink)
            }
            .expect("run");
            let io = report.grid_io.expect("grid io block");
            (io, tracer.since(0))
        };
        let (plain_io, _) = run(&dir.join("plain.sgrid"), false);
        let (traced_io, spans) = run(&dir.join("traced.sgrid"), true);
        assert_eq!(traced_io.values_copied, 0);
        assert!(traced_io.zero_copy() && traced_io.sink_finalized);
        assert_eq!(traced_io, plain_io);
        assert!(spans
            .iter()
            .any(|s| s.name == "stream.sink_push" && s.calls == 22));
        assert!(spans.iter().any(|s| s.name == "stream.sink_finish"));
        assert!(!spans.iter().any(|s| s.name == "stream.source_pull"));
        let a = std::fs::read(dir.join("plain.sgrid")).expect("plain output");
        let b = std::fs::read(dir.join("traced.sgrid")).expect("traced output");
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
