//! # stencil-engine
//!
//! A high-throughput *software* execution backend for stencil plans —
//! the fast sibling of `stencil_sim`'s cycle-accurate machine.
//!
//! Where the simulator advances one element per simulated clock cycle
//! through FIFOs and data filters, the engine executes the same
//! plan-derived computation with a tight line-buffer loop:
//!
//! * the iteration domain is partitioned into row bands with correct
//!   halo overlap ([`stencil_core::TilePlan`], Appendix 9.4's
//!   one-band-per-off-chip-stream sharding rule by default);
//! * each band runs a batched per-row inner loop — every window tap
//!   reduces to a base rank + offset into the flat input stream, so the
//!   hot loop is pure indexed arithmetic with no per-element channel
//!   simulation;
//! * in core, bands execute in parallel on scoped worker threads
//!   pulling from a shared work queue (a single worker runs inline on
//!   the caller's thread), writing disjoint slices of one output
//!   buffer; streaming, bands run in order and each band's rows split
//!   across the workers;
//! * kernels authored as [`stencil_kernels::KernelExpr`] trees compile
//!   at plan time to flat stack bytecode ([`CompiledKernel`], checked
//!   against the closure by [`CompiledKernel::compile_checked`]) and
//!   sweep one whole row per call. A built-in kernel's native row body
//!   ([`stencil_kernels::NativeRow`], checked against the bytecode when
//!   the kernel is compiled) runs the row; an expression-only kernel
//!   runs a register program lowered from the bytecode's expression:
//!   each window tap binds to a column-shifted contiguous slice of the
//!   resident rows and every op evaluates over fixed-width lane chunks
//!   the compiler can autovectorize. Every compiled row is f64 and
//!   bit-identical to the closure datapath.
//!
//! Every mode × backend combination executes through one composable
//! [`Session`] pipeline layer: `Session::new(&plan).kernel(..)
//! .backend(..).mode(..).threads(..)` resolves the axes orthogonally,
//! and [`Session::then`] chains kernels *temporally* — stage `k`'s
//! output rows stream into stage `k + 1` through the same bounded
//! halo-window machinery, so a chained pipeline keeps roughly the sum
//! of the stages' halo windows resident instead of any full
//! intermediate grid. [`Session::iterate`] closes that chain into a
//! time-stepping ring (the same kernel applied T times to its own
//! output) and [`Session::iterate_until`] adds epsilon-based
//! convergence early exit; both report an [`IterateReport`].
//!
//! The engine consumes the same [`stencil_core::MemorySystemPlan`]
//! interface as the simulator and returns the output grid plus a
//! [`RunReport`] with throughput figures, so results are directly
//! comparable — the differential test harness checks engine output
//! bit-for-bit against both the golden executor and the machine.
//!
//! # Example
//!
//! ```
//! use stencil_core::{MemorySystemPlan, StencilSpec};
//! use stencil_engine::{InputGrid, Session, SessionKernel};
//! use stencil_polyhedral::{Point, Polyhedron};
//!
//! let spec = StencilSpec::new(
//!     "blur",
//!     Polyhedron::rect(&[(1, 14), (1, 14)]),
//!     vec![Point::new(&[-1, 0]), Point::new(&[0, 0]), Point::new(&[1, 0])],
//! )?;
//! let plan = MemorySystemPlan::generate(&spec)?;
//! let index = plan.input_domain().index()?;
//! let values: Vec<f64> = (0..index.len()).map(|r| r as f64).collect();
//! let input = InputGrid::new(&index, &values)?;
//! let sum = |w: &[f64]| w.iter().sum();
//! let run = Session::new(&plan)
//!     .kernel(SessionKernel::Closure(&sum))
//!     .run(&input)?;
//! assert_eq!(run.outputs.len(), 14 * 14);
//! assert_eq!(run.report.outputs(), 14 * 14);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![deny(clippy::cast_possible_truncation)]

mod chain;
mod compile;
mod error;
mod format;
mod input;
mod report;
mod rowexec;
mod serve;
mod session;
mod stream;
mod unroll;

pub use compile::{CompiledKernel, KernelBackend};
pub use error::EngineError;
pub use format::{
    inspect_grid, pack_grid, GridFormatError, GridHeader, MappedGrid, SGRID_DTYPE_F64, SGRID_MAGIC,
    SGRID_MAX_DIMS, SGRID_VERSION,
};
pub use input::InputGrid;
pub use report::{finite_throughput, GridIoReport, RunReport, StreamReport, TileReport};
pub use serve::{
    JobId, JobInput, JobRequest, JobResult, RejectReason, Rejection, ServiceConfig, ServiceFront,
    ServiceOutcome, ShardPolicy, Submission,
};
pub use session::{
    ExecMode, IterateReport, Session, SessionKernel, SessionReport, SessionRun, StagePlan,
    StageReport,
};
pub use stream::{
    FnSource, MmapSink, MmapSource, ReadSource, RowSink, RowSource, SliceSource, VecSink, WriteSink,
};

#[cfg(test)]
mod tests {
    use crate::rowexec::fork_join;
    use crate::EngineError;

    #[test]
    fn scoped_threads_borrow_and_join() {
        // Workers borrow `data` and the item slots from the caller's
        // stack; every write is visible once fork_join returns.
        let data = [1u64, 2, 3, 4];
        let mut partials = vec![0u64; data.len()];
        let items: Vec<_> = partials.iter_mut().zip(&data).collect();
        let done = fork_join(items, 4, |(slot, &x)| {
            *slot = x * 10;
            Ok(x)
        })
        .expect("no failures");
        assert_eq!(done, data);
        assert_eq!(partials, vec![10, 20, 30, 40]);
    }

    #[test]
    fn panics_surface_as_err() {
        for workers in [1usize, 2] {
            let r = fork_join(vec![0u8, 1], workers, |k| -> Result<u8, EngineError> {
                if k == 1 {
                    panic!("boom");
                }
                Ok(k)
            });
            assert_eq!(r, Err(EngineError::WorkerPanic), "workers={workers}");
        }
    }
}
