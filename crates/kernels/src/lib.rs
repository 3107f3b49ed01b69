//! # stencil-kernels
//!
//! The benchmark kernels of the DAC'14 non-uniform reuse-buffer paper's
//! evaluation (§5.1) — DENOISE, RICIAN, SOBEL, BICUBIC, DENOISE_3D,
//! SEGMENTATION_3D — plus extra classic stencils for wider validation,
//! and a golden software executor that defines the reference semantics
//! the accelerator must reproduce.
//!
//! Each [`Benchmark`] bundles the data-grid extents, the stencil window,
//! per-iteration datapath arithmetic (for end-to-end value checking),
//! and operation counts (for FPGA resource estimation). Every built-in
//! benchmark writes its arithmetic once, as a per-window closure, a
//! compilable [`KernelExpr`], and a [`NativeRow`] body that runs the
//! closure's formula as one vectorizable loop over a whole row.
//!
//! # Example
//!
//! ```
//! use stencil_core::MemorySystemPlan;
//! use stencil_kernels::{paper_suite, segmentation_3d};
//!
//! // Plan memory systems for the whole paper suite.
//! for bench in paper_suite() {
//!     let plan = MemorySystemPlan::generate(&bench.spec()?)?;
//!     assert_eq!(plan.bank_count(), bench.window().len() - 1);
//! }
//! // Fig. 6(c): 19 references -> 18 banks (vs 20 for uniform cyclic).
//! let seg = segmentation_3d();
//! let plan = MemorySystemPlan::generate(&seg.spec()?)?;
//! assert_eq!(plan.bank_count(), 18);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod accel;
mod benchmark;
mod expr;
mod extras;
mod golden;
mod native;
mod suite;

pub use accel::{accelerate, accelerate_steps, AcceleratedRun};
pub use benchmark::{default_compute, Benchmark, ComputeFn, KernelOps, KernelStage};
pub use expr::KernelExpr;
pub use extras::{
    asymmetric_2d, blur3x3, extra_suite, fused_denoise, gaussian_3x3, heat_1d, high_order_2d,
    jacobi_2d, relax_2d, skewed_denoise,
};
pub use golden::{run_golden, GridValues};
pub use native::{sweep_row, NativeRow, RowFn};
pub use suite::{
    bicubic, denoise, denoise_3d, find_benchmark, paper_suite, rician, segmentation_3d, sobel,
};
