//! The [`Benchmark`] type: a named stencil kernel with its grid, window,
//! datapath arithmetic, and operation counts.

use std::fmt;

use serde::{Deserialize, Serialize};
use stencil_core::{PlanError, StencilSpec};
use stencil_polyhedral::{Point, Polyhedron};

use crate::expr::KernelExpr;
use crate::native::NativeRow;

/// Arithmetic operation counts of one kernel iteration, used by the FPGA
/// resource model to estimate the computation kernel's footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelOps {
    /// Floating-point additions/subtractions.
    pub adds: u32,
    /// Floating-point multiplications.
    pub muls: u32,
    /// Floating-point divisions.
    pub divs: u32,
    /// Square roots.
    pub sqrts: u32,
    /// Comparisons / absolute values / select operations.
    pub cmps: u32,
}

/// The per-iteration arithmetic of a kernel: consumes the window values
/// in the benchmark's declared offset order, produces the output value.
pub type ComputeFn = fn(&[f64]) -> f64;

/// One benchmark stencil kernel.
///
/// # Examples
///
/// ```
/// use stencil_kernels::denoise;
///
/// let b = denoise();
/// assert_eq!(b.window().len(), 5);
/// let spec = b.spec()?;
/// assert_eq!(spec.original_ii(), 5);
/// # Ok::<(), stencil_core::PlanError>(())
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Benchmark {
    name: String,
    /// Full data-grid extents (the paper's problem size).
    extents: Vec<i64>,
    offsets: Vec<Point>,
    ops: KernelOps,
    element_bits: u32,
    #[serde(default)]
    iteration_stable: bool,
    #[serde(skip, default = "default_compute")]
    compute: ComputeFn,
    #[serde(skip)]
    expr: Option<KernelExpr>,
    #[serde(skip)]
    native: Option<NativeRow>,
}

/// The fallback datapath (plain window sum) used when a benchmark is
/// deserialized without its function pointer, and by spec-file-driven
/// tools that have window geometry but no datapath definition.
#[must_use]
pub fn default_compute() -> ComputeFn {
    |vals| vals.iter().sum()
}

impl Benchmark {
    /// Creates a benchmark definition.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty or dimensionality is inconsistent.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        extents: Vec<i64>,
        offsets: Vec<Point>,
        ops: KernelOps,
        compute: ComputeFn,
    ) -> Self {
        assert!(!offsets.is_empty(), "window must be non-empty");
        assert!(
            offsets.iter().all(|f| f.dims() == extents.len()),
            "offset dimensionality mismatch"
        );
        Self {
            name: name.into(),
            extents,
            offsets,
            ops,
            element_bits: StencilSpec::DEFAULT_ELEMENT_BITS,
            iteration_stable: false,
            compute,
            expr: None,
            native: None,
        }
    }

    /// Declares the kernel *iteration-stable*: applying it to its own
    /// output is the intended workload (Jacobi/heat-style relaxation on
    /// a like-typed grid), so execution layers may time-step it with
    /// `Session::iterate`. Kernels that change the value semantics
    /// (edge magnitudes, strided interpolation) stay unmarked.
    #[must_use]
    pub fn with_iteration_stable(mut self) -> Self {
        self.iteration_stable = true;
        self
    }

    /// Whether repeated self-application of this kernel is meaningful
    /// (see [`Benchmark::with_iteration_stable`]).
    #[must_use]
    pub fn iteration_stable(&self) -> bool {
        self.iteration_stable
    }

    /// Attaches the [`KernelExpr`] form of the datapath — the same
    /// formula as `compute`, in the compilable IR. Execution backends
    /// that lower the expression validate it against the closure on
    /// construction, so the two stay the reference/compiled pair of one
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics if the expression references a tap at or beyond the
    /// window size.
    #[must_use]
    pub fn with_expr(mut self, expr: KernelExpr) -> Self {
        if let Some(k) = expr.max_tap() {
            assert!(
                k < self.offsets.len(),
                "expression taps v[{k}] but the window has {} points",
                self.offsets.len()
            );
        }
        self.expr = Some(expr);
        self
    }

    /// The datapath as a compilable [`KernelExpr`], when the benchmark
    /// carries one (all suite benchmarks do; hand-built benchmarks may
    /// only have the closure).
    #[must_use]
    pub fn expr(&self) -> Option<&KernelExpr> {
        self.expr.as_ref()
    }

    /// Attaches the [`NativeRow`] form of the datapath — the same
    /// formula as `compute`, compiled as one loop over a whole output
    /// row. The engine's compiled sweep runs it in place of the
    /// register program once it has checked it bit for bit against the
    /// compiled expression, so it only takes effect alongside
    /// [`Benchmark::with_expr`]. Every built-in kernel carries one.
    ///
    /// # Panics
    ///
    /// Panics if the row body reads a different number of taps than
    /// the window has.
    #[must_use]
    pub fn with_native_row(mut self, row: NativeRow) -> Self {
        assert_eq!(
            row.taps(),
            self.offsets.len(),
            "native row reads {} taps but the window has {} points",
            row.taps(),
            self.offsets.len()
        );
        self.native = Some(row);
        self
    }

    /// The datapath's native row body, when the benchmark carries one
    /// (all built-in benchmarks do; deserialized and hand-built ones
    /// have none unless attached).
    #[must_use]
    pub fn native_row(&self) -> Option<NativeRow> {
        self.native
    }

    /// Sets the data element width in bits (e.g. 16 for imaging pixels).
    #[must_use]
    pub fn with_element_bits(mut self, bits: u32) -> Self {
        self.element_bits = bits;
        self
    }

    /// The data element width in bits.
    #[must_use]
    pub fn element_bits(&self) -> u32 {
        self.element_bits
    }

    /// The kernel name (upper-case, as in the paper's tables).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full data-grid extents used in the paper's evaluation.
    #[must_use]
    pub fn extents(&self) -> &[i64] {
        &self.extents
    }

    /// The stencil window offsets, in declared (datapath) order.
    #[must_use]
    pub fn window(&self) -> &[Point] {
        &self.offsets
    }

    /// Grid dimensionality.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.extents.len()
    }

    /// Arithmetic operation counts of one kernel iteration.
    #[must_use]
    pub fn ops(&self) -> KernelOps {
        self.ops
    }

    /// Evaluates the kernel datapath on window values given in declared
    /// offset order.
    #[must_use]
    pub fn compute(&self, values: &[f64]) -> f64 {
        debug_assert_eq!(values.len(), self.offsets.len());
        (self.compute)(values)
    }

    /// The raw datapath function pointer, for execution backends (e.g.
    /// the parallel engine) that evaluate the kernel without borrowing
    /// the benchmark.
    #[must_use]
    pub fn compute_fn(&self) -> ComputeFn {
        self.compute
    }

    /// The iteration domain on the full grid: all iterations whose whole
    /// window stays inside `[0, extent)` per dimension.
    ///
    /// # Panics
    ///
    /// Panics if the window is wider than the grid.
    #[must_use]
    pub fn iteration_domain(&self) -> Polyhedron {
        self.iteration_domain_for(&self.extents)
    }

    /// The iteration domain for custom extents (e.g. scaled-down grids
    /// for fast tests).
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit in the grid.
    #[must_use]
    pub fn iteration_domain_for(&self, extents: &[i64]) -> Polyhedron {
        let m = extents.len();
        assert_eq!(m, self.dims(), "extent dimensionality mismatch");
        let mut bounds = Vec::with_capacity(m);
        for d in 0..m {
            let min_f = self.offsets.iter().map(|f| f[d]).min().expect("non-empty");
            let max_f = self.offsets.iter().map(|f| f[d]).max().expect("non-empty");
            let lo = -min_f.min(0);
            let hi = extents[d] - 1 - max_f.max(0);
            assert!(lo <= hi, "window does not fit grid in dimension {d}");
            bounds.push((lo, hi));
        }
        Polyhedron::rect(&bounds)
    }

    /// The stencil specification at the paper's full problem size.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from specification validation.
    pub fn spec(&self) -> Result<StencilSpec, PlanError> {
        self.spec_for(&self.extents)
    }

    /// The stencil specification on a custom grid.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from specification validation.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the grid.
    pub fn spec_for(&self, extents: &[i64]) -> Result<StencilSpec, PlanError> {
        StencilSpec::with_element_bits(
            self.name.to_lowercase(),
            self.iteration_domain_for(extents),
            self.offsets.clone(),
            self.element_bits,
        )
    }

    /// The per-stage metadata of this kernel for temporal chaining —
    /// everything a pipeline stage needs (name, window, datapath,
    /// compilable expression), detached from the benchmark's grid
    /// extents: a chained stage runs on whatever domain the upstream
    /// stage produces, not on this benchmark's problem size.
    #[must_use]
    pub fn stage(&self) -> KernelStage {
        let mut stage = KernelStage::new(&self.name, self.offsets.clone(), self.compute);
        if let Some(expr) = &self.expr {
            stage = stage.with_expr(expr.clone());
        }
        stage.native = self.native;
        stage
    }

    /// Reorders port values (delivered in some port-offset order, e.g.
    /// the memory system's filter order) into this benchmark's declared
    /// offset order, ready for [`Benchmark::compute`].
    ///
    /// # Panics
    ///
    /// Panics if `port_offsets` is not a permutation of the window.
    #[must_use]
    pub fn reorder_ports(&self, port_offsets: &[Point], values: &[f64]) -> Vec<f64> {
        assert_eq!(port_offsets.len(), values.len());
        self.offsets
            .iter()
            .map(|f| {
                let k = port_offsets
                    .iter()
                    .position(|p| p == f)
                    .expect("port offsets must be a permutation of the window");
                values[k]
            })
            .collect()
    }
}

/// One stage of a temporal kernel pipeline: a named window plus its
/// datapath (closure form, and optionally the compilable
/// [`KernelExpr`] and its [`NativeRow`]), without any grid geometry. Stage metadata is what
/// execution sessions chain on — the iteration domain of stage *i+1*
/// is derived from stage *i*'s output domain and this window, so the
/// stage itself stays extent-free.
///
/// Obtain one from [`Benchmark::stage`] or build one directly for a
/// custom datapath.
#[derive(Debug, Clone)]
pub struct KernelStage {
    name: String,
    offsets: Vec<Point>,
    compute: ComputeFn,
    expr: Option<KernelExpr>,
    native: Option<NativeRow>,
}

impl KernelStage {
    /// Creates a stage from a window and its closure datapath.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty or dimensionality is inconsistent.
    #[must_use]
    pub fn new(name: impl Into<String>, offsets: Vec<Point>, compute: ComputeFn) -> Self {
        assert!(!offsets.is_empty(), "window must be non-empty");
        let dims = offsets[0].dims();
        assert!(
            offsets.iter().all(|f| f.dims() == dims),
            "offset dimensionality mismatch"
        );
        Self {
            name: name.into(),
            offsets,
            compute,
            expr: None,
            native: None,
        }
    }

    /// Attaches the compilable expression form of the datapath (same
    /// semantics as [`Benchmark::with_expr`]).
    ///
    /// # Panics
    ///
    /// Panics if the expression references a tap at or beyond the
    /// window size.
    #[must_use]
    pub fn with_expr(mut self, expr: KernelExpr) -> Self {
        if let Some(k) = expr.max_tap() {
            assert!(
                k < self.offsets.len(),
                "expression taps v[{k}] but the window has {} points",
                self.offsets.len()
            );
        }
        self.expr = Some(expr);
        self
    }

    /// The stage name (for per-stage reports and metrics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stage's window offsets, in declared (datapath) order.
    #[must_use]
    pub fn window(&self) -> &[Point] {
        &self.offsets
    }

    /// The window's dimensionality.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.offsets[0].dims()
    }

    /// The window's span per dimension (`max − min + 1` over the tap
    /// offsets): the halo extent a chained session erodes the upstream
    /// domain by, and the per-stage reuse-buffer reach the paper's
    /// Sec. 2.3 bound is computed from.
    #[must_use]
    pub fn window_extents(&self) -> Vec<i64> {
        (0..self.dims())
            .map(|d| {
                let lo = self.offsets.iter().map(|f| f[d]).min().expect("non-empty");
                let hi = self.offsets.iter().map(|f| f[d]).max().expect("non-empty");
                hi - lo + 1
            })
            .collect()
    }

    /// The closure datapath.
    #[must_use]
    pub fn compute_fn(&self) -> ComputeFn {
        self.compute
    }

    /// The compilable expression form, when the stage carries one.
    #[must_use]
    pub fn expr(&self) -> Option<&KernelExpr> {
        self.expr.as_ref()
    }

    /// Attaches the native row body of the datapath (same semantics as
    /// [`Benchmark::with_native_row`]).
    ///
    /// # Panics
    ///
    /// Panics if the row body reads a different number of taps than
    /// the window has.
    #[must_use]
    pub fn with_native_row(mut self, row: NativeRow) -> Self {
        assert_eq!(
            row.taps(),
            self.offsets.len(),
            "native row reads {} taps but the window has {} points",
            row.taps(),
            self.offsets.len()
        );
        self.native = Some(row);
        self
    }

    /// The native row body, when the stage carries one.
    #[must_use]
    pub fn native_row(&self) -> Option<NativeRow> {
        self.native
    }
}

impl fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("extents", &self.extents)
            .field("window", &self.offsets.len())
            .finish()
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}D, {:?}, {}-point)",
            self.name,
            self.dims(),
            self.extents,
            self.offsets.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Benchmark {
        Benchmark::new(
            "TOY",
            vec![8, 8],
            vec![
                Point::new(&[-1, 0]),
                Point::new(&[0, 0]),
                Point::new(&[1, 0]),
            ],
            KernelOps {
                adds: 2,
                ..KernelOps::default()
            },
            |v| v[0] + v[1] + v[2],
        )
    }

    #[test]
    fn iteration_domain_shrinks_by_window() {
        let d = toy().iteration_domain();
        assert!(d.contains(&Point::new(&[1, 0])));
        assert!(d.contains(&Point::new(&[6, 7])));
        assert!(!d.contains(&Point::new(&[0, 0])));
        assert!(!d.contains(&Point::new(&[7, 0])));
    }

    #[test]
    fn spec_roundtrip() {
        let s = toy().spec().unwrap();
        assert_eq!(s.window_size(), 3);
        assert_eq!(s.name(), "toy");
    }

    #[test]
    fn compute_applies_datapath() {
        assert_eq!(toy().compute(&[1.0, 2.0, 3.0]), 6.0);
    }

    #[test]
    fn stage_metadata_mirrors_the_benchmark() {
        let b = crate::suite::denoise();
        let s = b.stage();
        assert_eq!(s.name(), b.name());
        assert_eq!(s.window(), b.window());
        assert_eq!(s.dims(), 2);
        // The 5-point cross spans 3 rows and 3 columns.
        assert_eq!(s.window_extents(), vec![3, 3]);
        assert!(s.expr().is_some());
        let w = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!((s.compute_fn())(&w), b.compute(&w));
    }

    #[test]
    #[should_panic(expected = "window has 2 points")]
    fn stage_rejects_out_of_window_expr_taps() {
        let [_, _, t2] = KernelExpr::taps::<3>();
        let _ = KernelStage::new("bad", vec![Point::new(&[0]), Point::new(&[1])], |w| w[0])
            .with_expr(t2);
    }

    #[test]
    fn reorder_ports_permutes() {
        let b = toy();
        // Ports delivered in descending filter order: (1,0), (0,0), (-1,0).
        let port_offsets = [
            Point::new(&[1, 0]),
            Point::new(&[0, 0]),
            Point::new(&[-1, 0]),
        ];
        let vals = b.reorder_ports(&port_offsets, &[30.0, 20.0, 10.0]);
        assert_eq!(vals, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    #[should_panic(expected = "window does not fit")]
    fn oversized_window_panics() {
        let b = Benchmark::new(
            "BAD",
            vec![2],
            vec![Point::new(&[-3]), Point::new(&[3])],
            KernelOps::default(),
            |v| v[0],
        );
        let _ = b.iteration_domain();
    }

    #[test]
    fn with_expr_attaches_and_validates_taps() {
        let b = toy();
        assert!(b.expr().is_none());
        let b = b.with_expr(KernelExpr::window_sum(3));
        let e = b.expr().expect("expr attached");
        assert_eq!(e.eval(&[1.0, 2.0, 3.0]), b.compute(&[1.0, 2.0, 3.0]));
    }

    #[test]
    #[should_panic(expected = "expression taps v[3]")]
    fn with_expr_rejects_out_of_window_taps() {
        let _ = toy().with_expr(KernelExpr::tap(3));
    }

    #[test]
    fn display_and_debug() {
        let b = toy();
        assert_eq!(b.to_string(), "TOY (2D, [8, 8], 3-point)");
        assert!(format!("{b:?}").contains("TOY"));
    }
}
