//! Native row bodies: a kernel's own formula compiled by rustc as one
//! per-column loop over a whole output row.
//!
//! Every built-in kernel writes its formula once, through
//! [`datapath!`](crate::native::datapath), which emits both the
//! per-window [`ComputeFn`](crate::ComputeFn) and a [`NativeRow`] whose
//! body is [`sweep_row`] over that same function. In `sweep_row` the
//! tap count is a compile-time constant, so the formula inlines into a
//! loop over `N` column-shifted tap slices that the autovectorizer
//! turns into SIMD — the software form of the kernel-specific datapath
//! the paper synthesizes behind its reuse buffers. It evaluates exactly
//! the closure's expression, in the closure's association order, so
//! its bits equal the closure's.

use std::fmt;

/// The body of a native row: `out[t] = compute(window_t)` for every
/// column `t` of `out`, where `window_t[k] = vals[bases[k] + t]`.
pub type RowFn = fn(vals: &[f64], bases: &[usize], out: &mut [f64]);

/// A kernel's native row body together with the window size it was
/// written for.
///
/// Attach one with [`Benchmark::with_native_row`](crate::Benchmark::with_native_row);
/// the engine checks it bit for bit against the kernel's compiled
/// expression before a run uses it.
#[derive(Clone, Copy)]
pub struct NativeRow {
    taps: usize,
    body: RowFn,
}

impl NativeRow {
    /// A row body over `taps`-point windows.
    #[must_use]
    pub const fn new(taps: usize, body: RowFn) -> Self {
        Self { taps, body }
    }

    /// The window size the body reads.
    #[must_use]
    pub fn taps(&self) -> usize {
        self.taps
    }

    /// Runs the body over one row: `out[t]` is the kernel on the window
    /// `vals[bases[k] + t]`, `k` in declared offset order.
    ///
    /// # Panics
    ///
    /// Panics if `bases` does not hold one base per tap, or a tap's
    /// run `bases[k]..bases[k] + out.len()` is outside `vals`.
    pub fn run(&self, vals: &[f64], bases: &[usize], out: &mut [f64]) {
        assert_eq!(bases.len(), self.taps, "one base per tap");
        (self.body)(vals, bases, out);
    }
}

/// Two native rows are equal when they read the same number of taps
/// through the same function.
impl PartialEq for NativeRow {
    fn eq(&self, other: &Self) -> bool {
        self.taps == other.taps && std::ptr::fn_addr_eq(self.body, other.body)
    }
}

impl fmt::Debug for NativeRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeRow")
            .field("taps", &self.taps)
            .finish_non_exhaustive()
    }
}

/// The generic native row loop: binds each of the `N` taps to its
/// column-shifted slice of `vals`, then evaluates `compute` column by
/// column. With `N` fixed and `compute` inlined, the loop body is the
/// kernel's straight-line formula over `N` loads.
///
/// # Panics
///
/// Panics if `bases.len() != N` or a tap's run leaves `vals`.
#[inline(always)]
pub fn sweep_row<const N: usize>(
    vals: &[f64],
    bases: &[usize],
    out: &mut [f64],
    compute: impl Fn(&[f64]) -> f64,
) {
    let len = out.len();
    let bases: &[usize; N] = bases.try_into().expect("one base per tap");
    let taps: [&[f64]; N] = std::array::from_fn(|k| &vals[bases[k]..bases[k] + len]);
    for (t, o) in out.iter_mut().enumerate() {
        let window: [f64; N] = std::array::from_fn(|k| taps[k][t]);
        *o = compute(&window);
    }
}

/// Writes a kernel formula once and returns `(ComputeFn, NativeRow)`:
/// the per-window function and the native row body over it.
///
/// `datapath!(5, |v| v[0] + v[4])` — the tap count, then a closure over
/// the window slice `v` in declared offset order.
macro_rules! datapath {
    ($taps:literal, |$v:ident| $body:expr) => {{
        #[inline(always)]
        fn compute($v: &[f64]) -> f64 {
            $body
        }
        fn row(vals: &[f64], bases: &[usize], out: &mut [f64]) {
            $crate::native::sweep_row::<$taps>(vals, bases, out, compute);
        }
        (
            compute as $crate::ComputeFn,
            $crate::native::NativeRow::new($taps, row),
        )
    }};
}
pub(crate) use datapath;

#[cfg(test)]
mod tests {
    #[test]
    fn sweep_row_evaluates_each_column_window() {
        let (compute, row) = datapath!(3, |v| v[0] - 2.0 * v[1] + v[2]);
        let vals: Vec<f64> = (0..40).map(|i| f64::from(i) * 0.5 - 3.0).collect();
        let bases = [0, 7, 13];
        let mut out = vec![0.0; 20];
        row.run(&vals, &bases, &mut out);
        for (t, &o) in out.iter().enumerate() {
            let w = [vals[t], vals[7 + t], vals[13 + t]];
            assert_eq!(o.to_bits(), compute(&w).to_bits(), "column {t}");
        }
        assert_eq!(row.taps(), 3);
    }

    #[test]
    #[should_panic(expected = "one base per tap")]
    fn run_rejects_a_wrong_base_count() {
        let (_, row) = datapath!(2, |v| v[0] + v[1]);
        row.run(&[1.0, 2.0], &[0], &mut [0.0]);
    }
}
