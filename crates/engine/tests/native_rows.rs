//! Native row bodies against the scalar forms of the same kernel.
//!
//! Every built-in kernel carries a native row body ([`NativeRow`]): its
//! closure formula compiled as one vectorizable loop over a whole row,
//! in a slice form and an appending form. The compiled sweep runs it in
//! place of the register program, so both forms must reproduce the
//! closure and the scalar bytecode bit for bit on any input, special
//! values included, and a body either of whose forms does not must be
//! refused before it produces any output.
//!
//! CI also runs this file with `--release`: the test profile builds
//! at a lower optimization level, and only the release build emits the
//! vectorized loop the engine ships.

use proptest::prelude::*;
use stencil_core::MemorySystemPlan;
use stencil_engine::{CompiledKernel, EngineError, Session};
use stencil_kernels::{
    denoise, extra_suite, paper_suite, Benchmark, KernelExpr, KernelOps, NativeRow,
};
use stencil_polyhedral::Point;

/// Row lengths: below, at and around one vector chunk, the suite's
/// short 3D rows (94) and DENOISE's full rows (1022).
const ROW_LENGTHS: [usize; 7] = [1, 2, 31, 32, 33, 94, 1022];

/// Every built-in benchmark that carries a native row body.
fn native_benchmarks() -> Vec<Benchmark> {
    paper_suite()
        .into_iter()
        .chain(extra_suite())
        .filter(|b| b.native_row().is_some())
        .collect()
}

/// The special values every row draws from: signed zeros, infinities,
/// subnormals, the smallest normal, and a NaN.
const SPECIALS: [f64; 9] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
    5e-324,
    -2.5e-310,
    1.0e300,
    f64::NAN,
];

/// A tiny LCG, so one case seed fixes every row value.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// One row value. `mode` 0 mixes ordinary values with specials,
    /// 1 draws only signed zeros (so whole windows of `-0.0` occur), 2
    /// draws ordinary values with subnormals and zeros sprinkled in.
    fn value(&mut self, mode: u8) -> f64 {
        let r = self.next();
        match mode {
            1 => {
                if r & 1 == 0 {
                    0.0
                } else {
                    -0.0
                }
            }
            2 if r.is_multiple_of(4) => SPECIALS[(r >> 8) as usize % 2 + 4],
            0 if r.is_multiple_of(3) => SPECIALS[(r >> 8) as usize % SPECIALS.len()],
            _ => ((r >> 12) as f64) / 1e6 - 1024.0,
        }
    }
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Native row == its append form == closure per window == scalar
    /// bytecode, bit for bit (all NaN where any is NaN), for every
    /// built-in benchmark with a native row, over rows of every length
    /// in [`ROW_LENGTHS`] whose taps overlap like a stencil's. The
    /// append form lands after what its vector already holds.
    #[test]
    fn native_rows_match_closure_and_bytecode(seed in 0u64..u64::MAX, mode in 0u8..3) {
        let benches = native_benchmarks();
        prop_assert_eq!(benches.len(), 14);
        let mut rng = Lcg(seed | 1);
        for b in &benches {
            let row = b.native_row().expect("filtered on a native row");
            let ck = CompiledKernel::for_benchmark(b)
                .map_err(|e| TestCaseError::fail(format!("{}: {e}", b.name())))?
                .expect("built-ins carry an expression");
            let compute = b.compute_fn();
            let taps = b.window().len();
            for len in ROW_LENGTHS {
                // Each tap reads its own shifted run of one buffer.
                let vals: Vec<f64> = (0..len + 3 * taps).map(|_| rng.value(mode)).collect();
                let bases: Vec<usize> = (0..taps).map(|_| rng.next() as usize % (3 * taps + 1)).collect();
                let mut out = vec![f64::MAX; len];
                row.run(&vals, &bases, &mut out);
                let mut appended = vec![f64::MIN; 3];
                row.append(&vals, &bases, len, &mut appended);
                prop_assert_eq!(appended.len(), len + 3, "{} len {}", b.name(), len);
                prop_assert!(appended[..3].iter().all(|&v| v == f64::MIN));
                let mut window = vec![0.0; taps];
                for (t, (&native, &append)) in out.iter().zip(&appended[3..]).enumerate() {
                    for (w, &base) in window.iter_mut().zip(&bases) {
                        *w = vals[base + t];
                    }
                    let closure = compute(&window);
                    let bytecode = ck.eval(&window);
                    prop_assert!(
                        same(native, append) && same(append, closure) && same(closure, bytecode),
                        "{} len {len} column {t}: native {native:?}, append {append:?}, \
                         closure {closure:?}, bytecode {bytecode:?} on {window:?}",
                        b.name()
                    );
                }
            }
        }
    }
}

/// Whole windows of one special value: a sum that starts from `0.0`
/// instead of `-0.0` parts from `Iterator::sum` here, and `inf - inf`
/// gives NaN in every form.
#[test]
fn uniform_special_windows_agree() {
    for b in native_benchmarks() {
        let row = b.native_row().expect("filtered on a native row");
        let ck = CompiledKernel::for_benchmark(&b).unwrap().unwrap();
        let taps = b.window().len();
        for v in SPECIALS {
            let window = vec![v; taps];
            let mut out = [0.0];
            row.run(&window, &vec![0; taps], &mut out);
            let mut appended = Vec::new();
            row.append(&window, &vec![0; taps], 1, &mut appended);
            let (closure, bytecode) = (b.compute(&window), ck.eval(&window));
            assert!(
                same(out[0], appended[0]) && same(out[0], closure) && same(closure, bytecode),
                "{} on all {v:?}: native {:?}, append {:?}, closure {closure:?}, \
                 bytecode {bytecode:?}",
                b.name(),
                out[0],
                appended[0]
            );
        }
    }
}

/// DENOISE's window and expression with a native body that drops the
/// 0.2 damping factor's rounding (`x / 5` is not `0.2 * x` in binary64).
fn mismatched_denoise() -> Benchmark {
    fn wrong_row(vals: &[f64], bases: &[usize], out: &mut [f64]) {
        stencil_kernels::sweep_row::<5>(vals, bases, out, |v| {
            v[2] + (v[0] + v[4] + v[3] + v[1] - 4.0 * v[2]) / 5.0
        });
    }
    fn wrong_append(vals: &[f64], bases: &[usize], len: usize, out: &mut Vec<f64>) {
        stencil_kernels::append_row::<5>(vals, bases, len, out, |v| {
            v[2] + (v[0] + v[4] + v[3] + v[1] - 4.0 * v[2]) / 5.0
        });
    }
    let built_in = denoise();
    Benchmark::new(
        "DENOISE_MISMATCHED",
        built_in.extents().to_vec(),
        built_in.window().to_vec(),
        KernelOps::default(),
        built_in.compute_fn(),
    )
    .with_expr(
        built_in
            .expr()
            .expect("DENOISE carries an expression")
            .clone(),
    )
    .with_native_row(NativeRow::new(5, wrong_row, wrong_append))
}

#[test]
fn a_native_row_that_disagrees_fails_session_build() {
    let bench = mismatched_denoise();
    let spec = bench.spec_for(&[12, 40]).unwrap();
    let plan = MemorySystemPlan::generate(&spec).unwrap();
    let err = Session::build(&plan, &bench.stage())
        .expect_err("a mismatched native row must not build a session");
    assert!(
        matches!(&err, EngineError::KernelMismatch { detail } if detail.contains("native row")),
        "{err}"
    );
    let err = CompiledKernel::for_benchmark(&bench).unwrap_err();
    assert!(matches!(err, EngineError::KernelMismatch { .. }), "{err}");

    // The same benchmark without the native body builds.
    let expr_only = Benchmark::new(
        "DENOISE_EXPR",
        bench.extents().to_vec(),
        bench.window().to_vec(),
        KernelOps::default(),
        bench.compute_fn(),
    )
    .with_expr(bench.expr().unwrap().clone());
    assert!(Session::build(&plan, &expr_only.stage()).is_ok());
}

/// DENOISE with a correct slice form and the given append form.
fn denoise_appending_with(append: stencil_kernels::AppendFn) -> Benchmark {
    fn right_row(vals: &[f64], bases: &[usize], out: &mut [f64]) {
        denoise().native_row().unwrap().run(vals, bases, out);
    }
    let built_in = denoise();
    Benchmark::new(
        "DENOISE_APPEND",
        built_in.extents().to_vec(),
        built_in.window().to_vec(),
        KernelOps::default(),
        built_in.compute_fn(),
    )
    .with_expr(
        built_in
            .expr()
            .expect("DENOISE carries an expression")
            .clone(),
    )
    .with_native_row(NativeRow::new(5, right_row, append))
}

#[test]
fn a_wrong_append_form_fails_session_build() {
    // The formula of the slice form's mismatched sibling.
    fn wrong_formula(vals: &[f64], bases: &[usize], len: usize, out: &mut Vec<f64>) {
        stencil_kernels::append_row::<5>(vals, bases, len, out, |v| {
            v[2] + (v[0] + v[4] + v[3] + v[1] - 4.0 * v[2]) / 5.0
        });
    }
    // The right values, one column short.
    fn short(vals: &[f64], bases: &[usize], len: usize, out: &mut Vec<f64>) {
        denoise()
            .native_row()
            .unwrap()
            .append(vals, bases, len.saturating_sub(1), out);
    }
    // The right values written over what the vector held.
    fn overwrites(vals: &[f64], bases: &[usize], len: usize, out: &mut Vec<f64>) {
        out.clear();
        denoise()
            .native_row()
            .unwrap()
            .append(vals, bases, len, out);
    }
    fn right(vals: &[f64], bases: &[usize], len: usize, out: &mut Vec<f64>) {
        denoise()
            .native_row()
            .unwrap()
            .append(vals, bases, len, out);
    }
    let spec = denoise().spec_for(&[12, 40]).unwrap();
    let plan = MemorySystemPlan::generate(&spec).unwrap();
    for (wrong, what) in [
        (wrong_formula as stencil_kernels::AppendFn, "append form"),
        (short, "append form left"),
        (overwrites, "append form left"),
    ] {
        let bench = denoise_appending_with(wrong);
        let err = Session::build(&plan, &bench.stage())
            .expect_err("a wrong append form must not build a session");
        assert!(
            matches!(&err, EngineError::KernelMismatch { detail } if detail.contains(what)),
            "{err}"
        );
    }
    assert!(Session::build(&plan, &denoise_appending_with(right).stage()).is_ok());
}

#[test]
#[should_panic(expected = "native row reads 5 taps but the window has 1 points")]
fn a_native_row_is_attached_only_with_its_window_size() {
    let _ = Benchmark::new(
        "ONE",
        vec![8],
        vec![Point::new(&[0])],
        KernelOps::default(),
        |v| v[0],
    )
    .with_expr(KernelExpr::tap(0))
    .with_native_row(denoise().native_row().unwrap());
}
