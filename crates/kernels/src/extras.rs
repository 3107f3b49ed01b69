//! Additional kernels beyond the paper's six benchmarks: classic
//! stencils used for wider validation, ablations, and the skewed-grid
//! experiment of Fig. 9.

use stencil_core::{PlanError, StencilSpec};
use stencil_polyhedral::{Constraint, Point, Polyhedron};

use crate::benchmark::{Benchmark, KernelOps};
use crate::expr::KernelExpr;
use crate::native::datapath;

/// JACOBI_2D (2D, 512×512): the standard 5-point Jacobi relaxation —
/// same window as DENOISE with plain averaging.
#[must_use]
pub fn jacobi_2d() -> Benchmark {
    let (compute, row) = datapath!(5, |v| 0.2 * (v[0] + v[1] + v[2] + v[3] + v[4]));
    Benchmark::new(
        "JACOBI_2D",
        vec![512, 512],
        vec![
            Point::new(&[-1, 0]),
            Point::new(&[0, -1]),
            Point::new(&[0, 0]),
            Point::new(&[0, 1]),
            Point::new(&[1, 0]),
        ],
        KernelOps {
            adds: 4,
            muls: 1,
            ..KernelOps::default()
        },
        compute,
    )
    .with_native_row(row)
    .with_iteration_stable()
    .with_expr({
        let [t0, t1, t2, t3, t4] = KernelExpr::taps::<5>();
        0.2 * (t0 + t1 + t2 + t3 + t4)
    })
}

/// RELAX_2D (2D, 512×512): damped Jacobi relaxation with ω = 0.8 —
/// the canonical convergent time-stepper. Each step moves the center
/// 80% of the way toward its neighbour average, so on any bounded
/// field the per-step max-abs update contracts geometrically: the
/// reference workload for `iterate_until`-style convergence detection.
#[must_use]
pub fn relax_2d() -> Benchmark {
    let (compute, row) = datapath!(5, |v| 0.2 * v[2] + 0.2 * (v[0] + v[1] + v[3] + v[4]));
    Benchmark::new(
        "RELAX_2D",
        vec![512, 512],
        vec![
            Point::new(&[-1, 0]),
            Point::new(&[0, -1]),
            Point::new(&[0, 0]),
            Point::new(&[0, 1]),
            Point::new(&[1, 0]),
        ],
        KernelOps {
            adds: 5,
            muls: 2,
            ..KernelOps::default()
        },
        compute,
    )
    .with_native_row(row)
    .with_iteration_stable()
    .with_expr({
        let [t0, t1, t2, t3, t4] = KernelExpr::taps::<5>();
        0.2 * t2 + 0.2 * (t0 + t1 + t3 + t4)
    })
}

/// GAUSSIAN_3X3 (2D, 512×512): full 9-point Gaussian blur — a
/// rectangular window, the easy case for uniform partitioning; included
/// to show the non-uniform design matches it too.
#[must_use]
pub fn gaussian_3x3() -> Benchmark {
    let (compute, row) = datapath!(9, |v| {
        let w = [1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0];
        v.iter().zip(&w).map(|(x, c)| x * c).sum::<f64>() / 16.0
    });
    let mut offsets = Vec::with_capacity(9);
    for a in -1..=1i64 {
        for b in -1..=1i64 {
            offsets.push(Point::new(&[a, b]));
        }
    }
    Benchmark::new(
        "GAUSSIAN_3X3",
        vec![512, 512],
        offsets,
        KernelOps {
            adds: 8,
            muls: 3,
            ..KernelOps::default()
        },
        compute,
    )
    .with_native_row(row)
    .with_iteration_stable()
    .with_expr({
        // `sum()` folds from -0.0; keep that exact order.
        let w = [1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0];
        let weighted = w
            .iter()
            .enumerate()
            .fold(KernelExpr::constant(-0.0), |acc, (k, &c)| {
                acc + KernelExpr::tap(k) * c
            });
        weighted / 16.0
    })
}

/// BLUR3X3 (2D, 768×1024): the unweighted 9-point box blur on the
/// DENOISE grid — the canonical post-processing stage for
/// heterogeneous temporal chains (e.g. DENOISE followed by BLUR3X3),
/// where the downstream window differs from the upstream one and the
/// inter-stage reuse buffer is sized from *this* stage's own halo.
#[must_use]
pub fn blur3x3() -> Benchmark {
    let (compute, row) = datapath!(9, |v| v.iter().sum::<f64>() / 9.0);
    let mut offsets = Vec::with_capacity(9);
    for a in -1..=1i64 {
        for b in -1..=1i64 {
            offsets.push(Point::new(&[a, b]));
        }
    }
    Benchmark::new(
        "BLUR3X3",
        vec![768, 1024],
        offsets,
        KernelOps {
            adds: 8,
            divs: 1,
            ..KernelOps::default()
        },
        compute,
    )
    .with_native_row(row)
    .with_iteration_stable()
    // `sum()` folds from -0.0; `window_sum` keeps that exact order.
    .with_expr(KernelExpr::window_sum(9) / 9.0)
}

/// HEAT_1D (1D, 4096): the 3-point explicit heat-equation step — the
/// smallest interesting chain (two depth-1 FIFOs).
#[must_use]
pub fn heat_1d() -> Benchmark {
    let (compute, row) = datapath!(3, |v| v[1] + 0.25 * (v[0] - 2.0 * v[1] + v[2]));
    Benchmark::new(
        "HEAT_1D",
        vec![4096],
        vec![Point::new(&[-1]), Point::new(&[0]), Point::new(&[1])],
        KernelOps {
            adds: 3,
            muls: 1,
            ..KernelOps::default()
        },
        compute,
    )
    .with_native_row(row)
    .with_iteration_stable()
    .with_expr({
        let [t0, t1, t2] = KernelExpr::taps::<3>();
        t1.clone() + 0.25 * (t0 - 2.0 * t1 + t2)
    })
}

/// A wide fused window: DENOISE after one step of loop fusion (§2.1:
/// "the stencil window is large... after loop fusion of stencil
/// applications for computation reduction"): the 13-point double cross
/// reaching distance 2.
#[must_use]
pub fn fused_denoise() -> Benchmark {
    let mut offsets = Vec::new();
    for a in -2..=2i64 {
        for b in -2..=2i64 {
            if a.abs() + b.abs() <= 2 {
                offsets.push(Point::new(&[a, b]));
            }
        }
    }
    debug_assert_eq!(offsets.len(), 13);
    let (compute, row) = datapath!(13, |v| {
        let sum: f64 = v.iter().sum();
        let center = v[6];
        center + 0.04 * (sum - 13.0 * center)
    });
    Benchmark::new(
        "FUSED_DENOISE",
        vec![768, 1024],
        offsets,
        KernelOps {
            adds: 14,
            muls: 3,
            ..KernelOps::default()
        },
        compute,
    )
    .with_native_row(row)
    .with_expr({
        let sum = KernelExpr::window_sum(13);
        let center = KernelExpr::tap(6);
        center.clone() + 0.04 * (sum - 13.0 * center)
    })
}

/// The skewed-grid DENOISE variant of Fig. 9: the rectangular grid is
/// iterated along the 45° direction after loop skewing (`t = r + c`),
/// so the wavefront rows (antidiagonals) grow and shrink in length and
/// the reuse distances between references change dynamically as
/// execution advances.
///
/// `rows`/`cols` are the original rectangle's interior extents. The
/// 5-point cross maps under the skew to
/// `{(1,1),(1,0),(0,0),(-1,0),(-1,-1)}`.
///
/// Returns a ready [`StencilSpec`] (the skewed iteration domain is not
/// derivable from extents alone, so this is not a [`Benchmark`]).
///
/// # Errors
///
/// Propagates [`PlanError`] from specification validation.
pub fn skewed_denoise(rows: i64, cols: i64) -> Result<StencilSpec, PlanError> {
    // Skewed coordinates (t, c) with t = r + c over the rectangle
    // 1 <= r <= rows, 1 <= c <= cols:
    //   1 <= c <= cols  and  1 <= t - c <= rows.
    let iter = Polyhedron::new(
        2,
        vec![
            Constraint::lower_bound(2, 1, 1),
            Constraint::upper_bound(2, 1, cols),
            Constraint::new(&[1, -1], -1),   // t - c >= 1
            Constraint::new(&[-1, 1], rows), // t - c <= rows
        ],
    );
    StencilSpec::new(
        "skewed_denoise",
        iter,
        vec![
            Point::new(&[-1, -1]), // original (0,-1): west
            Point::new(&[-1, 0]),  // original (-1,0): north
            Point::new(&[0, 0]),   // center
            Point::new(&[1, 0]),   // original (1,0): south
            Point::new(&[1, 1]),   // original (0,1): east
        ],
    )
}

/// HIGH_ORDER_2D (2D, 512×512): the 9-point fourth-order Laplacian
/// star — taps at distance 1 and 2 along each axis. Its non-unit gaps
/// produce FIFO sizes of both `W` and `1` *and* a depth-2 register
/// FIFO, exercising every storage tier at once.
#[must_use]
pub fn high_order_2d() -> Benchmark {
    let (compute, row) = datapath!(9, |v| {
        // 4th-order: (16*(n1+s1+e1+w1) - (n2+s2+e2+w2) - 60*c) / 12.
        let c = v[4];
        let near = v[1] + v[3] + v[5] + v[7];
        let far = v[0] + v[2] + v[6] + v[8];
        c + (16.0 * near - far - 60.0 * c) / 720.0
    });
    Benchmark::new(
        "HIGH_ORDER_2D",
        vec![512, 512],
        vec![
            Point::new(&[-2, 0]),
            Point::new(&[-1, 0]),
            Point::new(&[0, -2]),
            Point::new(&[0, -1]),
            Point::new(&[0, 0]),
            Point::new(&[0, 1]),
            Point::new(&[0, 2]),
            Point::new(&[1, 0]),
            Point::new(&[2, 0]),
        ],
        KernelOps {
            adds: 8,
            muls: 3,
            ..KernelOps::default()
        },
        compute,
    )
    .with_native_row(row)
    .with_expr({
        let [t0, t1, t2, t3, c, t5, t6, t7, t8] = KernelExpr::taps::<9>();
        let near = t1 + t3 + t5 + t7;
        let far = t0 + t2 + t6 + t8;
        c.clone() + (16.0 * near - far - 60.0 * c) / 720.0
    })
}

/// ASYMMETRIC_2D (2D, 512×512): a deliberately lopsided 4-point window
/// (upwind-biased advection taps) — no symmetry for any partitioning
/// heuristic to exploit.
#[must_use]
pub fn asymmetric_2d() -> Benchmark {
    let (compute, row) = datapath!(4, |v| 0.5 * v[2] + 0.25 * v[1] + 0.15 * v[0] + 0.1 * v[3]);
    Benchmark::new(
        "ASYMMETRIC_2D",
        vec![512, 512],
        vec![
            Point::new(&[-2, 1]),
            Point::new(&[-1, -1]),
            Point::new(&[0, 0]),
            Point::new(&[0, 2]),
        ],
        KernelOps {
            adds: 3,
            muls: 3,
            ..KernelOps::default()
        },
        compute,
    )
    .with_native_row(row)
    .with_expr({
        let [t0, t1, t2, t3] = KernelExpr::taps::<4>();
        0.5 * t2 + 0.25 * t1 + 0.15 * t0 + 0.1 * t3
    })
}

/// Extra kernels for extended validation (excludes the skewed spec,
/// which has its own constructor).
#[must_use]
pub fn extra_suite() -> Vec<Benchmark> {
    vec![
        jacobi_2d(),
        relax_2d(),
        gaussian_3x3(),
        blur3x3(),
        heat_1d(),
        fused_denoise(),
        high_order_2d(),
        asymmetric_2d(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extra_suite_windows() {
        let sizes: Vec<usize> = extra_suite().iter().map(|b| b.window().len()).collect();
        assert_eq!(sizes, vec![5, 5, 9, 9, 3, 13, 9, 4]);
    }

    #[test]
    fn relax_preserves_constants_and_contracts() {
        let b = relax_2d();
        assert!(b.iteration_stable());
        assert!((b.compute(&[4.0; 5]) - 4.0).abs() < 1e-12);
        // One step from a unit spike at the center: the update shrinks
        // the center by the damping factor (contraction toward the
        // neighbour average).
        let out = b.compute(&[0.0, 0.0, 1.0, 0.0, 0.0]);
        assert!((out - 0.2).abs() < 1e-12);
    }

    #[test]
    fn high_order_preserves_constants() {
        assert!((high_order_2d().compute(&[3.0; 9]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_weights_sum_to_one() {
        assert!((asymmetric_2d().compute(&[1.0; 4]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gaussian_preserves_constants() {
        assert!((gaussian_3x3().compute(&[5.0; 9]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn blur_preserves_constants_and_matches_expr() {
        let b = blur3x3();
        assert!(b.iteration_stable());
        assert!((b.compute(&[7.0; 9]) - 7.0).abs() < 1e-12);
        let vals: Vec<f64> = (0..9).map(|k| f64::from(k) * 1.25 - 3.0).collect();
        let expr = b.expr().expect("blur carries its compilable form");
        // Bit-identical, not approximately equal: the expr must fold in
        // the same order as `iter().sum()`.
        assert_eq!(expr.eval(&vals).to_bits(), b.compute(&vals).to_bits());
    }

    #[test]
    fn heat_preserves_constants() {
        assert!((heat_1d().compute(&[2.0; 3]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fused_window_is_l1_ball() {
        let b = fused_denoise();
        assert_eq!(b.window().len(), 13);
        assert!(b.window().iter().all(|f| f.l1_norm() <= 2));
        assert!((b.compute(&[1.0; 13]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_spec_builds() {
        let spec = skewed_denoise(20, 12).unwrap();
        assert_eq!(spec.window_size(), 5);
        // (t, c) = (15, 10): r = 5 in range, c = 10 in range.
        assert!(spec
            .iteration_domain()
            .contains(&stencil_polyhedral::Point::new(&[15, 10])));
        // (t, c) = (5, 5): r = 0 outside.
        assert!(!spec
            .iteration_domain()
            .contains(&stencil_polyhedral::Point::new(&[5, 5])));
    }

    #[test]
    fn skewed_rows_vary_in_length() {
        let spec = skewed_denoise(20, 12).unwrap();
        let idx = spec.iteration_domain().index().unwrap();
        let lens: Vec<u64> = idx.rows().iter().map(|r| r.len()).collect();
        let min = lens.iter().min().unwrap();
        let max = lens.iter().max().unwrap();
        assert_eq!(*min, 1);
        assert_eq!(*max, 12);
    }
}
