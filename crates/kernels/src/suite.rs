//! The benchmark suite of the paper's evaluation (§5.1) plus extras.
//!
//! "DENOISE (2D/3D), RICIAN (2D), and SEGMENTATION (3D) are from medical
//! imaging \[11\]. BICUBIC (2D) is from bicubic interpolation \[13\].
//! SOBEL (2D) is from the Sobel edge detection algorithm \[14\]." The
//! window shapes for RICIAN and BICUBIC (drawn but not printed in the
//! paper's Fig. 6) are reconstructed so the documented baseline
//! behaviour holds: both need 5 banks under affine cyclic partitioning.

use stencil_polyhedral::Point;

use crate::benchmark::{Benchmark, KernelOps};
use crate::expr::KernelExpr;
use crate::native::datapath;

/// DENOISE (2D, 768×1024): the 5-point total-variation denoising window
/// of the paper's Fig. 1/2 — one damped-Laplacian relaxation step.
#[must_use]
pub fn denoise() -> Benchmark {
    let (compute, row) = datapath!(5, |v| {
        let (n, w, c, e, s) = (v[0], v[1], v[2], v[3], v[4]);
        c + 0.2 * (n + s + e + w - 4.0 * c)
    });
    Benchmark::new(
        "DENOISE",
        vec![768, 1024],
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
    .with_element_bits(16)
    .with_iteration_stable()
    .with_expr({
        let [n, w, c, e, s] = KernelExpr::taps::<5>();
        c.clone() + 0.2 * (n + s + e + w - 4.0 * c)
    })
}

/// RICIAN (2D, 768×1024): the 4-point centerless cross of the
/// Rician-noise removal PDE (Fig. 6b) — the restored-image neighbour
/// average feeding the fixed-point update.
#[must_use]
pub fn rician() -> Benchmark {
    let (compute, row) = datapath!(4, |v| {
        let avg = 0.25 * (v[0] + v[1] + v[2] + v[3]);
        // Rician correction: attenuate by the noise-floor ratio.
        (avg * avg / (avg.abs() + 1.0)).sqrt()
    });
    Benchmark::new(
        "RICIAN",
        vec![768, 1024],
        vec![
            Point::new(&[-1, 0]),
            Point::new(&[0, -1]),
            Point::new(&[0, 1]),
            Point::new(&[1, 0]),
        ],
        KernelOps {
            adds: 3,
            muls: 2,
            divs: 1,
            sqrts: 1,
            ..KernelOps::default()
        },
        compute,
    )
    .with_native_row(row)
    .with_element_bits(16)
    .with_expr({
        let [t0, t1, t2, t3] = KernelExpr::taps::<4>();
        let avg = 0.25 * (t0 + t1 + t2 + t3);
        (avg.clone() * avg.clone() / (avg.abs() + 1.0)).sqrt()
    })
}

/// SOBEL (2D, 1024×1024): the 8-point 3×3-minus-center window of Sobel
/// edge detection (gradient magnitude, L1 norm).
#[must_use]
pub fn sobel() -> Benchmark {
    let (compute, row) = datapath!(8, |v| {
        let (nw, n, ne, w, e, sw, s, se) = (v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]);
        let gx = (ne + 2.0 * e + se) - (nw + 2.0 * w + sw);
        let gy = (sw + 2.0 * s + se) - (nw + 2.0 * n + ne);
        gx.abs() + gy.abs()
    });
    Benchmark::new(
        "SOBEL",
        vec![1024, 1024],
        vec![
            Point::new(&[-1, -1]),
            Point::new(&[-1, 0]),
            Point::new(&[-1, 1]),
            Point::new(&[0, -1]),
            Point::new(&[0, 1]),
            Point::new(&[1, -1]),
            Point::new(&[1, 0]),
            Point::new(&[1, 1]),
        ],
        KernelOps {
            adds: 10,
            muls: 4,
            cmps: 2,
            ..KernelOps::default()
        },
        compute,
    )
    .with_native_row(row)
    .with_element_bits(16)
    .with_expr({
        let [nw, n, ne, w, e, sw, s, se] = KernelExpr::taps::<8>();
        let gx = (ne.clone() + 2.0 * e + se.clone()) - (nw.clone() + 2.0 * w + sw.clone());
        let gy = (sw + 2.0 * s + se) - (nw + 2.0 * n + ne);
        gx.abs() + gy.abs()
    })
}

/// BICUBIC (2D, 1024×1024): a 4-point stride-2 window (Fig. 6a) — the
/// interpolation kernel reads the coarse source grid at even offsets,
/// here the 1-D cubic midpoint formula applied per output phase.
#[must_use]
pub fn bicubic() -> Benchmark {
    let (compute, row) = datapath!(4, |v| (9.0 * (v[0] + v[3]) - (v[1] + v[2])) / 16.0);
    Benchmark::new(
        "BICUBIC",
        vec![1024, 1024],
        vec![
            Point::new(&[0, 0]),
            Point::new(&[0, 2]),
            Point::new(&[2, 0]),
            Point::new(&[2, 2]),
        ],
        KernelOps {
            adds: 3,
            muls: 4,
            ..KernelOps::default()
        },
        compute,
    )
    .with_native_row(row)
    .with_element_bits(16)
    .with_expr({
        let [t0, t1, t2, t3] = KernelExpr::taps::<4>();
        (9.0 * (t0 + t3) - (t1 + t2)) / 16.0
    })
}

/// DENOISE_3D (3D, 96×96×96): the 7-point face-neighbour window — the
/// volumetric variant of DENOISE.
#[must_use]
pub fn denoise_3d() -> Benchmark {
    let (compute, row) = datapath!(7, |v| {
        let c = v[3];
        let sum: f64 = v[0] + v[1] + v[2] + v[4] + v[5] + v[6];
        c + 0.1 * (sum - 6.0 * c)
    });
    Benchmark::new(
        "DENOISE_3D",
        vec![96, 96, 96],
        vec![
            Point::new(&[-1, 0, 0]),
            Point::new(&[0, -1, 0]),
            Point::new(&[0, 0, -1]),
            Point::new(&[0, 0, 0]),
            Point::new(&[0, 0, 1]),
            Point::new(&[0, 1, 0]),
            Point::new(&[1, 0, 0]),
        ],
        KernelOps {
            adds: 7,
            muls: 2,
            ..KernelOps::default()
        },
        compute,
    )
    .with_native_row(row)
    .with_element_bits(16)
    .with_iteration_stable()
    .with_expr({
        let [t0, t1, t2, c, t4, t5, t6] = KernelExpr::taps::<7>();
        let sum = t0 + t1 + t2 + t4 + t5 + t6;
        c.clone() + 0.1 * (sum - 6.0 * c)
    })
}

/// SEGMENTATION_3D (3D, 96×96×96): the 19-point window of Fig. 6(c) —
/// the full 3×3×3 neighbourhood minus its 8 corners, as used by the
/// level-set segmentation kernel.
#[must_use]
pub fn segmentation_3d() -> Benchmark {
    let mut offsets = Vec::with_capacity(19);
    for a in -1..=1i64 {
        for b in -1..=1i64 {
            for c in -1..=1i64 {
                if a != 0 && b != 0 && c != 0 {
                    continue; // corners excluded
                }
                offsets.push(Point::new(&[a, b, c]));
            }
        }
    }
    debug_assert_eq!(offsets.len(), 19);
    let (compute, row) = datapath!(19, |v| {
        // Curvature-like smoothing: faces weighted 2, edges 1. Both
        // running sums start at 0.0 and take their taps in ascending
        // lex position (the faces are FACE_POSITIONS; offset (0,0,0)
        // is the 10th in lex order).
        let center = v[9];
        let faces = 0.0 + v[2] + v[6] + v[8] + v[10] + v[12] + v[16];
        let edges = 0.0
            + v[0]
            + v[1]
            + v[3]
            + v[4]
            + v[5]
            + v[7]
            + v[11]
            + v[13]
            + v[14]
            + v[15]
            + v[17]
            + v[18];
        center + (2.0 * faces + edges - 24.0 * center) / 32.0
    });
    Benchmark::new(
        "SEGMENTATION_3D",
        vec![96, 96, 96],
        offsets,
        KernelOps {
            adds: 20,
            muls: 4,
            divs: 1,
            cmps: 2,
            ..KernelOps::default()
        },
        compute,
    )
    .with_native_row(row)
    .with_element_bits(16)
    .with_expr({
        // Mirror the closure's accumulation order exactly: both running
        // sums start at 0.0 and take taps in ascending lex position.
        let mut faces = KernelExpr::constant(0.0);
        let mut edges = KernelExpr::constant(0.0);
        for k in 0..19 {
            if k == 9 {
                continue;
            }
            if FACE_POSITIONS.contains(&k) {
                faces = faces + KernelExpr::tap(k);
            } else {
                edges = edges + KernelExpr::tap(k);
            }
        }
        let center = KernelExpr::tap(9);
        center.clone() + (2.0 * faces + edges - 24.0 * center) / 32.0
    })
    .with_iteration_stable()
}

/// Lex positions of the 6 face neighbours among the 19 offsets of
/// [`segmentation_3d`] (offsets are generated in lexicographic order).
const FACE_POSITIONS: [usize; 6] = [2, 6, 8, 10, 12, 16];

/// The six benchmarks of the paper's Table 4/5, in table order.
#[must_use]
pub fn paper_suite() -> Vec<Benchmark> {
    vec![
        denoise(),
        rician(),
        sobel(),
        bicubic(),
        denoise_3d(),
        segmentation_3d(),
    ]
}

/// Looks a benchmark up by (case-insensitive) name across the paper and
/// extra suites.
#[must_use]
pub fn find_benchmark(name: &str) -> Option<Benchmark> {
    paper_suite()
        .into_iter()
        .chain(crate::extras::extra_suite())
        .find(|b| b.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_composition() {
        let suite = paper_suite();
        let names: Vec<&str> = suite.iter().map(Benchmark::name).collect();
        assert_eq!(
            names,
            vec![
                "DENOISE",
                "RICIAN",
                "SOBEL",
                "BICUBIC",
                "DENOISE_3D",
                "SEGMENTATION_3D"
            ]
        );
        let window_sizes: Vec<usize> = suite.iter().map(|b| b.window().len()).collect();
        assert_eq!(window_sizes, vec![5, 4, 8, 4, 7, 19]);
    }

    #[test]
    fn iteration_stable_marks_the_relaxation_kernels() {
        // Relaxations consume and produce like-typed grids; SOBEL emits
        // gradient magnitudes and BICUBIC reads a strided coarse grid,
        // so neither is meaningful to self-iterate. RICIAN's fixed-point
        // update rewrites values through a sqrt, not a damped average.
        let stable: Vec<String> = paper_suite()
            .iter()
            .filter(|b| b.iteration_stable())
            .map(|b| b.name().to_owned())
            .collect();
        assert_eq!(stable, vec!["DENOISE", "DENOISE_3D", "SEGMENTATION_3D"]);
    }

    #[test]
    fn find_benchmark_by_name() {
        assert_eq!(find_benchmark("denoise").unwrap().name(), "DENOISE");
        assert_eq!(find_benchmark("JACOBI_2D").unwrap().name(), "JACOBI_2D");
        assert!(find_benchmark("nope").is_none());
    }

    #[test]
    fn face_positions_are_the_single_axis_offsets() {
        let b = segmentation_3d();
        for (k, f) in b.window().iter().enumerate() {
            let is_face = f.l1_norm() == 1;
            assert_eq!(
                FACE_POSITIONS.contains(&k),
                is_face,
                "position {k} offset {f}"
            );
        }
    }

    #[test]
    fn denoise_identity_on_constant_field() {
        // A constant field is a fixed point of the relaxation.
        let b = denoise();
        assert!((b.compute(&[3.0; 5]) - 3.0).abs() < 1e-12);
        let b3 = denoise_3d();
        assert!((b3.compute(&[3.0; 7]) - 3.0).abs() < 1e-12);
        let seg = segmentation_3d();
        assert!((seg.compute(&[3.0; 19]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn sobel_zero_on_flat_image() {
        assert_eq!(sobel().compute(&[7.0; 8]), 0.0);
    }

    #[test]
    fn sobel_detects_vertical_edge() {
        // Left half 0, right half 1 => strong |gx|.
        //   nw n ne   0 0 1
        //   w  .  e   0 . 1
        //   sw s se   0 0 1
        let v = [0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0];
        assert!(sobel().compute(&v) >= 4.0);
    }

    #[test]
    fn bicubic_interpolates_linear_ramp() {
        // On a linear ramp the cubic midpoint formula is exact.
        // Values at coarse points (0,0), (0,2), (2,0), (2,2) of f = x + y.
        let v = [0.0, 2.0, 2.0, 4.0];
        let out = bicubic().compute(&v);
        assert!((out - (9.0 * 4.0 - 4.0) / 16.0).abs() < 1e-12);
    }

    #[test]
    fn rician_nonnegative() {
        let out = rician().compute(&[1.0, 2.0, 3.0, 4.0]);
        assert!(out >= 0.0);
        assert!(out.is_finite());
    }

    #[test]
    fn full_size_specs_validate() {
        for b in paper_suite() {
            let spec = b.spec().unwrap();
            assert_eq!(spec.window_size(), b.window().len());
            assert_eq!(spec.dims(), b.dims());
        }
    }

    #[test]
    fn every_suite_expr_is_bit_identical_to_its_closure() {
        // Deterministic pseudo-random windows; the expressions mirror
        // the closures' association order, so equality is exact.
        let mut state = 0x5EED_0004_u64;
        for b in paper_suite()
            .into_iter()
            .chain(crate::extras::extra_suite())
        {
            let e = b
                .expr()
                .unwrap_or_else(|| panic!("{} has no expr", b.name()));
            assert_eq!(e.max_tap(), Some(b.window().len() - 1), "{}", b.name());
            for _ in 0..64 {
                let window: Vec<f64> = (0..b.window().len())
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) as f64) / 1e8 - 42.0
                    })
                    .collect();
                let got = e.eval(&window);
                let want = b.compute(&window);
                assert!(
                    got == want || (got.is_nan() && want.is_nan()),
                    "{}: expr {got} != closure {want} on {window:?}",
                    b.name()
                );
            }
        }
    }
}
