//! Property-based tests for the polyhedral substrate.
//!
//! These validate the analytical shortcuts (Fourier–Motzkin level bounds,
//! rank index, row-endpoint reuse-distance maximization) against
//! brute-force oracles on randomized domains.

use proptest::prelude::*;
use stencil_polyhedral::{
    input_domain, lex_lt, lex_positive, max_reuse_distance, max_reuse_distance_exhaustive,
    reuse_vector, Constraint, Point, Polyhedron, UnimodularTransform,
};

/// A random unimodular transform composed of skews, interchanges, and
/// reversals.
fn transform_2d() -> impl Strategy<Value = UnimodularTransform> {
    prop::collection::vec((0u8..3, -2i64..=2), 1..4).prop_map(|steps| {
        let mut t = UnimodularTransform::identity(2);
        for (kind, f) in steps {
            let step = match kind {
                0 => UnimodularTransform::skew(2, 0, 1, f),
                1 => UnimodularTransform::interchange(2, 0, 1),
                _ => UnimodularTransform::reversal(2, 0),
            };
            t = step.compose(&t);
        }
        t
    })
}

/// A random 2-D box with small extents.
fn small_box_2d() -> impl Strategy<Value = Polyhedron> {
    ((-5i64..5), (1i64..12), (-5i64..5), (1i64..12)).prop_map(|(lo0, e0, lo1, e1)| {
        Polyhedron::rect(&[(lo0, lo0 + e0 - 1), (lo1, lo1 + e1 - 1)])
    })
}

/// A random convex 2-D domain: a box plus up to two random cross
/// constraints (which may carve it into a skewed shape or empty it).
fn convex_2d() -> impl Strategy<Value = Polyhedron> {
    (
        small_box_2d(),
        prop::collection::vec(((-2i64..=2), (-2i64..=2), (-12i64..=12)), 0..3),
    )
        .prop_map(|(bx, cuts)| {
            let mut p = bx;
            for (a, b, c) in cuts {
                if a != 0 || b != 0 {
                    p = p.with_constraint(Constraint::new(&[a, b], c));
                }
            }
            p
        })
}

/// A random convex 3-D domain: a small box, optionally carved by up to
/// two random cross constraints into a skewed polyhedron (or emptied).
fn convex_3d() -> impl Strategy<Value = Polyhedron> {
    (
        (
            (-3i64..3),
            (1i64..6),
            (-3i64..3),
            (1i64..6),
            (-3i64..3),
            (1i64..6),
        ),
        prop::collection::vec(((-2i64..=2), (-2i64..=2), (-2i64..=2), (-8i64..=8)), 0..3),
    )
        .prop_map(|((lo0, e0, lo1, e1, lo2, e2), cuts)| {
            let mut p = Polyhedron::rect(&[
                (lo0, lo0 + e0 - 1),
                (lo1, lo1 + e1 - 1),
                (lo2, lo2 + e2 - 1),
            ]);
            for (a, b, c, d) in cuts {
                if a != 0 || b != 0 || c != 0 {
                    p = p.with_constraint(Constraint::new(&[a, b, c], d));
                }
            }
            p
        })
}

/// Brute-force membership scan over a generous bounding window.
fn brute_points(p: &Polyhedron) -> Vec<Point> {
    let mut out = Vec::new();
    for i in -40..40 {
        for j in -40..40 {
            let pt = Point::new(&[i, j]);
            if p.contains(&pt) {
                out.push(pt);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lex_iteration_matches_brute_force(poly in convex_2d()) {
        let fast: Vec<Point> = poly.points().unwrap().collect();
        let slow = brute_points(&poly);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn iteration_is_strictly_increasing(poly in convex_2d()) {
        let pts: Vec<Point> = poly.points().unwrap().collect();
        for w in pts.windows(2) {
            prop_assert!(lex_lt(&w[0], &w[1]));
        }
    }

    #[test]
    fn index_rank_roundtrip(poly in convex_2d()) {
        let idx = poly.index().unwrap();
        prop_assert_eq!(idx.len(), poly.points().unwrap().count() as u64);
        for (k, p) in poly.points().unwrap().enumerate() {
            prop_assert_eq!(idx.rank_lt(&p), k as u64);
            prop_assert_eq!(idx.point_at(k as u64), Some(p));
            prop_assert!(idx.contains(&p));
        }
    }

    #[test]
    fn rank_lt_counts_smaller_points(poly in convex_2d(), qi in -10i64..10, qj in -10i64..10) {
        let idx = poly.index().unwrap();
        let q = Point::new(&[qi, qj]);
        let expected = poly
            .points()
            .unwrap()
            .filter(|p| lex_lt(p, &q))
            .count() as u64;
        prop_assert_eq!(idx.rank_lt(&q), expected);
    }

    #[test]
    fn cursor_visits_every_point_once(poly in convex_2d()) {
        let idx = poly.index().unwrap();
        let mut c = idx.cursor();
        let mut n = 0u64;
        while let Some(p) = c.point(&idx) {
            prop_assert_eq!(idx.point_at(n), Some(p));
            c.advance(&idx);
            n += 1;
        }
        prop_assert_eq!(n, idx.len());
    }

    #[test]
    fn dilation_contains_every_shifted_copy(
        poly in small_box_2d(),
        offs in prop::collection::vec(((-2i64..=2), (-2i64..=2)), 1..6),
    ) {
        let offsets: Vec<Point> = offs.iter().map(|&(a, b)| Point::new(&[a, b])).collect();
        let dil = poly.dilated(&offsets);
        for f in &offsets {
            for p in poly.points().unwrap() {
                prop_assert!(dil.contains(&(p + *f)), "missing {} + {}", p, f);
            }
        }
    }

    #[test]
    fn max_reuse_distance_matches_exhaustive(
        poly in convex_2d(),
        fx in ((-2i64..=2), (-2i64..=2)),
        fy in ((-2i64..=2), (-2i64..=2)),
    ) {
        let f_x = Point::new(&[fx.0, fx.1]);
        let f_y = Point::new(&[fy.0, fy.1]);
        let r = reuse_vector(&f_x, &f_y);
        prop_assume!(lex_positive(&r));
        prop_assume!(poly.count().unwrap() > 0);
        let input = input_domain(&poly, &[f_x, f_y]).index().unwrap();
        let dax = poly.translated(&f_x).index().unwrap();
        let fast = max_reuse_distance(&input, &dax, &r).unwrap();
        let slow = max_reuse_distance_exhaustive(&input, &dax, &r).unwrap();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn max_reuse_distance_matches_exhaustive_3d(
        poly in convex_3d(),
        fx in ((-2i64..=2), (-2i64..=2), (-2i64..=2)),
        fy in ((-2i64..=2), (-2i64..=2), (-2i64..=2)),
    ) {
        // In 3-D the merge cursors compare two-coordinate row prefixes,
        // so rows of one plane interleave with gaps between planes.
        let f_x = Point::new(&[fx.0, fx.1, fx.2]);
        let f_y = Point::new(&[fy.0, fy.1, fy.2]);
        let r = reuse_vector(&f_x, &f_y);
        prop_assume!(lex_positive(&r));
        prop_assume!(poly.count().unwrap() > 0);
        let input = input_domain(&poly, &[f_x, f_y]).index().unwrap();
        let dax = poly.translated(&f_x).index().unwrap();
        let fast = max_reuse_distance(&input, &dax, &r).unwrap();
        let slow = max_reuse_distance_exhaustive(&input, &dax, &r).unwrap();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn max_reuse_distance_is_linear_on_boxes(
        poly in small_box_2d(),
        shift0 in 0i64..3,
        shift1 in 0i64..3,
    ) {
        // Three lexicographically descending offsets built from the shifts.
        let f_x = Point::new(&[shift0 + shift1, 0]);
        let f_y = Point::new(&[shift1, 0]);
        let f_z = Point::new(&[0, 0]);
        prop_assume!(shift0 > 0 && shift1 > 0);
        let offsets = [f_x, f_y, f_z];
        let input = input_domain(&poly, &offsets).index().unwrap();
        // FIFO-sizing convention: evaluate each pair over the *later*
        // (downstream) reference's data domain.
        let dy = poly.translated(&f_y).index().unwrap();
        let dz = poly.translated(&f_z).index().unwrap();
        let xz = max_reuse_distance(&input, &dz, &reuse_vector(&f_x, &f_z)).unwrap();
        let xy = max_reuse_distance(&input, &dy, &reuse_vector(&f_x, &f_y)).unwrap();
        let yz = max_reuse_distance(&input, &dz, &reuse_vector(&f_y, &f_z)).unwrap();
        prop_assert_eq!(xz, xy + yz);
    }

    #[test]
    fn transforms_are_point_bijections(t in transform_2d(), poly in small_box_2d()) {
        let inv = t.inverse();
        let td = t.apply_domain(&poly);
        // Same number of integer points (bijection).
        prop_assert_eq!(td.count().unwrap(), poly.count().unwrap());
        for p in poly.points().unwrap() {
            let q = t.apply(&p);
            prop_assert!(td.contains(&q), "{} -> {}", p, q);
            prop_assert_eq!(inv.apply(&q), p);
        }
    }

    #[test]
    fn transform_composition_associates(
        a in transform_2d(),
        b in transform_2d(),
        x in -5i64..5,
        y in -5i64..5,
    ) {
        let p = Point::new(&[x, y]);
        prop_assert_eq!(a.compose(&b).apply(&p), a.apply(&b.apply(&p)));
        prop_assert_eq!(a.compose(&b).determinant().abs(), 1);
    }

    #[test]
    fn count_agrees_between_index_and_iterator_3d(
        e0 in 1i64..6, e1 in 1i64..6, e2 in 1i64..6, cut in -4i64..4,
    ) {
        let poly = Polyhedron::grid(&[e0, e1, e2])
            .with_constraint(Constraint::new(&[1, 1, -1], cut));
        let idx = poly.index().unwrap();
        prop_assert_eq!(idx.len(), poly.points().unwrap().count() as u64);
    }
}
