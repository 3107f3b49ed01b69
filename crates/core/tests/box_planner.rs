//! Planner equivalence: the closed-form box planner against the row-walk
//! reuse analysis it replaces on boxes, which stays the oracle.
//!
//! `MemorySystemPlan::generate` plans a box iteration domain in closed
//! form (§3.2, Property 3) and every other polyhedron through
//! `ReuseAnalysis::of`; `from_analysis` always takes the row walk. CI
//! runs this file in release at `PROPTEST_CASES=1024`.

use proptest::prelude::*;
use stencil_core::{MappingPolicy, MemorySystemPlan, PlanError, ReuseAnalysis, StencilSpec};
use stencil_polyhedral::{
    max_reuse_distance_exhaustive, reuse_vector, Constraint, Point, Polyhedron,
};

/// The plan the row walk builds for `spec`.
fn row_walk(spec: &StencilSpec) -> MemorySystemPlan {
    let analysis = ReuseAnalysis::of(spec).expect("analysis");
    MemorySystemPlan::from_analysis(&analysis, &MappingPolicy::default())
}

/// A random window of 1..=6 distinct taps in `dims` dimensions, drawn
/// from a 4-wide cube shifted by `shift`: windows may be one tap,
/// asymmetric, or not contain the centre at all.
fn window(dims: usize) -> impl Strategy<Value = Vec<Point>> {
    (
        prop::collection::btree_set(prop::collection::vec(-2i64..=1, dims), 1..=6),
        prop::collection::vec(-2i64..=2, dims),
    )
        .prop_map(|(taps, shift)| {
            taps.into_iter()
                .map(|t| {
                    let coords: Vec<i64> = t.iter().zip(&shift).map(|(a, s)| a + s).collect();
                    Point::new(&coords)
                })
                .collect()
        })
}

/// A random non-empty box: per dimension a start in -4..4 and an
/// extent of 1..=7.
fn boxed(dims: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((-4i64..4, 1i64..=7), dims)
        .prop_map(|dims| dims.into_iter().map(|(lo, e)| (lo, lo + e - 1)).collect())
}

/// A 1–3-D box and a window over it.
fn box_spec() -> impl Strategy<Value = StencilSpec> {
    (1usize..=3).prop_flat_map(|dims| {
        (boxed(dims), window(dims)).prop_map(|(bounds, taps)| {
            StencilSpec::new("box", Polyhedron::rect(&bounds), taps).expect("valid spec")
        })
    })
}

/// The Fig. 9-style skewed grid: `1 ≤ i ≤ 20`, `i + 1 ≤ j ≤ i + 12`.
fn skewed() -> StencilSpec {
    let iter = Polyhedron::new(
        2,
        vec![
            Constraint::lower_bound(2, 0, 1),
            Constraint::upper_bound(2, 0, 20),
            Constraint::new(&[-1, 1], -1),
            Constraint::new(&[1, -1], 12),
        ],
    );
    StencilSpec::new(
        "skew",
        iter,
        vec![
            Point::new(&[-1, -1]),
            Point::new(&[-1, 1]),
            Point::new(&[0, 0]),
            Point::new(&[1, -1]),
            Point::new(&[1, 1]),
        ],
    )
    .expect("valid spec")
}

/// The triangle `0 ≤ j ≤ i ≤ 9` under a 3-tap window.
fn triangle() -> StencilSpec {
    let iter = Polyhedron::rect(&[(0, 9), (0, 9)]).with_constraint(Constraint::new(&[1, -1], 0));
    StencilSpec::new(
        "tri",
        iter,
        vec![
            Point::new(&[-1, 0]),
            Point::new(&[0, 0]),
            Point::new(&[0, 1]),
        ],
    )
    .expect("valid spec")
}

/// `chains_from`'s comparison without the box shortcut: the rows of both
/// indices.
fn chains_by_index(need: &Polyhedron, have: &Polyhedron) -> bool {
    let (need, have) = (need.index().expect("index"), have.index().expect("index"));
    need.dims() == have.dims()
        && need.len() == have.len()
        && need
            .rows()
            .iter()
            .zip(have.rows())
            .all(|(n, h)| n.prefix == h.prefix && n.lo == h.lo && n.hi == h.hi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On every box, the closed form is the row walk's plan exactly:
    /// filters, data domains, FIFO capacities and storages, the total
    /// and the linearity flag.
    #[test]
    fn box_plans_equal_the_row_walk(spec in box_spec()) {
        prop_assert!(spec.iteration_domain().as_box().is_some());
        prop_assert_eq!(MemorySystemPlan::generate(&spec).expect("plan"), row_walk(&spec));
    }

    /// The closed-form end-to-end distance is the brute-force maximum
    /// over every point of the last reference's data domain.
    #[test]
    fn min_total_size_is_the_exhaustive_maximum(spec in box_spec()) {
        let plan = MemorySystemPlan::generate(&spec).expect("plan");
        let filters = plan.filters();
        if filters.len() < 2 {
            prop_assert_eq!(plan.min_total_size(), 0);
            return Ok(());
        }
        let last = filters.last().expect("non-empty");
        let r = reuse_vector(&filters[0].offset, &last.offset);
        let input = plan.input_domain().index().expect("index");
        let eval = last.data_domain.index().expect("index");
        let exhaustive = max_reuse_distance_exhaustive(&input, &eval, &r).expect("distance");
        prop_assert_eq!(plan.min_total_size(), exhaustive);
        prop_assert_eq!(plan.total_buffer_size(), exhaustive);
    }

    /// The box shortcut of `chains_from` agrees with the index row
    /// comparison, on chained stages and on unrelated boxes.
    #[test]
    fn chains_from_shortcut_agrees_with_the_index(
        spec in box_spec(),
        other in boxed(2),
        pick in 0usize..3,
    ) {
        let upstream = MemorySystemPlan::generate(&spec).expect("plan");
        let taps: Vec<Point> = upstream.filters().iter().map(|f| f.offset).collect();
        let downstream = match pick {
            0 => upstream.chain_next("next", &taps).ok(),
            1 => Some(upstream.clone()),
            _ if other.len() == spec.dims() => {
                let centre = Point::new(&vec![0; spec.dims()]);
                StencilSpec::new("other", Polyhedron::rect(&other), vec![centre])
                    .ok()
                    .and_then(|s| MemorySystemPlan::generate(&s).ok())
            }
            _ => None,
        };
        let Some(downstream) = downstream else {
            return Ok(());
        };
        prop_assert_eq!(
            downstream.chains_from(&upstream).expect("chains"),
            chains_by_index(downstream.input_domain(), upstream.iteration_domain())
        );
        prop_assert_eq!(
            upstream.chains_from(&downstream).expect("chains"),
            chains_by_index(upstream.input_domain(), downstream.iteration_domain())
        );
    }
}

#[test]
fn as_box_reads_bounds_and_keeps_the_tightest() {
    let b = Polyhedron::rect(&[(1, 766), (1, 1022)]);
    assert_eq!(b.as_box(), Some(vec![(1, 766), (1, 1022)]));
    let tighter = b
        .with_constraint(Constraint::lower_bound(2, 0, 5))
        .with_constraint(Constraint::upper_bound(2, 1, 2000))
        .with_constraint(Constraint::upper_bound(2, 1, 900));
    assert_eq!(tighter.as_box(), Some(vec![(5, 766), (1, 900)]));
    // A coefficient of 2 normalises to ±1: 2·x0 ≥ 3 is x0 ≥ 2.
    let scaled = b.with_constraint(Constraint::new(&[2, 0], -3));
    assert_eq!(scaled.as_box(), Some(vec![(2, 766), (1, 1022)]));
    // A missing bound is no box.
    let open = Polyhedron::new(2, vec![Constraint::lower_bound(2, 0, 0)]);
    assert_eq!(open.as_box(), None);
}

#[test]
fn non_boxes_plan_through_the_row_walk() {
    for spec in [skewed(), triangle()] {
        assert_eq!(spec.iteration_domain().as_box(), None, "{}", spec.name());
        let plan = MemorySystemPlan::generate(&spec).expect("plan");
        assert_eq!(plan, row_walk(&spec), "{}", spec.name());
        assert_eq!(plan.bank_count(), spec.window_size() - 1);
    }
}

#[test]
fn chained_boxes_shrink_their_capacities_per_step() {
    // DENOISE 768x1024: each ring step's input row is two values
    // narrower, so the row-long FIFOs shrink by two per step.
    let taps = vec![
        Point::new(&[-1, 0]),
        Point::new(&[0, -1]),
        Point::new(&[0, 0]),
        Point::new(&[0, 1]),
        Point::new(&[1, 0]),
    ];
    let spec = StencilSpec::new(
        "denoise",
        Polyhedron::rect(&[(1, 766), (1, 1022)]),
        taps.clone(),
    )
    .expect("valid spec");
    let mut plan = MemorySystemPlan::generate(&spec).expect("plan");
    let mut walked = row_walk(&spec);
    for row in [1023, 1021, 1019, 1017] {
        assert_eq!(plan.fifo_capacities(), vec![row, 1, 1, row]);
        assert_eq!(plan, walked);
        let next = plan.chain_next("denoise", &taps).expect("chain");
        assert!(next.chains_from(&plan).expect("chains"));
        let next_spec = StencilSpec::new(
            "denoise",
            walked.iteration_domain().eroded(&taps),
            taps.clone(),
        )
        .expect("valid spec");
        walked = row_walk(&next_spec);
        plan = next;
    }
}

#[test]
fn a_box_past_64_bit_ranks_is_a_typed_error() {
    let taps = vec![
        Point::new(&[-1, 0]),
        Point::new(&[0, 0]),
        Point::new(&[1, 0]),
    ];
    let spec = StencilSpec::new("huge", Polyhedron::rect(&[(1, i64::MAX - 2), (0, 9)]), taps)
        .expect("valid spec");
    assert_eq!(
        MemorySystemPlan::generate(&spec),
        Err(PlanError::DomainTooLarge {
            bounds: vec![(0, i64::MAX - 1), (0, 9)]
        })
    );
    // A row of u64::MAX points fits; two of them do not.
    let spec = StencilSpec::new(
        "wide",
        Polyhedron::rect(&[(0, 1), (i64::MIN + 1, i64::MAX)]),
        vec![Point::new(&[0, 0])],
    )
    .expect("valid spec");
    assert!(matches!(
        MemorySystemPlan::generate(&spec),
        Err(PlanError::DomainTooLarge { .. })
    ));
    // Empty boxes are refused before any stride is formed.
    let empty = StencilSpec::new(
        "empty",
        Polyhedron::rect(&[(5, 2), (0, 3)]),
        vec![Point::new(&[0, 0])],
    )
    .expect("valid spec");
    assert_eq!(
        MemorySystemPlan::generate(&empty),
        Err(PlanError::EmptyIterationDomain)
    );
}
