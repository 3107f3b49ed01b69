//! An iterate ring's step plans, pinned against the row walk.
//!
//! `Session::iterate` derives each step's plan with
//! `MemorySystemPlan::chain_next`, which plans a box in closed form. Each
//! step's plan must equal (`{:?}`) the plan `ReuseAnalysis::of` builds
//! for the same eroded domain, on every paper benchmark and on a skewed
//! grid that keeps the row walk. A box step's input row narrows by the
//! window's width, so its row-long FIFOs shrink step by step: the plans
//! are recomputed, never copied.

use stencil_core::{MappingPolicy, MemorySystemPlan, ReuseAnalysis, StencilSpec};
use stencil_engine::{Session, SessionKernel};
use stencil_kernels::paper_suite;
use stencil_polyhedral::{Constraint, Point, Polyhedron};

const STEPS: usize = 8;

/// The row-walk plans of a `steps`-step self-chained ring from `spec`,
/// labelled as `Session::iterate` labels them.
fn row_walk_ring(spec: &StencilSpec, steps: usize) -> Vec<MemorySystemPlan> {
    let walk = |spec: &StencilSpec| {
        let analysis = ReuseAnalysis::of(spec).expect("analysis");
        MemorySystemPlan::from_analysis(&analysis, &MappingPolicy::default())
    };
    let mut plans = vec![walk(spec)];
    for k in 1..steps {
        let upstream = plans.last().expect("non-empty");
        let next = StencilSpec::with_element_bits(
            format!("{}@t{}", spec.name(), k + 1),
            upstream.iteration_domain().eroded(spec.offsets()),
            spec.offsets().to_vec(),
            spec.element_bits(),
        )
        .expect("valid spec")
        .with_array_name(spec.array());
        plans.push(walk(&next));
    }
    plans
}

/// Asserts that `session`'s step plans print as `expected`'s.
fn assert_steps(session: &Session<'_>, expected: &[MemorySystemPlan], case: &str) {
    assert_eq!(session.stage_count(), expected.len(), "{case}");
    for (k, want) in expected.iter().enumerate() {
        let got = session.stage_plan(k).expect("stage");
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{case} step {k}");
    }
}

#[test]
fn iterate_step_plans_equal_the_row_walk_on_the_paper_suite() {
    for bench in paper_suite() {
        // Room for eight erosions of the window plus a few rows.
        let spans = bench.stage().window_extents();
        let extents: Vec<i64> = spans.iter().map(|&w| STEPS as i64 * w + 4).collect();
        let spec = bench.spec_for(&extents).expect("spec");
        let plan = MemorySystemPlan::generate(&spec).expect("plan");
        let session = Session::build(&plan, &bench.stage())
            .expect("build")
            .iterate(STEPS)
            .expect("iterate");
        assert_steps(&session, &row_walk_ring(&spec, STEPS), bench.name());
    }
}

#[test]
fn iterate_step_capacities_shrink_with_the_input_row() {
    let bench = stencil_kernels::denoise();
    let spec = bench.spec_for(&[768, 1024]).expect("spec");
    let plan = MemorySystemPlan::generate(&spec).expect("plan");
    let session = Session::build(&plan, &bench.stage())
        .expect("build")
        .iterate(STEPS)
        .expect("iterate");
    for k in 0..STEPS {
        let row = 1023 - 2 * k as u64;
        let caps = session.stage_plan(k).expect("stage").fifo_capacities();
        assert_eq!(caps, vec![row, 1, 1, row], "step {k}");
    }
}

#[test]
fn iterate_step_plans_equal_the_row_walk_on_a_skewed_grid() {
    // A Fig. 9-style skewed band, 1 <= i <= 40 and i + 1 <= j <= i + 40,
    // under the 5-point cross: no step is a box.
    let iter = Polyhedron::new(
        2,
        vec![
            Constraint::lower_bound(2, 0, 1),
            Constraint::upper_bound(2, 0, 40),
            Constraint::new(&[-1, 1], -1),
            Constraint::new(&[1, -1], 40),
        ],
    );
    let window = vec![
        Point::new(&[-1, 0]),
        Point::new(&[0, -1]),
        Point::new(&[0, 0]),
        Point::new(&[0, 1]),
        Point::new(&[1, 0]),
    ];
    let spec = StencilSpec::new("skew", iter, window).expect("spec");
    assert_eq!(spec.iteration_domain().as_box(), None);
    let plan = MemorySystemPlan::generate(&spec).expect("plan");
    let mean = |w: &[f64]| w.iter().sum::<f64>() / 5.0;
    let session = Session::new(&plan)
        .kernel(SessionKernel::Closure(&mean))
        .iterate(STEPS)
        .expect("iterate");
    assert_steps(&session, &row_walk_ring(&spec, STEPS), "skew");
}
