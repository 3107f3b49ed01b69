//! Integration test: the sharded serving front-end is a *transparent*
//! execution surface — concurrency, sharding, and plan caching must
//! never change a single output bit.
//!
//! Three guarantees are certified here:
//!
//! * **Concurrent differential parity.** N submitter threads pushing
//!   every paper benchmark through one [`ServiceFront`] produce
//!   bit-identical outputs to sequential single-[`Session`] runs of the
//!   same jobs, while the aggregated service telemetry passes the
//!   validator's `Residency` (peak resident ≤ admitted bound),
//!   `OutputsComplete` (exact output conservation) and `Admission`
//!   (exact admission arithmetic) rules.
//! * **Sharded reassembly.** For random grid extents and shard counts
//!   (proptest), splitting a job into halo-overlapped row bands and
//!   concatenating the band outputs equals the unsharded run — the
//!   serving analogue of the Appendix 9.4 band decomposition.
//! * **Plan-cache steady state.** Repeat jobs over the same geometry
//!   never rebuild a `TilePlan` inside a session (`tile_plans_built`
//!   stays 0) and hit the shared cache instead.
//! * **Concurrent admission under a budget.** Submitters racing for a
//!   budget that holds two jobs all get admitted after retrying, the
//!   admitted-bound high-water never passes the budget, and every job
//!   still matches its sequential session.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use stencil_bench::scaled_extents;
use stencil_core::MemorySystemPlan;
use stencil_engine::{
    ExecMode, InputGrid, JobRequest, ServiceConfig, ServiceFront, ShardPolicy, Submission,
};
use stencil_kernels::{denoise, paper_suite, Benchmark};
use stencil_telemetry::validate_report;

/// Deterministic pseudo-random input values for `n` grid cells.
fn input_values(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f64) / 1024.0 - 8.0
        })
        .collect()
}

/// The sequential single-session reference for one job.
fn sequential_outputs(bench: &Benchmark, extents: &[i64], input: &[f64]) -> Vec<f64> {
    let spec = bench.spec_for(extents).expect("spec");
    let plan = MemorySystemPlan::generate(&spec).expect("plan");
    let idx = plan.input_domain().index().expect("input index");
    let grid = InputGrid::new(&idx, input).expect("sized input");
    stencil_engine::Session::build(&plan, &bench.stage())
        .expect("session build")
        .run(&grid)
        .expect("session run")
        .outputs
}

#[test]
fn concurrent_serving_matches_sequential_sessions_bit_for_bit() {
    const SUBMITTERS: usize = 4;

    // One job per paper benchmark, per submitter thread, with
    // per-thread seeds so identical geometries carry distinct values.
    let jobs: Vec<(Benchmark, Vec<i64>)> = paper_suite()
        .into_iter()
        .map(|b| {
            let extents = scaled_extents(&b, 3_000);
            (b, extents)
        })
        .collect();

    let front = ServiceFront::new(ServiceConfig {
        workers: 4,
        queue_depth: 256,
        memory_budget: 0,
        session_threads: 1,
    });

    // (submitter, job index, expected outputs) for every admitted id.
    let mut expected: Vec<Option<Vec<f64>>> = Vec::new();
    let ids = std::sync::Mutex::new(Vec::<(usize, usize, usize)>::new());
    std::thread::scope(|s| {
        for t in 0..SUBMITTERS {
            let front = &front;
            let jobs = &jobs;
            let ids = &ids;
            s.spawn(move || {
                for (j, (bench, extents)) in jobs.iter().enumerate() {
                    let n: i64 = extents.iter().product();
                    let seed = 0xD1FF ^ ((t as u64) << 32) ^ (j as u64);
                    let input = Arc::new(input_values(n as usize, seed));
                    let req = JobRequest {
                        benchmark: bench.clone(),
                        extents: Some(extents.clone()),
                        mode: ExecMode::InCore,
                        shards: ShardPolicy::Auto,
                        input: input.into(),
                    };
                    // The queue is deep enough for the whole batch, so
                    // every submission must be admitted.
                    match front.submit(&req).expect("typed submit") {
                        Submission::Admitted(id) => {
                            ids.lock().unwrap().push((t, j, id));
                        }
                        Submission::Rejected(r) => {
                            panic!("depth-256 queue rejected: {r:?}")
                        }
                    }
                }
            });
        }
    });

    let ids = ids.into_inner().unwrap();
    expected.resize(ids.len(), None);
    for (t, j, id) in &ids {
        let (bench, extents) = &jobs[*j];
        let n: i64 = extents.iter().product();
        let seed = 0xD1FF ^ ((*t as u64) << 32) ^ (*j as u64);
        let input = input_values(n as usize, seed);
        expected[*id] = Some(sequential_outputs(bench, extents, &input));
    }

    let outcome = front.finish();
    assert_eq!(outcome.jobs.len(), SUBMITTERS * jobs.len());
    for (id, want) in expected.iter().enumerate() {
        let job = &outcome.jobs[id];
        assert!(job.error.is_none(), "{}: {:?}", job.label, job.error);
        assert_eq!(
            Some(&job.outputs),
            want.as_ref(),
            "{} diverged from its sequential session",
            job.label
        );
    }

    let m = &outcome.metrics;
    assert_eq!(m.jobs_submitted, (SUBMITTERS * jobs.len()) as u64);
    assert_eq!(m.jobs_admitted, m.jobs_submitted);
    assert_eq!(m.jobs_failed, 0);
    assert_eq!(m.outputs_produced, m.outputs_expected);
    // Every (benchmark, shard geometry) pair misses once and hits for
    // the other submitters; no session ever rebuilds a tile plan.
    assert_eq!(m.tile_plans_built, 0);
    assert!(m.plan_cache_hits > 0);
    assert_eq!(validate_report(&outcome.report("serving")), vec![]);
}

#[test]
fn repeat_jobs_keep_the_plan_cache_in_steady_state() {
    let bench = denoise();
    let extents = vec![48i64, 40];
    let input = Arc::new(input_values(48 * 40, 11));
    let front = ServiceFront::new(ServiceConfig {
        workers: 2,
        queue_depth: 64,
        memory_budget: 0,
        session_threads: 1,
    });
    let req = JobRequest {
        benchmark: bench,
        extents: Some(extents),
        mode: ExecMode::Streaming {
            chunk_rows: Some(6),
        },
        shards: ShardPolicy::Fixed(2),
        input: input.into(),
    };
    for _ in 0..8 {
        assert!(matches!(
            front.submit(&req).expect("submit"),
            Submission::Admitted(_)
        ));
    }
    let outcome = front.finish();
    let m = &outcome.metrics;
    // 48 output-bearing rows split evenly in two give both bands the
    // *same* 25-row geometry, so warmup builds exactly one plan; after
    // that every shard of every repeat is a cache hit and no session
    // builds a plan.
    assert_eq!(m.plan_cache_misses, 1);
    assert_eq!(m.plan_cache_hits, 8 * 2 - 1);
    assert_eq!(m.tile_plans_built, 0);
    let first = &outcome.jobs[0].outputs;
    assert!(outcome.jobs.iter().all(|j| &j.outputs == first));
}

#[test]
fn concurrent_submitters_share_a_budget_without_exceeding_it() {
    const SUBMITTERS: usize = 4;
    const JOBS_EACH: usize = 3;
    // A 48x32 in-core DENOISE job bounds 1536 resident values: the
    // budget holds two at once, the queue four shards.
    const BUDGET: u64 = 2 * 48 * 32;
    let extents = vec![48i64, 32];
    let seed = |t: usize, j: usize| 0xB0D6 ^ ((t as u64) << 32) ^ (j as u64);

    // The batch runs on a helper thread, so a job that never resolves
    // fails the test instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    let batch_extents = extents.clone();
    let helper = std::thread::spawn(move || {
        let front = ServiceFront::new(ServiceConfig {
            workers: 2,
            queue_depth: 4,
            memory_budget: BUDGET,
            session_threads: 1,
        });
        let ids = std::sync::Mutex::new(Vec::<(usize, usize, usize)>::new());
        std::thread::scope(|s| {
            for t in 0..SUBMITTERS {
                let (front, ids, extents) = (&front, &ids, &batch_extents);
                s.spawn(move || {
                    for j in 0..JOBS_EACH {
                        let req = JobRequest {
                            benchmark: denoise(),
                            extents: Some(extents.clone()),
                            mode: ExecMode::InCore,
                            shards: ShardPolicy::Whole,
                            input: Arc::new(input_values(48 * 32, seed(t, j))).into(),
                        };
                        loop {
                            match front.submit(&req).expect("typed submit") {
                                Submission::Admitted(id) => {
                                    break ids.lock().unwrap().push((t, j, id))
                                }
                                Submission::Rejected(r) => std::thread::sleep(r.retry_after),
                            }
                        }
                    }
                });
            }
        });
        let outcome = front.finish();
        let _ = tx.send((ids.into_inner().unwrap(), outcome));
    });
    let (ids, outcome) = rx
        .recv_timeout(Duration::from_secs(120))
        .unwrap_or_else(|e| panic!("the budgeted batch did not resolve: {e}"));
    helper
        .join()
        .expect("the batch thread returns after sending");

    assert_eq!(ids.len(), SUBMITTERS * JOBS_EACH);
    assert_eq!(outcome.jobs.len(), SUBMITTERS * JOBS_EACH);
    for (t, j, id) in ids {
        let job = &outcome.jobs[id];
        assert!(job.error.is_none(), "{}: {:?}", job.label, job.error);
        let input = input_values(48 * 32, seed(t, j));
        assert_eq!(
            job.outputs,
            sequential_outputs(&denoise(), &extents, &input),
            "submitter {t} job {j} diverged from its sequential session"
        );
    }
    let m = &outcome.metrics;
    assert_eq!(m.jobs_admitted, (SUBMITTERS * JOBS_EACH) as u64);
    assert_eq!(m.jobs_admitted + m.jobs_rejected, m.jobs_submitted);
    assert!(m.admitted_bound_peak <= BUDGET, "{m:?}");
    assert!(m.peak_resident <= m.admitted_bound_peak, "{m:?}");
    assert_eq!(validate_report(&outcome.report("budgeted")), vec![]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded reassembly ≡ unsharded for random extents and shard
    /// counts, across in-core and streaming shard execution.
    #[test]
    fn sharded_reassembly_matches_unsharded(
        rows in 8i64..40,
        cols in 4i64..24,
        shards in 1usize..9,
        streaming in 0u8..2,
        seed in 0u64..1_000_000_000_000,
    ) {
        let streaming = streaming == 1;
        let bench = denoise();
        let extents = vec![rows, cols];
        let input = Arc::new(input_values((rows * cols) as usize, seed));
        let reference = sequential_outputs(&bench, &extents, &input);

        let front = ServiceFront::new(ServiceConfig {
            workers: 3,
            queue_depth: 64,
            memory_budget: 0,
            session_threads: 1,
        });
        let mode = if streaming {
            ExecMode::Streaming { chunk_rows: Some(3) }
        } else {
            ExecMode::InCore
        };
        let req = JobRequest {
            benchmark: bench,
            extents: Some(extents),
            mode,
            shards: ShardPolicy::Fixed(shards),
            input: input.into(),
        };
        let sub = front.submit(&req).expect("typed submit");
        prop_assert!(matches!(sub, Submission::Admitted(_)));
        let outcome = front.finish();
        let job = &outcome.jobs[0];
        prop_assert!(job.error.is_none(), "{:?}", job.error);
        prop_assert_eq!(&job.outputs, &reference);
        prop_assert_eq!(outcome.metrics.shards_over_bound, 0);
        prop_assert_eq!(validate_report(&outcome.report("serving")), vec![]);
    }
}
