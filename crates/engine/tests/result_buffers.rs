//! Run results through every site that allocates one.
//!
//! A result the sweep fills by appending comes from one constructor
//! that advises its whole 2 MiB pages for transparent huge pages before
//! the sweep writes them, and reserves exactly the run's outputs; the
//! zeroed result above one worker and a multi-shard join are sized
//! exactly too. On a grid whose output is over 4 MiB, so that an
//! advised result holds at least one advised page, each site must
//! return the closure reference bit for bit and hold nothing past its
//! last output.
//!
//! CI also runs this file with `--release`: the test profile builds
//! at a lower optimization level, and only the release build emits the
//! vectorized appends the engine ships.

use stencil_core::MemorySystemPlan;
use stencil_engine::{
    ExecMode, InputGrid, JobInput, JobRequest, KernelBackend, ServiceConfig, ServiceFront, Session,
    SessionKernel, SessionRun, ShardPolicy, Submission,
};
use stencil_kernels::denoise;

/// DENOISE 768×1024: 766×1022 outputs, 6.26 MB.
const EXTENTS: [i64; 2] = [768, 1024];

/// The grid's values from a tiny LCG.
fn values(n: u64) -> Vec<f64> {
    let mut state = 0x5EED_u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f64) / 256.0 - 3.0e4
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Bit-identical to the reference, with capacity for exactly the
/// outputs.
fn check(what: &str, outputs: &Vec<f64>, reference: &[u64]) {
    assert!(bits(outputs) == reference, "{what}: outputs differ");
    assert_eq!(outputs.capacity(), outputs.len(), "{what}: over-reserved");
}

fn threads_used(run: &SessionRun) -> usize {
    run.report.stages[0].engine.as_ref().unwrap().threads
}

#[test]
fn every_result_site_is_bit_identical_and_exactly_sized() {
    let bench = denoise();
    let plan = MemorySystemPlan::generate(&bench.spec_for(&EXTENTS).unwrap()).unwrap();
    let index = plan.input_domain().index().unwrap();
    let vals = values(index.len());
    let input = InputGrid::new(&index, &vals).unwrap();
    let closure = bench.compute_fn();
    let reference = Session::new(&plan)
        .kernel(SessionKernel::Closure(&closure))
        .backend(KernelBackend::Closure)
        .threads(1)
        .run(&input)
        .unwrap()
        .outputs;
    assert_eq!(reference.len(), 766 * 1022);
    assert!(reference.len() * 8 > 4 << 20);
    let reference = bits(&reference);

    // In core: one worker appends into the result; two write disjoint
    // band slices of it.
    for (mode, threads) in [(ExecMode::InCore, 1), (ExecMode::Tiled { tiles: 2 }, 2)] {
        let run = Session::build(&plan, &bench.stage())
            .unwrap()
            .mode(mode)
            .threads(threads)
            .run(&input)
            .unwrap();
        assert_eq!(threads_used(&run), threads);
        check(
            &format!("in core, {threads} worker(s)"),
            &run.outputs,
            &reference,
        );
    }

    // Streaming `run()`: the session's own sink.
    let run = Session::build(&plan, &bench.stage())
        .unwrap()
        .mode(ExecMode::Streaming {
            chunk_rows: Some(64),
        })
        .threads(1)
        .run(&input)
        .unwrap();
    check("streaming run()", &run.outputs, &reference);

    // A served job forced to three shards, joined in shard order.
    let front = ServiceFront::new(ServiceConfig {
        workers: 2,
        session_threads: 1,
        queue_depth: 8,
        memory_budget: 0,
    });
    let request = JobRequest {
        benchmark: bench.clone(),
        extents: Some(EXTENTS.to_vec()),
        mode: ExecMode::InCore,
        shards: ShardPolicy::Fixed(3),
        input: JobInput::from(vals.clone()),
    };
    let Submission::Admitted(id) = front.submit(&request).unwrap() else {
        panic!("an idle front with room for three shards refused the job");
    };
    front.wait_idle();
    let outcome = front.finish();
    let job = &outcome.jobs[id];
    assert!(job.error.is_none(), "{:?}", job.error);
    assert_eq!(job.shards, 3);
    check("served job, 3 shards", &job.outputs, &reference);
}
