//! `table1-online`: the paper's four benchmarks at the Table-1 preset
//! (25 qubits, p = 0.75: L = 120, 4-qubit resource states, merging factor
//! 3), each compiled once, then a seed sweep on one warm `Session` with one
//! lane and one renormalization worker. Online-bound: it exercises m = 3
//! generation, renormalization, the pool overlap and time-like routing,
//! and barely touches the mapper.

use std::sync::Arc;
use std::time::Instant;

use oneperc::{CompilerConfig, Session};
use oneperc_circuit::benchmarks::Benchmark;
use oneperc_circuit::Circuit;

use crate::common::{
    finish, record_end_to_end, record_no_cache, timed_setup, CompileItem, CompilePhase, Ctx, Group,
    Job, RunOutcome, CIRCUIT_SEED, TEMPORAL_REDUNDANCY,
};
use crate::host::HostClock;
use crate::metrics::Recorder;
use crate::stats::{median, secs, SeedStream};

const FUSION_PROB: f64 = 0.75;
const COMPILE_ROUNDS: usize = 10;

pub fn run(ctx: &Ctx) -> Result<RunOutcome, String> {
    let mut rec = Recorder::default();
    let qubits = if ctx.smoke { 9 } else { 25 };
    let mut stream = SeedStream::new(ctx.seed, 1);
    let mut config =
        CompilerConfig::for_qubits(qubits, FUSION_PROB, ctx.seed).with_renorm_workers(1);
    config.temporal_redundancy = TEMPORAL_REDUNDANCY;

    let mut clock = HostClock::default();
    let (session, circuits) = timed_setup(&mut rec, &mut clock, || {
        let circuits: Vec<(String, Circuit)> = Benchmark::all()
            .iter()
            .map(|b| {
                (
                    format!("{}-{qubits}", b.name().to_lowercase()),
                    b.circuit(qubits, CIRCUIT_SEED),
                )
            })
            .collect();
        (Session::builder(config).lanes(1).build(), circuits)
    });

    let items: Vec<CompileItem<'_>> = circuits
        .iter()
        .map(|(name, circuit)| CompileItem {
            name: name.clone(),
            session: &session,
            circuit,
        })
        .collect();
    let pattern: Vec<usize> = (0..items.len()).collect();
    // Compile repeatability is required only of `offline-scale`: the mapper
    // is not repeatable on some 25-qubit QAOA graphs, which is noted.
    let mut compile = CompilePhase::warm_up(&items, false, ctx.traced)?;
    let groups: Vec<Group> = circuits
        .iter()
        .zip(&compile.programs)
        .map(|((name, _), compiled)| Group {
            name: name.clone(),
            config,
            compiled: Arc::clone(compiled),
        })
        .collect();

    // One untimed execution per circuit warms the lane and its pool.
    for group in &groups {
        let _warm = session.execute_shared(Arc::clone(&group.compiled), stream.next_seed());
    }
    // The timed seed sweep, in rounds that run every circuit once, so every
    // circuit gets the same number of seeds.
    let deadline = ctx.deadline();
    let mut jobs = Vec::new();
    let mut rounds = Vec::new();
    loop {
        let mut round = 0.0;
        for (g, group) in groups.iter().enumerate() {
            let seed = stream.next_seed();
            clock.tick();
            let t = Instant::now();
            let outcome = session.execute_shared(Arc::clone(&group.compiled), seed);
            let wall = secs(t.elapsed());
            let scale = clock.tick();
            round += wall * scale;
            jobs.push(Job {
                group: g,
                seed,
                latency_s: wall,
                exec_s: wall,
                submit_s: 0.0,
                scale,
                outcome,
            });
        }
        rounds.push(round);
        // Compile rounds interleave with the sweep so that compile_s samples
        // the same stretch of host time as the executions.
        compile.round(&items, &pattern, &mut clock);
        if Instant::now() >= deadline {
            break;
        }
    }
    while compile.rounds < COMPILE_ROUNDS {
        compile.round(&items, &pattern, &mut clock);
    }
    // Throughput is the median round's: host slowdowns that stretch single
    // rounds move a mean far more than the code does.
    let jobs_per_s = median(
        &rounds
            .iter()
            .map(|r| groups.len() as f64 / r)
            .collect::<Vec<_>>(),
    );
    let latencies: Vec<Vec<f64>> = (0..groups.len())
        .map(|g| {
            jobs.iter()
                .filter(|j| j.group == g)
                .map(|j| j.latency_s * j.scale)
                .collect()
        })
        .collect();
    record_end_to_end(&mut rec, &compile, &groups, &jobs, &latencies, jobs_per_s);
    clock.record(&mut rec);
    record_no_cache(&mut rec);
    rec.note(
        "circuits",
        circuits
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(" "),
    );
    rec.note(
        "execute_s_per_seed",
        "client wall-clock of Session::execute_shared; per-circuit median, mean over circuits",
    );
    rec.note(
        "jobs",
        "a job is one seeded execution; latency quantiles are per circuit, averaged over circuits; \
         jobs_per_s is the median over rounds (one seed of each circuit) of executions per second",
    );

    let attempted = (jobs.len() + compile.sequence.len()) as u64;
    finish(ctx, rec, &compile, &groups, &jobs, attempted, f64::INFINITY)
}
