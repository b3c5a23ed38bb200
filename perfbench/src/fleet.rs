//! `fleet-mixed`: two tenants share one program cache at its default
//! capacity. Tenant A is an `AsyncSession` at `for_qubits(9, 0.9)`
//! (4-qubit states, m = 3), tenant B at `for_sensitivity(36, 3, 0.9)`
//! (7-qubit states, m = 1, the whole-row generation path the other
//! workloads skip). A closed loop on the benchmark thread keeps two jobs in
//! flight per tenant; each job is `submit_circuit(circuit, seed)` with the
//! circuit drawn from a pool of ≤ 9-qubit circuits whose program keys
//! outnumber the cache, so hits, misses and evictions all occur. Many
//! short jobs make the per-job service cost visible.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::Poll;
use std::time::Instant;

use oneperc::service::{block_on, ProgramCache};
use oneperc::{
    AsyncSession, CompilerConfig, ExecuteOutcome, JobFuture, DEFAULT_PROGRAM_CACHE_CAPACITY,
};
use oneperc_circuit::benchmarks::Benchmark;
use oneperc_circuit::Circuit;
use oneperc_corpus::CorpusSpec;

use crate::common::{
    finish, record_end_to_end, timed_setup, CompileItem, CompilePhase, Ctx, Group, Job, RunOutcome,
    CIRCUIT_SEED,
};
use crate::host::HostClock;
use crate::metrics::Recorder;
use crate::stats::{median, ratio, secs, SeedStream};

const IN_FLIGHT_PER_TENANT: usize = 2;
/// The closed loop runs in this many segments; each drains the in-flight
/// jobs and is followed by one compile round, so compile_s samples the
/// whole run instead of one stretch of host time.
const SEGMENTS: usize = 20;
/// Untimed jobs that bring the cache to its steady state first.
const WARMUP_JOBS: usize = 32;
/// Share of the run's length spent replaying jobs in traced runs.
const REPLAY_SHARE: f64 = 0.5;

/// The pool: fixed families and sizes; the random families draw their
/// structure from `seed`.
fn pool(seed: u64) -> Result<Vec<(String, Circuit)>, String> {
    let mut circuits: Vec<(String, Circuit)> = [
        (Benchmark::Qaoa, 6),
        (Benchmark::Qaoa, 9),
        (Benchmark::Vqe, 6),
        (Benchmark::Vqe, 9),
        (Benchmark::Qft, 6),
        (Benchmark::Qft, 9),
        (Benchmark::Rca, 6),
        (Benchmark::Rca, 9),
    ]
    .iter()
    .map(|&(b, n)| {
        (
            format!("{}-{n}", b.name().to_lowercase()),
            b.circuit(n, seed),
        )
    })
    .collect();
    for token in [
        "layered:w9,d12,e500",
        "rev:w9,g40,s2",
        "rcachain:q8,r2",
        "qftadder:b4",
    ] {
        circuits.push((token.to_string(), CorpusSpec::parse(token)?.circuit(seed)));
    }
    Ok(circuits)
}

struct InFlight {
    future: JobFuture,
    group: usize,
    seed: u64,
    start: Instant,
    submit_s: f64,
}

/// Blocks until any in-flight job completes; returns its slot and outcome.
fn wait_any(slots: &mut [Option<InFlight>]) -> (usize, ExecuteOutcome) {
    block_on(std::future::poll_fn(|cx| {
        for (k, slot) in slots.iter_mut().enumerate() {
            if let Some(job) = slot {
                if let Poll::Ready(outcome) = Pin::new(&mut job.future).poll(cx) {
                    return Poll::Ready((k, outcome));
                }
            }
        }
        Poll::Pending
    }))
}

pub fn run(ctx: &Ctx) -> Result<RunOutcome, String> {
    let mut rec = Recorder::default();
    let configs = [
        ("A", CompilerConfig::for_qubits(9, 0.9, ctx.seed)),
        ("B", CompilerConfig::for_sensitivity(36, 3, 0.9, ctx.seed)),
    ];

    let mut clock = HostClock::default();
    let (tenants, cache, circuits) = timed_setup(&mut rec, &mut clock, || {
        let cache = Arc::new(ProgramCache::new(DEFAULT_PROGRAM_CACHE_CAPACITY));
        let tenants: Vec<AsyncSession> = configs
            .iter()
            .map(|&(_, config)| {
                AsyncSession::builder(config)
                    .lanes(1)
                    .shared_program_cache(Arc::clone(&cache))
                    .build()
            })
            .collect();
        (tenants, cache, pool(CIRCUIT_SEED))
    });
    let circuits = circuits?;
    let n = circuits.len();

    // Group `t * n + c` is circuit `c` under tenant `t`'s configuration.
    let items: Vec<CompileItem<'_>> = tenants
        .iter()
        .zip(&configs)
        .flat_map(|(tenant, (label, _))| {
            circuits.iter().map(move |(name, circuit)| CompileItem {
                name: format!("{label}:{name}"),
                session: tenant.session(),
                circuit,
            })
        })
        .collect();
    let pattern: Vec<usize> = (0..items.len()).collect();
    let mut compile = CompilePhase::warm_up(&items, true, ctx.traced)?;
    let groups: Vec<Group> = items
        .iter()
        .zip(&compile.programs)
        .enumerate()
        .map(|(g, (item, compiled))| Group {
            name: item.name.clone(),
            config: configs[g / n].1,
            compiled: Arc::clone(compiled),
        })
        .collect();

    let mut draws: Vec<SeedStream> = (0..tenants.len())
        .map(|t| SeedStream::new(ctx.seed, 10 + t as u64))
        .collect();
    let mut submit = |slot: usize| -> Result<InFlight, String> {
        let t = slot / IN_FLIGHT_PER_TENANT;
        let c = draws[t].below(n);
        let seed = draws[t].next_seed();
        let start = Instant::now();
        let future = tenants[t]
            .submit_circuit(&circuits[c].1, seed)
            .map_err(|e| format!("{}: submit failed: {e}", groups[t * n + c].name))?;
        Ok(InFlight {
            future,
            group: t * n + c,
            seed,
            start,
            submit_s: secs(start.elapsed()),
        })
    };
    let slots = tenants.len() * IN_FLIGHT_PER_TENANT;

    for k in 0..WARMUP_JOBS {
        let _warm = submit(k % slots)?.future.wait();
    }

    let before = cache.stats();
    let start = Instant::now();
    let mut busy = 0.0;
    let mut jobs: Vec<Job> = Vec::new();
    for segment in 1..=SEGMENTS {
        clock.tick();
        let first = jobs.len();
        let deadline = start
            + std::time::Duration::from_secs_f64(ctx.seconds * segment as f64 / SEGMENTS as f64);
        let segment_start = Instant::now();
        let mut in_flight: Vec<Option<InFlight>> = (0..slots)
            .map(|k| submit(k).map(Some))
            .collect::<Result<_, _>>()?;
        let mut last_done = segment_start;
        while in_flight.iter().any(Option::is_some) {
            let (k, outcome) = wait_any(&mut in_flight);
            last_done = Instant::now();
            let job = in_flight[k].take().expect("a completed slot was in flight");
            jobs.push(Job {
                group: job.group,
                seed: job.seed,
                latency_s: secs(last_done - job.start),
                exec_s: secs(outcome.report().online_time),
                submit_s: job.submit_s,
                scale: 1.0,
                outcome,
            });
            if last_done < deadline {
                in_flight[k] = Some(submit(k)?);
            }
        }
        // The segment's jobs ran between this tick and the one before it.
        let scale = clock.tick();
        for job in &mut jobs[first..] {
            job.scale = scale;
        }
        busy += secs(last_done - segment_start) * scale;
        compile.round(&items, &pattern, &mut clock);
    }
    let after = cache.stats();

    // One pooled latency class: the job mix is a uniform draw over many
    // circuits, so the pooled quantiles are what a tenant sees.
    let latencies = vec![jobs
        .iter()
        .map(|j| j.latency_s * j.scale)
        .collect::<Vec<f64>>()];
    record_end_to_end(
        &mut rec,
        &compile,
        &groups,
        &jobs,
        &latencies,
        ratio(jobs.len() as f64, busy),
    );
    clock.record(&mut rec);
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    rec.set(
        "service.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    rec.set("service.cache_misses", misses as f64);
    rec.set(
        "service.cache_evictions",
        (after.evictions - before.evictions) as f64,
    );
    let submit_where = |hit: bool| -> Vec<f64> {
        jobs.iter()
            .filter(|j| j.outcome.report().service.cache_hit == hit)
            .map(|j| j.submit_s)
            .collect()
    };
    rec.set("service.compile_on_miss_s", median(&submit_where(false)));
    rec.set("service.admission_wait_s", median(&submit_where(true)));
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
        "ExecutionReport::online_time of each fleet job (jobs queue behind each other, so the \
         client wall-clock is job latency); per-group median, mean over groups",
    );
    rec.note(
        "service.admission_wait_s",
        "time blocked in submit_circuit on cache hits; compile_on_miss_s is the same on misses",
    );

    let attempted = (jobs.len() + compile.sequence.len()) as u64;
    let budget = ctx.seconds * REPLAY_SHARE;
    finish(ctx, rec, &compile, &groups, &jobs, attempted, budget)
}
