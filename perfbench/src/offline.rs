//! `offline-scale`: uncached, warmed-up `Session::compile` of two large
//! corpus circuits that use the mapper differently — `layered:w36,d1000`
//! is wide with short-lived nodes, `rcachain:q9,r128` deep and narrow with
//! long-lived nodes and many temporal edges. Mapper-bound; the large
//! programs are never executed. The execution metrics come from a small
//! probe: one ripple-carry pass (`rcachain:q9,r1`) executed on a warm
//! session at each of the two hardware configurations after every compile
//! round, like `table1-online` does. (Wide layered circuits are not executed: with
//! dozens of time-like edges per layer, the online pass can starve on a
//! layer and hit its safety cap.)

use std::sync::Arc;
use std::time::Instant;

use oneperc::{CompilerConfig, Session};
use oneperc_circuit::Circuit;
use oneperc_corpus::CorpusSpec;

use crate::common::{
    finish, record_end_to_end, record_no_cache, timed_setup, CompileItem, CompilePhase, Ctx, Group,
    Job, RunOutcome, CIRCUIT_SEED, TEMPORAL_REDUNDANCY,
};
use crate::host::HostClock;
use crate::metrics::Recorder;
use crate::stats::{median, secs, SeedStream};

const FUSION_PROB: f64 = 0.75;
/// Compile order of one round.
const ROUND: [usize; 2] = [0, 1];

struct Input {
    name: String,
    config: CompilerConfig,
    circuit: Circuit,
}

pub fn run(ctx: &Ctx) -> Result<RunOutcome, String> {
    let mut rec = Recorder::default();
    let mut stream = SeedStream::new(ctx.seed, 2);
    let config = |qubits| {
        let mut c =
            CompilerConfig::for_qubits(qubits, FUSION_PROB, ctx.seed).with_renorm_workers(1);
        c.temporal_redundancy = TEMPORAL_REDUNDANCY;
        c
    };
    let (wide, narrow) = (config(36), config(9));
    let (big_rca, big_layered) = if ctx.smoke {
        ("rcachain:q9,r8", "layered:w36,d60,e400")
    } else {
        ("rcachain:q9,r128", "layered:w36,d1000,e400")
    };
    const PROBE: &str = "rcachain:q9,r1";
    let specs = [(big_rca, narrow), (big_layered, wide)];
    let build = |spec: &str, config: CompilerConfig| -> Result<Input, String> {
        let parsed = CorpusSpec::parse(spec)?;
        Ok(Input {
            name: format!("{spec}@L{}", config.hardware.rsl_size),
            config,
            circuit: parsed.circuit(CIRCUIT_SEED),
        })
    };

    let mut clock = HostClock::default();
    let (sessions, big, probe) = timed_setup(&mut rec, &mut clock, || {
        let sessions: Vec<Session> = specs
            .iter()
            .map(|&(_, config)| Session::builder(config).lanes(1).build())
            .collect();
        let big: Result<Vec<Input>, String> = specs
            .iter()
            .map(|&(spec, config)| build(spec, config))
            .collect();
        let probe: Result<Vec<Input>, String> = specs
            .iter()
            .map(|&(_, config)| build(PROBE, config))
            .collect();
        (sessions, big, probe)
    });
    let (big, probe) = (big?, probe?);

    let items: Vec<CompileItem<'_>> = big
        .iter()
        .zip(&sessions)
        .map(|(input, session)| CompileItem {
            name: input.name.clone(),
            session,
            circuit: &input.circuit,
        })
        .collect();
    let mut compile = CompilePhase::warm_up(&items, true, ctx.traced)?;

    // The execution probe, warmed up like the compiles.
    let mut groups = Vec::new();
    for (input, session) in probe.iter().zip(&sessions) {
        let compiled = session
            .compile(&input.circuit)
            .map_err(|e| format!("{}: probe compile failed: {e}", input.name))?;
        groups.push(Group {
            name: input.name.clone(),
            config: input.config,
            compiled: Arc::new(compiled),
        });
    }
    for (group, session) in groups.iter().zip(&sessions) {
        let _warm = session.execute_shared(Arc::clone(&group.compiled), stream.next_seed());
    }

    // Each round compiles both circuits, then runs one probe seed at each
    // configuration, so the probe samples the whole run's host time.
    let deadline = ctx.deadline();
    let mut jobs = Vec::new();
    loop {
        compile.round(&items, &ROUND, &mut clock);
        for (g, (group, session)) in groups.iter().zip(&sessions).enumerate() {
            let seed = stream.next_seed();
            let t = Instant::now();
            let outcome = session.execute_shared(Arc::clone(&group.compiled), seed);
            let wall = secs(t.elapsed());
            jobs.push(Job {
                group: g,
                seed,
                latency_s: wall,
                exec_s: wall,
                submit_s: 0.0,
                scale: clock.tick(),
                outcome,
            });
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    // Jobs are compiles: latency quantiles per circuit, throughput the
    // median round's.
    let latencies: Vec<Vec<f64>> = compile.plain.clone();
    let per_round = ROUND.len() as f64;
    let jobs_per_s = median(
        &compile
            .sequence
            .chunks(ROUND.len())
            .map(|round| per_round / round.iter().map(|&(_, s)| s).sum::<f64>())
            .collect::<Vec<_>>(),
    );

    record_end_to_end(&mut rec, &compile, &groups, &jobs, &latencies, jobs_per_s);
    clock.record(&mut rec);
    record_no_cache(&mut rec);
    rec.note("circuits", format!("{big_rca} {big_layered}"));
    rec.note(
        "execute_s_per_seed",
        "probe rcachain:q9,r1 on a warm session at each hardware configuration; jobs are compiles",
    );

    let attempted = (compile.sequence.len() + jobs.len()) as u64;
    finish(ctx, rec, &compile, &groups, &jobs, attempted, f64::INFINITY)
}
