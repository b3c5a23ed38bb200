//! The parts every workload shares: timed set-up, the compile phase, the
//! correctness check against cold reference sessions, and the traced
//! replays that yield the per-layer metrics.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use oneperc::{CompiledProgram, CompilerConfig, ExecuteOutcome, Session};
use oneperc_circuit::Circuit;

use crate::host::HostClock;
use crate::json::Value;
use crate::layers::{self, CompileTrace, GenerationBench, Replay};
use crate::metrics::Recorder;
use crate::stats::{median, nproc, quantile, ratio, secs, trimmed_mean};

/// Busy threads a workload may keep: the workloads are sized for two cores.
const MAX_THREADS: usize = 2;

/// Photons fused in parallel per time-like hop in the p = 0.75 workloads.
/// At the compiler default of 3, a failed hop makes the next attempt need
/// more hops, and roughly one 25-qubit QFT execution in 300 runs away into
/// the online pass's 2048-merged-layer safety cap; at 4 (the reshaping
/// engine's own default) no run of this benchmark has.
pub const TEMPORAL_REDUNDANCY: usize = 4;

/// The seed of the circuits' random structure (QAOA graphs, corpus
/// samples). Fixed, so that runs of every `--seed` measure the same
/// programs and differ only in execution seeds, draws and host time.
pub const CIRCUIT_SEED: u64 = 0x0E1E_C0DE;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Merged layers the generation bench times after each traced replay.
const BENCH_LAYERS: usize = 8;

/// How one run was invoked.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Shrunken inputs, for the benchmark's own tests.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn deadline(&self) -> Instant {
        Instant::now() + std::time::Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload hands back to [`crate::run`].
#[derive(Debug)]
pub struct RunOutcome {
    pub rec: Recorder,
    pub attempted: u64,
    /// Failed operations: errors, incomplete executions, and any job whose
    /// output failed the correctness check.
    pub failures: Vec<String>,
}

/// Runs `build` [`SETUP_REPS`] times, records the median scaled time as
/// `setup_s` and returns the last state (earlier ones are dropped, joining
/// their threads).
pub fn timed_setup<T>(
    rec: &mut Recorder,
    clock: &mut HostClock,
    mut build: impl FnMut() -> T,
) -> T {
    let mut times = Vec::new();
    let mut state = None;
    clock.tick();
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(build());
        let seconds = secs(t.elapsed());
        times.push(seconds * clock.tick());
    }
    rec.set("setup_s", median(&times));
    rec.samples("setup_s", times);
    state.expect("at least one set-up")
}

/// Maps `f` over `0..n` on up to [`MAX_THREADS`] scoped threads; results
/// come back in index order.
pub fn parallel_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = nproc().clamp(1, MAX_THREADS).min(n.max(1));
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                results.lock().expect("a worker panicked")[i] = Some(value);
            });
        }
    });
    results
        .into_inner()
        .expect("a worker panicked")
        .into_iter()
        .map(|v| v.expect("every index was mapped"))
        .collect()
}

/// A compiled program that jobs execute.
#[derive(Debug, Clone)]
pub struct Group {
    pub name: String,
    pub config: CompilerConfig,
    pub compiled: Arc<CompiledProgram>,
}

/// One timed execution.
#[derive(Debug, Clone)]
pub struct Job {
    pub group: usize,
    pub seed: u64,
    /// Submit to outcome, as the client saw it.
    pub latency_s: f64,
    /// The execution's own wall-clock (see each workload for its source).
    pub exec_s: f64,
    /// Time the client was blocked inside the submit call.
    pub submit_s: f64,
    /// The host-speed scale of the job's timings (see [`HostClock::tick`]).
    pub scale: f64,
    pub outcome: ExecuteOutcome,
}

/// One circuit of a workload's compile set, compiled by `session`.
pub struct CompileItem<'a> {
    pub name: String,
    pub session: &'a Session,
    pub circuit: &'a Circuit,
}

/// Samples of the compile phase.
#[derive(Debug, Default)]
pub struct CompilePhase {
    /// Whether a compile that differs from the warm-up is a failure (it is
    /// only noted otherwise).
    repeatable: bool,
    traced: bool,
    /// Plain `Session::compile` wall-clock per item, scaled to the
    /// reference host speed.
    pub plain: Vec<Vec<f64>>,
    /// The same, unscaled: what the traced stage timings compare with.
    pub raw: Vec<Vec<f64>>,
    /// Call-by-call traces per item (traced runs only).
    pub traced_samples: Vec<Vec<CompileTrace>>,
    /// The warm-up compile of each item; later compiles are compared with it.
    pub programs: Vec<Arc<CompiledProgram>>,
    /// `(item, scaled seconds)` of every plain compile, in run order.
    pub sequence: Vec<(usize, f64)>,
    /// The host-speed scale of each entry of `sequence`.
    pub scales: Vec<f64>,
    pub rounds: usize,
    pub failures: Vec<String>,
    /// Items whose compile differed from the warm-up, where repeatability
    /// is not required.
    pub nonrepeatable: Vec<String>,
}

impl CompilePhase {
    /// Compiles every item once, untimed: the warm-up.
    ///
    /// # Errors
    ///
    /// A warm-up compile that fails or is incomplete stops the run.
    pub fn warm_up(
        items: &[CompileItem<'_>],
        repeatable: bool,
        traced: bool,
    ) -> Result<Self, String> {
        let mut phase = CompilePhase {
            repeatable,
            traced,
            plain: vec![Vec::new(); items.len()],
            raw: vec![Vec::new(); items.len()],
            traced_samples: vec![Vec::new(); items.len()],
            ..CompilePhase::default()
        };
        for item in items {
            let program = item
                .session
                .compile(item.circuit)
                .map_err(|e| format!("{}: warm-up compile failed: {e}", item.name))?;
            if !program.mapping.complete {
                return Err(format!("{}: warm-up compile is incomplete", item.name));
            }
            phase.programs.push(Arc::new(program));
        }
        Ok(phase)
    }

    /// One round: a timed `Session::compile` of each item in `pattern`,
    /// each between two ticks of `clock` (followed, in traced runs, by a
    /// call-by-call traced compile, after which the clock ticks again).
    pub fn round(&mut self, items: &[CompileItem<'_>], pattern: &[usize], clock: &mut HostClock) {
        clock.tick();
        for &i in pattern {
            let item = &items[i];
            let t = Instant::now();
            let compiled = item.session.compile(item.circuit);
            let seconds = secs(t.elapsed());
            let scale = clock.tick();
            let scaled = seconds * scale;
            self.scales.push(scale);
            self.sequence.push((i, scaled));
            self.plain[i].push(scaled);
            self.raw[i].push(seconds);
            let first = &self.programs[i];
            match compiled {
                Ok(p)
                    if p.mapping.complete
                        && p.mapping.stats == first.mapping.stats
                        && p.mapping.instructions == first.mapping.instructions => {}
                Ok(p) if !p.mapping.complete => self
                    .failures
                    .push(format!("{}: compile incomplete", item.name)),
                Ok(_) if self.repeatable => self
                    .failures
                    .push(format!("{}: compile not repeatable", item.name)),
                Ok(_) => self.nonrepeatable.push(item.name.clone()),
                Err(e) => self
                    .failures
                    .push(format!("{}: compile failed: {e}", item.name)),
            }
            if self.traced {
                let config = item.session.config();
                match layers::traced_compile(config, item.circuit, first, self.repeatable) {
                    Ok(trace) => self.traced_samples[i].push(trace),
                    Err(e) => self.failures.push(format!("{}: {e}", item.name)),
                }
                clock.tick();
            }
        }
        self.rounds += 1;
    }

    /// Sum over items of the median scaled compile: one offline pass of
    /// the workload's circuit set.
    pub fn compile_s(&self) -> f64 {
        self.plain.iter().map(|s| median(s)).sum()
    }

    /// [`Self::compile_s`] unscaled.
    pub fn raw_compile_s(&self) -> f64 {
        self.raw.iter().map(|s| median(s)).sum()
    }

    pub fn ir_layers(&self) -> usize {
        self.programs.iter().map(|p| p.layer_count()).sum()
    }
}

/// A job's traced replay, taken right after its untraced reference run on
/// the same thread so the two see the same host conditions.
#[derive(Debug)]
pub struct Traced {
    pub job: usize,
    /// The untraced reference run's `online_time`.
    pub reference_s: f64,
    pub replay: Replay,
    /// Generation bench at the job's hardware configuration.
    pub bench: GenerationBench,
}

/// Checks every job (see [`check_job`]); jobs flagged in `replay` that
/// pass are then replayed traced. Returns the failures and the replays.
pub fn check_jobs(
    seed: u64,
    groups: &[Group],
    jobs: &[Job],
    replay: &[bool],
) -> (Vec<String>, Vec<Traced>) {
    let results = parallel_map(jobs.len(), |i| {
        let reference_s = check_job(groups, jobs, i)?;
        if !replay[i] {
            return Ok(None);
        }
        let job = &jobs[i];
        let c = groups[job.group].config;
        let replay = layers::replay(&c, &groups[job.group].compiled, job.seed);
        let bench =
            layers::generation_bench(c.hardware, c.node_size, seed ^ job.seed, BENCH_LAYERS);
        Ok(Some(Traced {
            job: i,
            reference_s,
            replay,
            bench,
        }))
    });
    let mut failures = Vec::new();
    let mut traced = Vec::new();
    for result in results {
        match result {
            Ok(Some(t)) => traced.push(t),
            Ok(None) => {}
            Err(e) => failures.push(e),
        }
    }
    (failures, traced)
}

/// Checks one job: complete, internally consistent, and byte-identical
/// (`deterministic()` view) to the same `(program, seed)` on a cold
/// reference session — one lane, in-lane renormalization, no program
/// cache. The reference executes the group's own compile, so a fleet job
/// served from the shared cache is also checked against an independent
/// compile. Returns the reference run's `online_time`.
fn check_job(groups: &[Group], jobs: &[Job], i: usize) -> Result<f64, String> {
    let job = &jobs[i];
    let group = &groups[job.group];
    let label = format!("{} seed {}", group.name, job.seed);
    let report = job.outcome.report();
    if let Some(failure) = job.outcome.failure() {
        return Err(format!("{label}: incomplete: {failure}"));
    }
    if report.merged_layers != report.logical_layers + report.routing_layers {
        return Err(format!("{label}: merged != logical + routing layers"));
    }
    if report.logical_layers as usize != report.ir_layers
        || report.ir_layers != group.compiled.layer_count()
    {
        return Err(format!("{label}: logical layers != IR layers"));
    }
    let cold = group.config.with_renorm_workers(0);
    let session = Session::builder(cold).lanes(1).program_cache(0).build();
    let reference = session.execute_shared(Arc::clone(&group.compiled), job.seed);
    if reference.report().deterministic() != report.deterministic() {
        return Err(format!(
            "{label}: report differs from the cold reference session"
        ));
    }
    Ok(secs(reference.report().online_time))
}

/// The common tail of every workload: check every job against its cold
/// reference, record the job, compile and replay layer metrics (traced
/// runs), `completed_frac` and `peak_rss_mib`. `attempted` counts the
/// workload's timed operations; traced runs replay jobs while their
/// expected serial cost fits `replay_budget_s`.
pub fn finish(
    ctx: &Ctx,
    mut rec: Recorder,
    compile: &CompilePhase,
    groups: &[Group],
    jobs: &[Job],
    attempted: u64,
    replay_budget_s: f64,
) -> Result<RunOutcome, String> {
    let mut failures = compile.failures.clone();
    if !compile.nonrepeatable.is_empty() {
        rec.note(
            "compile_nonrepeatable",
            format!(
                "compiles that differed from the first compile of their circuit: {}",
                compile.nonrepeatable.join(" ")
            ),
        );
    }
    // Jobs to replay, in order, while their expected serial cost fits the
    // budget (at least one).
    let mut replay = vec![false; jobs.len()];
    if ctx.traced {
        let mut planned = 0.0;
        for (i, job) in jobs.iter().enumerate() {
            if i == 0 || planned + job.exec_s <= replay_budget_s {
                replay[i] = true;
                planned += job.exec_s;
            }
        }
    }
    let (job_failures, traced) = check_jobs(ctx.seed, groups, jobs, &replay);
    failures.extend(job_failures);
    record_job_layers(&mut rec, jobs);
    if ctx.traced {
        record_compile_layers(&mut rec, compile);
        record_replay_layers(ctx, &mut rec, groups, jobs, &traced, compile, &mut failures)?;
    }
    let failed = failures.len().min(attempted as usize);
    rec.set(
        "completed_frac",
        1.0 - ratio(failed as f64, attempted as f64),
    );
    rec.set("peak_rss_mib", crate::stats::peak_rss_mib().unwrap_or(0.0));
    Ok(RunOutcome {
        rec,
        attempted,
        failures,
    })
}

/// Mean over groups of the trimmed mean over each group's jobs — the
/// per-seed figure of a workload whose circuits differ in cost.
pub fn per_seed(jobs: &[Job], groups: usize, value: impl Fn(&Job) -> f64) -> f64 {
    let means: Vec<f64> = (0..groups)
        .map(|g| {
            jobs.iter()
                .filter(|j| j.group == g)
                .map(&value)
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .map(|v| trimmed_mean(&v))
        .collect();
    ratio(means.iter().sum(), means.len() as f64)
}

/// Records the end-to-end metrics every workload derives the same way.
///
/// Timings are scaled to the reference host speed; `latencies` (already
/// scaled) holds job latencies by class; each latency quantile is the
/// mean over classes of the class's quantile. Sequential workloads pass one
/// class per circuit, because their circuits differ several-fold in cost
/// and a pooled quantile would fall in the gap between two circuits.
pub fn record_end_to_end(
    rec: &mut Recorder,
    compile: &CompilePhase,
    groups: &[Group],
    jobs: &[Job],
    latencies: &[Vec<f64>],
    jobs_per_s: f64,
) {
    rec.set("compile_s", compile.compile_s());
    rec.samples(
        "compile_s",
        compile.sequence.iter().map(|&(_, s)| s).collect(),
    );
    rec.samples("compile_scale", compile.scales.clone());
    rec.set(
        "execute_s_per_seed",
        per_seed(jobs, groups.len(), |j| j.exec_s * j.scale),
    );
    rec.samples(
        "execute_s_per_seed",
        jobs.iter().map(|j| j.exec_s * j.scale).collect(),
    );
    rec.samples("execute_scale", jobs.iter().map(|j| j.scale).collect());
    rec.set("jobs_per_s", jobs_per_s);
    let classes: Vec<&Vec<f64>> = latencies.iter().filter(|l| !l.is_empty()).collect();
    let mean_quantile = |q: f64| {
        let sum: f64 = classes.iter().map(|l| quantile(l, q)).sum();
        ratio(sum, classes.len() as f64)
    };
    rec.set("job_latency_p50_s", mean_quantile(0.5));
    rec.set("job_latency_p90_s", mean_quantile(0.9));
    rec.samples("job_latency_s", latencies.concat());
    let complete: Vec<_> = jobs.iter().filter(|j| j.outcome.is_complete()).collect();
    let logical: u64 = complete
        .iter()
        .map(|j| j.outcome.report().logical_layers)
        .sum();
    let rsl: u64 = complete
        .iter()
        .map(|j| j.outcome.report().rsl_consumed)
        .sum();
    let fusions: u64 = complete.iter().map(|j| j.outcome.report().fusions).sum();
    rec.set("rsl_per_logical_layer", ratio(rsl as f64, logical as f64));
    rec.set(
        "fusions_per_logical_layer",
        ratio(fusions as f64, logical as f64),
    );
    rec.set("ir_layers", compile.ir_layers() as f64);
}

/// Records the `oneperc.*` and `service.queue_wait_s` metrics of `jobs`.
pub fn record_job_layers(rec: &mut Recorder, jobs: &[Job]) {
    let online: Vec<f64> = jobs
        .iter()
        .map(|j| secs(j.outcome.report().online_time))
        .collect();
    let overhead: Vec<f64> = jobs
        .iter()
        .zip(&online)
        .map(|(j, o)| j.latency_s - o)
        .collect();
    let queue: Vec<f64> = jobs
        .iter()
        .map(|j| secs(j.outcome.report().service.queue_wait))
        .collect();
    rec.set("oneperc.online_s_per_seed", median(&online));
    rec.set("oneperc.job_overhead_s", median(&overhead));
    rec.set("service.queue_wait_s", median(&queue));
}

/// Records the service metrics as zero for workloads that never consult a
/// program cache.
pub fn record_no_cache(rec: &mut Recorder) {
    for name in [
        "service.cache_hit_ratio",
        "service.cache_misses",
        "service.cache_evictions",
        "service.compile_on_miss_s",
        "service.admission_wait_s",
    ] {
        rec.set(name, 0.0);
    }
}

/// Records the compile-stage metrics of a traced compile phase.
pub fn record_compile_layers(rec: &mut Recorder, compile: &CompilePhase) {
    let stage = |f: fn(&CompileTrace) -> f64| -> f64 {
        compile
            .traced_samples
            .iter()
            .filter(|t| !t.is_empty())
            .map(|t| median(&t.iter().map(f).collect::<Vec<_>>()))
            .sum()
    };
    let program_graph = stage(|t| t.program_graph_s);
    let dag = stage(|t| t.dag_s);
    let mapper_self = stage(CompileTrace::mapper_self_s);
    let lower = stage(|t| t.lower_s);
    let stats: Vec<_> = compile
        .traced_samples
        .iter()
        .filter_map(|t| t.first())
        .map(|t| t.stats)
        .collect();
    let nodes: usize = stats.iter().map(|s| s.program_nodes).sum();
    rec.set("circuit.program_graph_s", program_graph);
    rec.set("circuit.dag_s", dag);
    rec.set("circuit.program_nodes", nodes as f64);
    rec.set("mapper.self_s", mapper_self);
    rec.set("mapper.us_per_node", ratio(mapper_self * 1e6, nodes as f64));
    rec.set(
        "mapper.peak_live_nodes",
        stats.iter().map(|s| s.peak_live_nodes).max().unwrap_or(0) as f64,
    );
    rec.set(
        "mapper.temporal_edges",
        stats.iter().map(|s| s.temporal_edges).sum::<usize>() as f64,
    );
    rec.set(
        "mapper.deferred_edges",
        stats.iter().map(|s| s.deferred_edges).sum::<usize>() as f64,
    );
    rec.set("ir.lower_s", lower);
    rec.set("ir.summaries_s", stage(|t| t.summaries_s));
    rec.set(
        "ir.layers",
        stats.iter().map(|s| s.layers).sum::<usize>() as f64,
    );
    let stages = program_graph + dag + mapper_self + lower;
    let end_to_end = compile.raw_compile_s();
    rec.set("recon.compile_stages_s", stages);
    rec.set(
        "recon.compile_residual_frac",
        ratio(end_to_end - stages, end_to_end),
    );
    rec.note(
        "recon.compile",
        format!("compile_s {end_to_end} vs stage sum {stages} (graph + dag + mapper self + lower)"),
    );
}

/// Checks that each traced replay did the same work as its job, writes the
/// per-logical-layer JSONL trace and records the hardware, percolation,
/// online reconciliation and tracing-overhead metrics.
pub fn record_replay_layers(
    ctx: &Ctx,
    rec: &mut Recorder,
    groups: &[Group],
    jobs: &[Job],
    traced: &[Traced],
    compile: &CompilePhase,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let path = ctx
        .out_dir
        .join(format!("trace-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("{}: {e}", ctx.out_dir.display()))?;
    let mut file = std::io::BufWriter::new(
        fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
    );

    let (mut merged, mut logical, mut renorm_fail, mut timelike_fail) =
        (0u64, 0u64, 0usize, 0usize);
    let (mut generate_us, mut renormalize_us, mut advance_us) = (0.0, 0.0, 0.0);
    let (mut replay_s, mut plain_s, mut delay_peak) = (0.0, 0.0, 0usize);
    let (mut fusions, mut fusions_ok, mut bench_layers) = (0u64, 0u64, 0.0);
    let mut stage_jobs = Vec::new();
    for t in traced {
        let (job, replay, bench) = (&jobs[t.job], &t.replay, &t.bench);
        let group = &groups[job.group];
        let report = job.outcome.report();
        if replay.stats.raw_rsl != report.rsl_consumed
            || replay.stats.merged_layers != report.merged_layers
            || replay.stats.fusions_attempted != report.fusions
        {
            failures.push(format!(
                "{} seed {}: replay did different work",
                group.name, job.seed
            ));
        }
        let m = replay.stats.merged_layers;
        merged += m;
        logical += replay.stats.logical_layers;
        generate_us += m as f64 * bench.generate_us;
        renormalize_us += m as f64 * bench.renormalize_us;
        fusions += bench.fusions_attempted;
        fusions_ok += bench.fusions_succeeded;
        bench_layers += BENCH_LAYERS as f64;
        delay_peak = delay_peak.max(replay.stats.delay_line_peak);
        replay_s += replay.seconds;
        plain_s += t.reference_s;
        let job_advance_us: f64 = replay.layers.iter().map(|l| l.advance_us).sum();
        stage_jobs.push(Job {
            exec_s: job_advance_us * 1e-6,
            ..job.clone()
        });
        for layer in &replay.layers {
            advance_us += layer.advance_us;
            renorm_fail += layer.renorm_failures;
            timelike_fail += layer.timelike_failures;
            let mut line = Value::obj();
            line.push("circuit", group.name.as_str());
            line.push("seed", job.seed);
            line.push("layer", layer.index);
            line.push("merged_layers", layer.merged);
            line.push("renorm_failures", layer.renorm_failures);
            line.push("timelike_failures", layer.timelike_failures);
            line.push("raw_rsl", layer.raw_rsl);
            line.push("advance_us", layer.advance_us);
            writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    file.flush()
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let (merged_f, logical_f) = (merged as f64, logical as f64);
    let generate = ratio(generate_us, merged_f);
    let renormalize = ratio(renormalize_us, merged_f);
    let advance = ratio(advance_us, logical_f);
    let pl = ratio(merged_f, logical_f);
    rec.set("hardware.generate_us_per_layer", generate);
    rec.set(
        "hardware.fusions_per_layer",
        ratio(fusions as f64, bench_layers),
    );
    rec.set(
        "hardware.fusion_success_ratio",
        ratio(fusions_ok as f64, fusions as f64),
    );
    rec.set("percolation.renormalize_us_per_layer", renormalize);
    rec.set(
        "percolation.renorm_success_ratio",
        1.0 - ratio(renorm_fail as f64, merged_f),
    );
    rec.set("percolation.advance_us_per_logical_layer", advance);
    rec.set(
        "percolation.connect_us_per_logical_layer",
        advance - pl * (generate + renormalize),
    );
    rec.set("percolation.pl_ratio", pl);
    rec.set(
        "percolation.renorm_failures_per_logical_layer",
        ratio(renorm_fail as f64, logical_f),
    );
    rec.set(
        "percolation.timelike_failures_per_logical_layer",
        ratio(timelike_fail as f64, logical_f),
    );
    rec.set("percolation.delay_line_peak", delay_peak as f64);
    rec.note(
        "percolation.connect_us_per_logical_layer",
        "derived: advance minus pl_ratio x (generate + renormalize); generate and renormalize \
         come from a generation bench run right after each replay",
    );

    // Online reconciliation: the serial stage sum per seed (generate +
    // renormalize + connect = advance) against the end-to-end per-seed
    // figure of the same jobs.
    let stage_per_seed = per_seed(&stage_jobs, groups.len(), |j| j.exec_s);
    let replayed: Vec<Job> = traced.iter().map(|t| jobs[t.job].clone()).collect();
    let execute = per_seed(&replayed, groups.len(), |j| j.exec_s);
    rec.set("recon.online_stages_s", stage_per_seed);
    rec.set(
        "recon.online_residual_frac",
        ratio(execute - stage_per_seed, execute),
    );

    // Tracing overhead: traced work against the same work untraced.
    let traced_compile: f64 = compile
        .traced_samples
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(&t.iter().map(CompileTrace::pass_s).collect::<Vec<_>>()))
        .sum();
    let plain_compile: f64 = compile
        .traced_samples
        .iter()
        .zip(&compile.raw)
        .filter(|(t, _)| !t.is_empty())
        .map(|(_, p)| median(p))
        .sum();
    let traced_total = traced_compile + replay_s;
    let plain_total = plain_compile + plain_s;
    rec.set(
        "trace.overhead_frac",
        ratio(traced_total - plain_total, plain_total),
    );
    rec.note(
        "trace.overhead_frac",
        format!(
            "traced {traced_total} s vs untraced {plain_total} s: compiles (stage calls vs Session::compile) \
             and {} serial replays (per-layer spans vs the cold reference run)",
            traced.len()
        ),
    );
    rec.note("trace.jsonl", path.display().to_string());
    Ok(())
}
