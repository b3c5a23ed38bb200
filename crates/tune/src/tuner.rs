//! The tuner: exhaustive lattice sweep + successive-halving refinement
//! over the warm multi-tenant fleet, with a cached frontier artifact.
//!
//! # Evaluation pipeline
//!
//! [`Tuner::tune`] walks the lattice points in their fixed order, keeping
//! a bounded window of points **in flight**: each point gets its own
//! [`AsyncSession`] (one warm session per machine configuration — the
//! fleet-sharding shape the service layer documents), every session
//! shares the tuner's one [`ProgramCache`], and the point's seeds are
//! admitted through the blocking [`submit`](AsyncSession::submit) so the
//! sweep respects the service tier's bounded admission window. Points are
//! *harvested* (futures awaited, reports aggregated, cost scored, Pareto
//! frontier updated) strictly in lattice order.
//!
//! # Shedding dominated in-flight work
//!
//! After each harvest, every still-in-flight point whose [optimistic
//! lower bound](crate::CostModel::lower_bound) is dominated by a finished
//! point is **cancelled mid-flight** through the job futures' cancel
//! tokens — the lanes abandon the remaining runs at their next layer
//! checkpoint ([`LayerFailureReason::Cancelled`]). Soundness of the bound
//! guarantees a shed point could never have joined the frontier, so the
//! artifact is unaffected; *which* points are shed is a deterministic
//! function of the tuner's settings (the schedule has no data races),
//! though how far a shed run progressed before its checkpoint is
//! timing-dependent and therefore only surfaces in [`TuneStats`], never
//! in the artifact.
//!
//! # Refinement (successive halving)
//!
//! The exhaustive pass is exact but shallow: few seeds per point. The
//! refinement stage re-evaluates the frontier members on geometrically
//! growing seed sets, halving the candidate pool by scalarized cost each
//! rung, and records the winner as the artifact's `recommended`
//! configuration. The exhaustive frontier itself is never revised — the
//! rungs only pick among its members.
//!
//! # Determinism and the cache
//!
//! Per-seed reports are deterministic, aggregation follows fixed seed
//! order, the frontier serializes in canonical order: identical inputs
//! and seed sets produce a **byte-identical** artifact, independent of
//! lane count, in-flight window, or shedding. The artifact is cached in
//! memory and (with [`TunerBuilder::artifact_dir`]) on disk, keyed by
//! [`Circuit::structural_hash`] and validated against the full
//! [`Tuner::tune_key`]; a re-tune of a known circuit returns the stored
//! bytes without evaluating anything.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use oneperc::service::{AsyncSession, ProgramCache};
use oneperc::{
    CacheStats, CompileError, CompilerConfig, ExecutionReport, ExecutionRequest, JobFuture,
    LayerFailureReason, DEFAULT_PROGRAM_CACHE_CAPACITY,
};
use oneperc_circuit::{Circuit, StableHasher};

use crate::artifact::{ConfigKnobs, FrontierArtifact, FrontierPoint, RungSummary};
use crate::cost::{CostModel, PointSample, ResourceDeadlineModel};
use crate::lattice::ConfigLattice;
use crate::pareto::{FrontEntry, ParetoFront};

/// A failed tuning run.
#[derive(Debug)]
pub enum TuneError {
    /// The offline pass failed for a lattice point.
    Compile(CompileError),
    /// The lattice has no points.
    EmptyLattice,
    /// The seed set is empty.
    NoSeeds,
    /// Writing the artifact to disk failed.
    Io(std::io::Error),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Compile(e) => write!(f, "lattice point failed to compile: {e}"),
            TuneError::EmptyLattice => write!(f, "the configuration lattice has no points"),
            TuneError::NoSeeds => write!(f, "the tuner needs at least one seed"),
            TuneError::Io(e) => write!(f, "writing the frontier artifact failed: {e}"),
        }
    }
}

impl std::error::Error for TuneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TuneError::Compile(e) => Some(e),
            TuneError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompileError> for TuneError {
    fn from(e: CompileError) -> Self {
        TuneError::Compile(e)
    }
}

impl From<std::io::Error> for TuneError {
    fn from(e: std::io::Error) -> Self {
        TuneError::Io(e)
    }
}

/// Where a [`TuneOutcome`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneSource {
    /// The lattice was evaluated on the fleet.
    Evaluated,
    /// Served from this tuner's in-memory cache — nothing executed.
    MemoryCache,
    /// Reloaded from the artifact directory — nothing executed.
    DiskCache,
}

/// Operational counters of one [`Tuner::tune`] call.
///
/// The schedule-shape counters (`points_*`, `jobs_cancelled`) are
/// deterministic for fixed tuner settings; `cancellations_observed` and
/// `wall` depend on thread timing (how far a shed run got before its
/// cancellation checkpoint). None of these enter the artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use]
pub struct TuneStats {
    /// Lattice points in the sweep.
    pub points_total: usize,
    /// Points fully evaluated (harvested into the frontier).
    pub points_evaluated: usize,
    /// Points pruned *before submission*: their optimistic lower bound
    /// was already dominated when their turn came.
    pub points_pruned_static: usize,
    /// Points cancelled *mid-flight* after a harvest dominated their
    /// bound — the PR 7 cancellation path.
    pub points_shed_inflight: usize,
    /// Seed executions harvested into frontier costs (exhaustive pass).
    pub jobs_harvested: usize,
    /// Seed executions belonging to shed points whose futures were
    /// cancelled.
    pub jobs_cancelled: usize,
    /// Cancelled executions whose lane actually stopped at a cancellation
    /// checkpoint (the rest finished before observing the token; both are
    /// discarded). Timing-dependent.
    pub cancellations_observed: usize,
    /// Seed executions spent in refinement rungs.
    pub refinement_executions: usize,
    /// Shared program-cache counters after the run.
    pub cache: CacheStats,
    /// Wall-clock time of the whole call.
    pub wall: Duration,
}

/// The result of [`Tuner::tune`]: the frontier artifact, its canonical
/// bytes, where it came from, and the run's counters.
#[derive(Debug, Clone)]
#[must_use]
pub struct TuneOutcome {
    /// The Pareto frontier artifact.
    pub artifact: FrontierArtifact,
    /// The artifact's canonical JSON — byte-identical across runs with
    /// identical inputs, and exactly what the artifact directory stores.
    pub json: String,
    /// Whether this call evaluated the lattice or hit a cache.
    pub source: TuneSource,
    /// Operational counters (all zero except `points_total` and `wall`
    /// on cache hits).
    pub stats: TuneStats,
}

/// Configures a [`Tuner`]; see [`Tuner::builder`].
#[must_use]
pub struct TunerBuilder {
    lattice: ConfigLattice,
    seeds: Vec<u64>,
    cost_model: Box<dyn CostModel>,
    lanes: usize,
    concurrent_points: usize,
    queue_depth: Option<usize>,
    artifact_dir: Option<PathBuf>,
    refine_rungs: usize,
    refine_growth: usize,
    shed_inflight: bool,
    program_cache: Option<Arc<ProgramCache>>,
}

impl TunerBuilder {
    /// Replaces the per-point seed sweep (default `[1, 2, 3, 4]`).
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Replaces the cost model (default [`ResourceDeadlineModel`]).
    pub fn cost_model(mut self, model: impl CostModel + 'static) -> Self {
        self.cost_model = Box::new(model);
        self
    }

    /// Lanes per point session (default 1). More lanes overlap one
    /// point's seeds; the artifact is identical for every value.
    pub fn lanes(mut self, lanes: usize) -> Self {
        assert!(lanes > 0, "a session needs at least one lane");
        self.lanes = lanes;
        self
    }

    /// Lattice points in flight at once (default 2). More points overlap
    /// distinct configurations — and give the shedding pass targets; the
    /// artifact is identical for every value.
    pub fn concurrent_points(mut self, points: usize) -> Self {
        assert!(points > 0, "the in-flight window needs at least one slot");
        self.concurrent_points = points;
        self
    }

    /// Admission window per point session (default: the service tier's
    /// own default).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "admission window needs at least one slot");
        self.queue_depth = Some(depth);
        self
    }

    /// Persists artifacts under this directory and reloads them on
    /// re-tunes (one file per circuit hash).
    pub fn artifact_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.artifact_dir = Some(dir.into());
        self
    }

    /// Configures the successive-halving stage: `rungs` halving rounds,
    /// the seed set growing `growth`× per rung (defaults: 1 rung, 2×).
    /// `rungs = 0` disables refinement (the recommendation then comes
    /// from the exhaustive costs alone).
    pub fn refinement(mut self, rungs: usize, growth: usize) -> Self {
        assert!(growth >= 1, "the seed set cannot shrink between rungs");
        self.refine_rungs = rungs;
        self.refine_growth = growth;
        self
    }

    /// Enables or disables cancelling dominated in-flight points
    /// (default on). Off, every submitted point runs to completion; the
    /// artifact is identical either way.
    pub fn shed_inflight(mut self, shed: bool) -> Self {
        self.shed_inflight = shed;
        self
    }

    /// Shares an existing program cache (e.g. a serving fleet's) instead
    /// of creating a private one: circuits the fleet already compiled are
    /// cache hits for the tuner and vice versa.
    pub fn shared_program_cache(mut self, cache: Arc<ProgramCache>) -> Self {
        self.program_cache = Some(cache);
        self
    }

    /// Builds the tuner.
    pub fn build(self) -> Tuner {
        Tuner {
            lattice: self.lattice,
            seeds: self.seeds,
            cost_model: self.cost_model,
            lanes: self.lanes,
            concurrent_points: self.concurrent_points,
            queue_depth: self.queue_depth,
            artifact_dir: self.artifact_dir,
            refine_rungs: self.refine_rungs,
            refine_growth: self.refine_growth,
            shed_inflight: self.shed_inflight,
            program_cache: self
                .program_cache
                .unwrap_or_else(|| Arc::new(ProgramCache::new(DEFAULT_PROGRAM_CACHE_CAPACITY))),
            memory: HashMap::new(),
        }
    }
}

/// One memoized tuning answer.
struct CachedTune {
    tune_key: u64,
    json: String,
    artifact: FrontierArtifact,
}

/// The auto-tuner. See the [module docs](self) for the pipeline.
pub struct Tuner {
    lattice: ConfigLattice,
    seeds: Vec<u64>,
    cost_model: Box<dyn CostModel>,
    lanes: usize,
    concurrent_points: usize,
    queue_depth: Option<usize>,
    artifact_dir: Option<PathBuf>,
    refine_rungs: usize,
    refine_growth: usize,
    shed_inflight: bool,
    program_cache: Arc<ProgramCache>,
    memory: HashMap<u64, CachedTune>,
}

/// A fully evaluated lattice point, as carried on the frontier.
struct PointEval {
    config: CompilerConfig,
    fingerprint: u64,
    complete_runs: usize,
    total_runs: usize,
}

/// A point whose seeds are submitted but not yet harvested.
struct InFlightPoint {
    config: CompilerConfig,
    // Kept alive until harvest/shed: owns the lanes running the futures.
    session: AsyncSession,
    futures: Vec<JobFuture>,
    lower_bound: Option<Vec<f64>>,
}

impl Tuner {
    /// Starts configuring a tuner over a lattice.
    pub fn builder(lattice: ConfigLattice) -> TunerBuilder {
        TunerBuilder {
            lattice,
            seeds: vec![1, 2, 3, 4],
            cost_model: Box::new(ResourceDeadlineModel::new()),
            lanes: 1,
            concurrent_points: 2,
            queue_depth: None,
            artifact_dir: None,
            refine_rungs: 1,
            refine_growth: 2,
            shed_inflight: true,
            program_cache: None,
        }
    }

    /// A tuner with default settings over a lattice.
    pub fn new(lattice: ConfigLattice) -> Tuner {
        Self::builder(lattice).build()
    }

    /// The swept lattice.
    pub fn lattice(&self) -> &ConfigLattice {
        &self.lattice
    }

    /// The per-point seed sweep.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// The shared program cache every point session compiles through.
    pub fn program_cache_handle(&self) -> Arc<ProgramCache> {
        Arc::clone(&self.program_cache)
    }

    /// The full cache key of a tuning question: circuit, lattice, seeds,
    /// cost model and refinement settings. Fleet-shape knobs (lanes,
    /// window, shedding) are deliberately excluded — they cannot change
    /// the artifact, so they must not invalidate it.
    pub fn tune_key(&self, circuit: &Circuit) -> u64 {
        let mut h = StableHasher::new();
        // Key-encoding version tag, bumped on format change.
        h.write_tag(1);
        h.write_u64(circuit.structural_hash());
        h.write_u64(self.lattice.fingerprint());
        h.write_usize(self.seeds.len());
        for &seed in &self.seeds {
            h.write_u64(seed);
        }
        h.write_u64(self.cost_model.fingerprint());
        h.write_usize(self.refine_rungs);
        h.write_usize(self.refine_growth);
        h.finish()
    }

    /// Tunes a circuit: answers from the in-memory or on-disk artifact
    /// cache when the tuning question matches, otherwise sweeps the
    /// lattice on the fleet, refines, and stores the new artifact.
    pub fn tune(&mut self, circuit: &Circuit) -> Result<TuneOutcome, TuneError> {
        let started = Instant::now();
        let circuit_hash = circuit.structural_hash();
        let tune_key = self.tune_key(circuit);
        let mut stats = TuneStats { points_total: self.lattice.len(), ..TuneStats::default() };

        if let Some(cached) = self.memory.get(&circuit_hash) {
            if cached.tune_key == tune_key {
                stats.wall = started.elapsed();
                return Ok(TuneOutcome {
                    artifact: cached.artifact.clone(),
                    json: cached.json.clone(),
                    source: TuneSource::MemoryCache,
                    stats,
                });
            }
        }
        if let Some(cached) = self.load_from_disk(circuit_hash, tune_key) {
            let mut outcome = TuneOutcome {
                artifact: cached.artifact.clone(),
                json: cached.json.clone(),
                source: TuneSource::DiskCache,
                stats,
            };
            self.memory.insert(circuit_hash, cached);
            outcome.stats.wall = started.elapsed();
            return Ok(outcome);
        }

        let (artifact, json) = self.evaluate(circuit, circuit_hash, tune_key, &mut stats)?;
        self.store(circuit_hash, tune_key, &artifact, &json)?;
        stats.cache = self.program_cache.stats();
        stats.wall = started.elapsed();
        Ok(TuneOutcome { artifact, json, source: TuneSource::Evaluated, stats })
    }

    /// Forgets every cached answer held in memory (the artifact directory
    /// is untouched — useful for testing the disk path).
    pub fn clear_memory_cache(&mut self) {
        self.memory.clear();
    }

    // ------------------------------------------------------------------
    // Cache plumbing
    // ------------------------------------------------------------------

    fn artifact_path(&self, circuit_hash: u64) -> Option<PathBuf> {
        self.artifact_dir.as_ref().map(|dir| dir.join(FrontierArtifact::file_name(circuit_hash)))
    }

    /// A disk artifact is a hit only when it parses *and* answers exactly
    /// this tuning question; anything else (missing, unreadable, stale
    /// key) is a miss and will be overwritten after evaluation.
    fn load_from_disk(&self, circuit_hash: u64, tune_key: u64) -> Option<CachedTune> {
        let path = self.artifact_path(circuit_hash)?;
        let json = std::fs::read_to_string(path).ok()?;
        let artifact = FrontierArtifact::from_json(&json).ok()?;
        (artifact.circuit_hash == circuit_hash && artifact.tune_key == tune_key)
            .then_some(CachedTune { tune_key, json, artifact })
    }

    fn store(
        &mut self,
        circuit_hash: u64,
        tune_key: u64,
        artifact: &FrontierArtifact,
        json: &str,
    ) -> Result<(), TuneError> {
        if let Some(path) = self.artifact_path(circuit_hash) {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            std::fs::write(path, json)?;
        }
        self.memory.insert(
            circuit_hash,
            CachedTune { tune_key, json: json.to_string(), artifact: artifact.clone() },
        );
        Ok(())
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    fn session_for(&self, config: CompilerConfig) -> AsyncSession {
        let mut builder = AsyncSession::builder(config)
            .lanes(self.lanes)
            .shared_program_cache(Arc::clone(&self.program_cache));
        if let Some(depth) = self.queue_depth {
            builder = builder.queue_depth(depth);
        }
        builder.build()
    }

    fn evaluate(
        &self,
        circuit: &Circuit,
        circuit_hash: u64,
        tune_key: u64,
        stats: &mut TuneStats,
    ) -> Result<(FrontierArtifact, String), TuneError> {
        if self.seeds.is_empty() {
            return Err(TuneError::NoSeeds);
        }
        let points = self.lattice.points();
        if points.is_empty() {
            return Err(TuneError::EmptyLattice);
        }

        let frontier = self.sweep_lattice(circuit, &points, stats)?;
        // Canonical order before refinement so rung tie-breaks (and the
        // serialized frontier) are arrival-independent.
        let entries = frontier.into_sorted_entries(|eval: &PointEval| eval.fingerprint);
        let (recommended, rungs) = self.refine(circuit, &entries, stats)?;

        let artifact = FrontierArtifact {
            circuit_hash,
            tune_key,
            lattice_fingerprint: self.lattice.fingerprint(),
            cost_model_fingerprint: self.cost_model.fingerprint(),
            seeds: self.seeds.clone(),
            objectives: self.cost_model.objectives(),
            frontier: entries
                .iter()
                .map(|entry| FrontierPoint {
                    config: ConfigKnobs::from(&entry.item.config),
                    fingerprint: entry.item.fingerprint,
                    cost: entry.cost.clone(),
                    success_probability: entry.item.complete_runs as f64
                        / entry.item.total_runs as f64,
                    complete_runs: entry.item.complete_runs,
                    total_runs: entry.item.total_runs,
                })
                .collect(),
            recommended,
            rungs,
        };
        let json = artifact.to_json();
        Ok((artifact, json))
    }

    /// The exhaustive pass: fixed-order submission through a bounded
    /// in-flight window, fixed-order harvest, online Pareto pruning,
    /// and shedding of dominated in-flight points.
    fn sweep_lattice(
        &self,
        circuit: &Circuit,
        points: &[CompilerConfig],
        stats: &mut TuneStats,
    ) -> Result<ParetoFront<PointEval>, TuneError> {
        let mut frontier: ParetoFront<PointEval> = ParetoFront::new();
        let mut in_flight: VecDeque<InFlightPoint> = VecDeque::new();
        let mut next = 0usize;

        while next < points.len() || !in_flight.is_empty() {
            // Fill the window in lattice order.
            while in_flight.len() < self.concurrent_points && next < points.len() {
                let config = points[next];
                next += 1;
                let session = self.session_for(config);
                let compiled = session.compile_cached(circuit)?;
                let lower_bound = self.cost_model.lower_bound(&config, compiled.layer_count());
                // A bound already dominated by a harvested point proves
                // the true cost would be too: skip without executing.
                if let Some(bound) = &lower_bound {
                    if !frontier.would_admit(bound) {
                        stats.points_pruned_static += 1;
                        continue;
                    }
                }
                let futures = self
                    .seeds
                    .iter()
                    .map(|&seed| {
                        session.submit(ExecutionRequest::new(Arc::clone(&compiled), seed))
                    })
                    .collect();
                in_flight.push_back(InFlightPoint { config, session, futures, lower_bound });
            }

            let Some(point) = in_flight.pop_front() else { break };
            let (cost, eval) = self.harvest(point, stats);
            stats.points_evaluated += 1;
            frontier.insert(cost, eval);

            // The harvest may have re-drawn the frontier: cancel every
            // in-flight point whose optimistic bound can no longer win.
            if self.shed_inflight {
                let (doomed, alive): (Vec<_>, Vec<_>) =
                    in_flight.drain(..).partition(|p: &InFlightPoint| {
                        p.lower_bound.as_ref().is_some_and(|b| !frontier.would_admit(b))
                    });
                in_flight = alive.into();
                for point in doomed {
                    stats.points_shed_inflight += 1;
                    self.shed(point, stats);
                }
            }
        }
        Ok(frontier)
    }

    /// Waits a point's futures in seed order and scores the aggregate.
    fn harvest(&self, point: InFlightPoint, stats: &mut TuneStats) -> (Vec<f64>, PointEval) {
        let InFlightPoint { config, session, futures, .. } = point;
        let reports: Vec<ExecutionReport> =
            futures.into_iter().map(|f| f.wait().into_report().deterministic()).collect();
        stats.jobs_harvested += reports.len();
        drop(session);
        let complete_runs = reports.iter().filter(|r| r.complete).count();
        let cost = self.cost_model.cost(&PointSample { config: &config, reports: &reports });
        debug_assert!(cost.iter().all(|c| c.is_finite()), "cost models must emit finite costs");
        let fingerprint = config.fingerprint();
        (cost, PointEval { config, fingerprint, complete_runs, total_runs: reports.len() })
    }

    /// Cancels a dominated in-flight point and drains its lanes. The
    /// outcomes are discarded — they can only describe partial runs —
    /// but how many actually stopped at a cancellation checkpoint is
    /// counted (runs that finished before observing the token count as
    /// completed work, not cancellations).
    fn shed(&self, point: InFlightPoint, stats: &mut TuneStats) {
        stats.jobs_cancelled += point.futures.len();
        for future in &point.futures {
            future.cancel();
        }
        for future in point.futures {
            let outcome = future.wait();
            if outcome.failure().map(|f| f.reason) == Some(LayerFailureReason::Cancelled) {
                stats.cancellations_observed += 1;
            }
        }
        drop(point.session);
    }

    // ------------------------------------------------------------------
    // Successive-halving refinement
    // ------------------------------------------------------------------

    /// OneAdapt-style adaptive stage: re-evaluate the frontier members on
    /// growing seed sets, halving the pool by scalarized cost each rung.
    /// Returns the winner's knobs and the rung log.
    fn refine(
        &self,
        circuit: &Circuit,
        entries: &[FrontEntry<PointEval>],
        stats: &mut TuneStats,
    ) -> Result<(ConfigKnobs, Vec<RungSummary>), TuneError> {
        debug_assert!(!entries.is_empty(), "a non-empty lattice yields a non-empty frontier");
        let mut pool: Vec<usize> = (0..entries.len()).collect();
        let mut scores: Vec<Vec<f64>> = entries.iter().map(|e| e.cost.clone()).collect();
        let mut seeds = self.seeds.clone();
        let mut rungs = Vec::new();

        for rung in 1..=self.refine_rungs {
            if pool.len() <= 1 {
                break;
            }
            // Grow the seed set deterministically from the base seeds.
            let target = seeds.len().saturating_mul(self.refine_growth);
            while seeds.len() < target {
                seeds.push(self.derived_seed(rung, seeds.len()));
            }
            rungs.push(RungSummary { rung, seeds: seeds.len(), candidates: pool.len() });
            for &idx in &pool {
                let config = entries[idx].item.config;
                let session = self.session_for(config);
                let compiled = session.compile_cached(circuit)?;
                let reports: Vec<ExecutionReport> = seeds
                    .iter()
                    .map(|&seed| {
                        session
                            .submit(ExecutionRequest::new(Arc::clone(&compiled), seed))
                            .wait()
                            .into_report()
                            .deterministic()
                    })
                    .collect();
                stats.refinement_executions += reports.len();
                scores[idx] =
                    self.cost_model.cost(&PointSample { config: &config, reports: &reports });
            }
            let ranked = rank(&pool, &scores, entries);
            pool = ranked.into_iter().take(pool.len().div_ceil(2)).collect();
        }

        let winner = *rank(&pool, &scores, entries).first().expect("non-empty pool");
        Ok((ConfigKnobs::from(&entries[winner].item.config), rungs))
    }

    /// Deterministic rung seeds, tied to the base seed set so two tuners
    /// with the same settings grow identical sweeps.
    fn derived_seed(&self, rung: usize, index: usize) -> u64 {
        let mut h = StableHasher::new();
        h.write_tag(2);
        h.write_usize(rung);
        h.write_usize(index);
        h.write_usize(self.seeds.len());
        for &seed in &self.seeds {
            h.write_u64(seed);
        }
        h.finish()
    }
}

/// Ranks pool candidates by scalarized cost: each objective normalized by
/// the pool's maximum (so axes with different units weigh equally), then
/// summed; ties broken by configuration fingerprint. Deterministic.
fn rank(pool: &[usize], scores: &[Vec<f64>], entries: &[FrontEntry<PointEval>]) -> Vec<usize> {
    let axes = pool.iter().map(|&i| scores[i].len()).max().unwrap_or(0);
    let mut maxes = vec![0.0f64; axes];
    for &idx in pool {
        for (axis, &v) in scores[idx].iter().enumerate() {
            maxes[axis] = maxes[axis].max(v);
        }
    }
    let scalar = |idx: usize| -> f64 {
        scores[idx]
            .iter()
            .zip(&maxes)
            .map(|(&v, &m)| if m > 0.0 { v / m } else { 0.0 })
            .sum()
    };
    let mut ranked = pool.to_vec();
    ranked.sort_by(|&a, &b| {
        scalar(a)
            .total_cmp(&scalar(b))
            .then_with(|| entries[a].item.fingerprint.cmp(&entries[b].item.fingerprint))
    });
    ranked
}
