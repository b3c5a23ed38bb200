//! Long-lived compiler service sessions: warm lanes, a shared
//! renormalization worker pool, and batched multi-seed execution.
//!
//! A [`Session`] builds the online execution context — reshaping engines,
//! worker pool, scratch memory — **once** and multiplexes work through it:
//!
//! * Each of the session's **lanes** is a persistent worker thread owning a
//!   warm [`ReshapeEngine`]; between executions the engine is
//!   [`reset`](ReshapeEngine::reset) to the request's seed instead of being
//!   reconstructed, so the layer buffer and the renormalization scratch
//!   survive from one run to the next.
//! * With [`CompilerConfig::renorm_workers`] > 0 the session owns a single
//!   [`WorkerPool`] shared by every lane: each lane engine streams its
//!   layers through its own [`PoolClient`], and the pool multiplexes the
//!   interleaved jobs without ever mixing results between lanes.
//! * [`Session::execute_batch`] sweeps many seeds through the same compiled
//!   program — the bread-and-butter experiment shape of the paper's
//!   evaluation — and [`Session::submit`] exposes the underlying
//!   fire-and-collect job interface: every job, sync or
//!   [async](crate::service::AsyncSession), is a [`JobFuture`] its lane
//!   completes.
//!
//! Determinism is part of the API contract: for a fixed `(config, circuit,
//! seed)`, the report of a session execution is byte-identical (wall-clock
//! fields aside — compare with [`ExecutionReport::deterministic`]) to a
//! run on a fresh single-lane, in-thread session, whatever the lane count,
//! worker count, batch size or submission order.
//! `tests/session_determinism.rs` pins this.
//!
//! # Example
//!
//! ```
//! use oneperc::{CompilerConfig, Session};
//! use oneperc_circuit::benchmarks;
//!
//! let session = Session::new(CompilerConfig::for_qubits(4, 0.9, 1));
//! let compiled = session.compile(&benchmarks::qaoa(4, 1)).unwrap();
//! // Sweep three seeds through the warm lane.
//! let outcomes = session.execute_batch(&compiled, &[1, 2, 3]);
//! assert!(outcomes.iter().all(|o| o.is_complete()));
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::mpsc::{channel, Sender};
use crate::sync::thread::{self, JoinHandle};
use crate::sync::Arc;
use std::time::Instant;

use oneperc_circuit::Circuit;
use oneperc_percolation::{panic_message, CancelToken, ReshapeEngine, WorkerPool};

use crate::compiler::{
    reshape_config, run_offline_pass, run_online_pass, CompileError, CompiledProgram,
};
use crate::config::CompilerConfig;
use crate::memory::MemoryModel;
use crate::report::{CacheStats, ExecuteOutcome, ExecutionReport, LayerFailureReason};
use crate::service::async_session::AdmissionTicket;
use crate::service::cache::{program_key, CacheLookup, ProgramCache};
use crate::service::future::{JobFailure, JobFuture, JobResult, JobSlot};

/// One unit of work for a session: execute a compiled program with a seed.
///
/// The program travels as an [`Arc`] so a whole seed sweep shares one
/// allocation across lanes.
#[derive(Debug, Clone)]
pub struct ExecutionRequest {
    /// The compiled program to execute (must come from a configuration
    /// compatible with the session's, i.e. the same virtual hardware).
    pub compiled: Arc<CompiledProgram>,
    /// RNG seed of this execution's stochastic stream.
    pub seed: u64,
}

impl ExecutionRequest {
    /// Creates a request for one `(program, seed)` execution.
    pub fn new(compiled: Arc<CompiledProgram>, seed: u64) -> Self {
        ExecutionRequest { compiled, seed }
    }
}

/// Message from the session facade to a lane thread: one job and the slot
/// its [`JobFuture`] waits on.
///
/// Dropped unrun — the lane thread is gone, or the send failed — the
/// request completes its slot with [`JobFailure::TornDown`], so a pending
/// future panics instead of hanging.
struct LaneRequest {
    compiled: Arc<CompiledProgram>,
    seed: u64,
    /// The submitter's cancellation token, polled at layer checkpoints.
    cancel: CancelToken,
    /// Jobs in flight (this one included) when the job was admitted.
    queue_depth: u64,
    /// When the job was submitted, for the queue-wait stamp.
    submitted_at: Instant,
    /// The `(hit, stats)` stamp of the cache lookup that produced the
    /// program, for the circuit-accepting entry points.
    stamp: Option<(bool, CacheStats)>,
    /// The async front-end's admission slot, released on completion.
    ticket: Option<AdmissionTicket>,
    /// The future's completion slot; `None` once completed.
    slot: Option<Arc<JobSlot>>,
}

impl LaneRequest {
    /// Packs a job for a lane together with the future its completion
    /// resolves.
    fn new(
        request: ExecutionRequest,
        stamp: Option<(bool, CacheStats)>,
        ticket: Option<AdmissionTicket>,
        queue_depth: u64,
    ) -> (LaneRequest, JobFuture) {
        let slot = Arc::new(JobSlot::default());
        let cancel = CancelToken::new();
        let future = JobFuture::new(Arc::clone(&slot), request.seed, cancel.clone());
        let lane_request = LaneRequest {
            compiled: request.compiled,
            seed: request.seed,
            cancel,
            queue_depth,
            submitted_at: Instant::now(),
            stamp,
            ticket,
            slot: Some(slot),
        };
        (lane_request, future)
    }

    /// Delivers the job's result: stamps the cache lookup, releases the
    /// admission ticket, then wakes the future — release before wake, so a
    /// woken submitter never observes a stale full window.
    fn complete(&mut self, result: JobResult) {
        let result = match (result, self.stamp) {
            (Ok(outcome), Some((hit, stats))) => Ok(outcome.with_cache_stamp(hit, stats)),
            (result, _) => result,
        };
        drop(self.ticket.take());
        if let Some(slot) = self.slot.take() {
            slot.complete(result);
        }
    }
}

impl Drop for LaneRequest {
    fn drop(&mut self) {
        if self.slot.is_some() {
            self.complete(Err(JobFailure::TornDown));
        }
    }
}

/// Lifetime counters shared between the session facade and its lanes.
#[derive(Debug, Default)]
struct SessionCounters {
    /// Jobs whose completion has been delivered (panicked ones included).
    completed: AtomicU64,
    /// Jobs that stopped at a cancellation checkpoint.
    cancelled: AtomicU64,
}

/// One persistent execution lane: a worker thread owning a warm engine.
#[derive(Debug)]
struct Lane {
    /// `Option` so `Drop` can hang up before joining.
    request_tx: Option<Sender<LaneRequest>>,
    handle: Option<JoinHandle<()>>,
}

impl Lane {
    fn spawn(
        index: usize,
        config: CompilerConfig,
        memory_model: MemoryModel,
        pool: Option<Arc<WorkerPool>>,
        counters: Arc<SessionCounters>,
    ) -> Lane {
        let (request_tx, request_rx) = channel::<LaneRequest>();
        let handle = thread::Builder::new()
            .name(format!("oneperc-lane-{index}"))
            .spawn(move || {
                // The warm state of the lane: constructed once, reseeded
                // per request. With a shared pool the engine streams its
                // renormalization through the session-wide workers.
                let base = reshape_config(&config);
                let build_engine = || match &pool {
                    Some(pool) => ReshapeEngine::with_renorm_client(base, pool.client()),
                    None => ReshapeEngine::new(base),
                };
                let mut engine = build_engine();
                while let Ok(mut request) = request_rx.recv() {
                    let queue_wait = request.submitted_at.elapsed();
                    let run_config = config.with_seed(request.seed);
                    // A panicking execution must not take the lane (and
                    // with it every queued and future job on this lane)
                    // down: relay the panic to the one affected future and
                    // rebuild the engine — its post-panic state (in-flight
                    // pool jobs included) is not worth salvaging, a fresh
                    // engine with a fresh pool client is.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        engine.reset(request.seed);
                        run_online_pass(
                            &mut engine,
                            &request.compiled,
                            &run_config,
                            &memory_model,
                            Some(&request.cancel),
                        )
                    }));
                    let result = match outcome {
                        Ok(outcome) => {
                            if outcome.failure().map(|f| f.reason)
                                == Some(LayerFailureReason::Cancelled)
                            {
                                counters.cancelled.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(outcome.with_queue_telemetry(request.queue_depth, queue_wait))
                        }
                        Err(payload) => {
                            engine = build_engine();
                            Err(JobFailure::Panicked(panic_message(payload)))
                        }
                    };
                    counters.completed.fetch_add(1, Ordering::Relaxed);
                    request.complete(result);
                }
            })
            .expect("spawn session lane thread");
        Lane { request_tx: Some(request_tx), handle: Some(handle) }
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        self.request_tx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Configures a [`Session`] before its threads spawn.
#[derive(Debug, Clone)]
#[must_use]
pub struct SessionBuilder {
    config: CompilerConfig,
    lanes: usize,
    memory_model: MemoryModel,
    program_cache: usize,
    shared_cache: Option<Arc<ProgramCache>>,
}

/// Default capacity of a session's compiled-program cache. Programs are a
/// few MiB at the evaluation's sizes, and a service rarely keeps more than
/// a handful of distinct `(circuit, config)` pairs hot at once.
pub const DEFAULT_PROGRAM_CACHE_CAPACITY: usize = 16;

impl SessionBuilder {
    /// Number of persistent execution lanes (warm engines). More lanes run
    /// more batch jobs concurrently; results never depend on the count.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is zero.
    pub fn lanes(mut self, lanes: usize) -> Self {
        assert!(lanes > 0, "a session needs at least one lane");
        self.lanes = lanes;
        self
    }

    /// Overrides the classical-memory model used for the refresh-study
    /// memory estimate.
    pub fn memory_model(mut self, model: MemoryModel) -> Self {
        self.memory_model = model;
        self
    }

    /// Capacity of the content-addressed compiled-program cache serving
    /// [`Session::compile_cached`], [`Session::sweep`] and the async
    /// front-end (default [`DEFAULT_PROGRAM_CACHE_CAPACITY`]). `0` disables
    /// caching: every cached entry point compiles afresh.
    pub fn program_cache(mut self, capacity: usize) -> Self {
        self.program_cache = capacity;
        self
    }

    /// Shares an existing [`ProgramCache`] with this session instead of
    /// building a private one (overrides
    /// [`SessionBuilder::program_cache`]). Program keys are
    /// process-independent stable hashes of `(circuit structure, config
    /// fingerprint)`, so any number of sessions — sync and async alike —
    /// can serve from one cache: a circuit compiled by one tenant's
    /// session is a hit for every other, and concurrent misses of the
    /// same key single-flight across the whole fleet.
    pub fn shared_program_cache(mut self, cache: Arc<ProgramCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Spawns the session: the shared worker pool (when
    /// `config.renorm_workers > 0`) and one warm engine per lane.
    pub fn build(self) -> Session {
        let pool = if self.config.renorm_workers > 0 {
            Some(Arc::new(WorkerPool::new(self.config.renorm_workers)))
        } else {
            None
        };
        let counters = Arc::new(SessionCounters::default());
        let lanes = (0..self.lanes)
            .map(|index| {
                Lane::spawn(
                    index,
                    self.config,
                    self.memory_model,
                    pool.clone(),
                    Arc::clone(&counters),
                )
            })
            .collect();
        let cache = self
            .shared_cache
            .unwrap_or_else(|| Arc::new(ProgramCache::new(self.program_cache)));
        Session {
            config: self.config,
            memory_model: self.memory_model,
            cache,
            lanes,
            next_lane: AtomicUsize::new(0),
            jobs_submitted: AtomicU64::new(0),
            counters,
            pool,
        }
    }
}

/// A long-lived OnePerc compiler service session.
///
/// Owns the warm execution context — persistent lane threads with
/// reseedable [`ReshapeEngine`]s and (optionally) one shared
/// renormalization [`WorkerPool`] — and multiplexes compile/execute work
/// through it. See the [module docs](self) for the architecture and
/// determinism contract, and [`SessionBuilder`] for construction knobs.
///
/// Sessions are the primary entry point of the crate.
#[derive(Debug)]
pub struct Session {
    config: CompilerConfig,
    memory_model: MemoryModel,
    /// Content-addressed compiled-program cache behind the cached entry
    /// points ([`Session::compile_cached`], [`Session::sweep`], the async
    /// front-end). `Arc` so it can be
    /// [shared across sessions](SessionBuilder::shared_program_cache).
    cache: Arc<ProgramCache>,
    /// Declared before `pool`: lanes (and their pool clients) must wind
    /// down before the shared pool they submit to.
    lanes: Vec<Lane>,
    next_lane: AtomicUsize,
    jobs_submitted: AtomicU64,
    counters: Arc<SessionCounters>,
    pool: Option<Arc<WorkerPool>>,
}

impl Session {
    /// Builds a single-lane session for a configuration (see
    /// [`Session::builder`] for multi-lane setups).
    pub fn new(config: CompilerConfig) -> Self {
        Self::builder(config).build()
    }

    /// Starts configuring a session.
    pub fn builder(config: CompilerConfig) -> SessionBuilder {
        SessionBuilder {
            config,
            lanes: 1,
            memory_model: MemoryModel::default(),
            program_cache: DEFAULT_PROGRAM_CACHE_CAPACITY,
            shared_cache: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    /// The classical-memory model in use.
    pub fn memory_model(&self) -> &MemoryModel {
        &self.memory_model
    }

    /// Number of persistent execution lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Workers of the shared renormalization pool (`None` when
    /// `renorm_workers` is 0 and renormalization runs in-lane).
    pub fn renorm_pool_workers(&self) -> Option<usize> {
        self.pool.as_deref().map(WorkerPool::worker_count)
    }

    /// Jobs submitted over the session's lifetime.
    pub fn jobs_submitted(&self) -> u64 {
        self.jobs_submitted.load(Ordering::Relaxed)
    }

    /// Jobs whose completion has been delivered (cancelled and panicked
    /// ones included).
    pub fn jobs_completed(&self) -> u64 {
        self.counters.completed.load(Ordering::Relaxed)
    }

    /// Jobs that stopped at a cancellation checkpoint (dropped future or
    /// an explicit `cancel()`) instead of running to the end.
    pub fn jobs_cancelled(&self) -> u64 {
        self.counters.cancelled.load(Ordering::Relaxed)
    }

    /// Offline pass: circuit → program graph state → FlexLattice IR →
    /// instructions. The output can be executed any number of times, with
    /// any seeds, by this session (or any session with the same
    /// configuration).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Mapping`] when the program cannot be mapped
    /// onto the configured virtual hardware.
    pub fn compile(&self, circuit: &Circuit) -> Result<CompiledProgram, CompileError> {
        run_offline_pass(&self.config, circuit)
    }

    /// Enqueues one `(program, seed)` execution on the next lane
    /// (round-robin) and returns the [`JobFuture`] that resolves to its
    /// outcome — `.await` it, [`block_on`](crate::service::block_on) it or
    /// [`wait`](JobFuture::wait) on it. This is the fire-and-collect
    /// primitive under [`Session::execute`] and [`Session::execute_batch`];
    /// use it directly to overlap submission with other work or to
    /// interleave programs. Dropping the future cancels the job.
    pub fn submit(&self, request: ExecutionRequest) -> JobFuture {
        self.dispatch(request, None, None)
    }

    /// The next round-robin lane. The stored counter is kept in
    /// `[0, lanes)` by `fetch_update`, so wrapping `usize::MAX` cannot
    /// skew the rotation for non-power-of-two lane counts the way the old
    /// `fetch_add(1) % lanes` did (two consecutive jobs on one lane at
    /// the wrap point).
    fn next_lane_index(&self) -> usize {
        let lanes = self.lanes.len();
        let previous = self
            .next_lane
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n.wrapping_add(1) % lanes)
            })
            .expect("round-robin closure never declines");
        previous % lanes
    }

    /// The one dispatch path under every sync and async entry point:
    /// queues the job on the next lane with its optional cache stamp and
    /// admission ticket.
    pub(crate) fn dispatch(
        &self,
        request: ExecutionRequest,
        stamp: Option<(bool, CacheStats)>,
        ticket: Option<AdmissionTicket>,
    ) -> JobFuture {
        let lane_index = self.next_lane_index();
        let submitted = self.jobs_submitted.fetch_add(1, Ordering::Relaxed) + 1;
        // In-flight jobs including this one; `completed` can lag behind
        // other threads' deliveries, so clamp at 1 — a best-effort gauge,
        // not an accounting invariant.
        let queue_depth = submitted
            .saturating_sub(self.counters.completed.load(Ordering::Relaxed))
            .max(1);
        let (lane_request, future) = LaneRequest::new(request, stamp, ticket, queue_depth);
        self.lanes[lane_index]
            .request_tx
            .as_ref()
            .expect("session is live")
            .send(lane_request)
            .expect("session lane hung up");
        future
    }

    /// Online pass on the warm session: executes a compiled program with
    /// the given seed and returns the typed outcome.
    ///
    /// Byte-identical (wall-clock aside) to the same execution on a fresh
    /// single-lane session with `renorm_workers = 0`.
    ///
    /// This convenience clones the program into an [`Arc`] per call; when
    /// sweeping seeds one call at a time, hold the program in an `Arc`
    /// yourself and use [`Session::execute_shared`] (or
    /// [`Session::execute_batch`], which shares one clone across the whole
    /// sweep).
    pub fn execute(&self, compiled: &CompiledProgram, seed: u64) -> ExecuteOutcome {
        self.execute_shared(Arc::new(compiled.clone()), seed)
    }

    /// [`Session::execute`] without the per-call program clone.
    pub fn execute_shared(&self, compiled: Arc<CompiledProgram>, seed: u64) -> ExecuteOutcome {
        self.submit(ExecutionRequest::new(compiled, seed)).wait()
    }

    /// Executes a compiled program once with the session's configured seed.
    pub fn execute_report(&self, compiled: &CompiledProgram) -> ExecutionReport {
        self.execute(compiled, self.config.seed).into_report()
    }

    /// Runs a whole seed sweep through the warm lanes: one execution
    /// per seed, distributed round-robin over the lanes, outcomes returned
    /// in seed order. The compiled program is shared (one `Arc`) across
    /// the batch.
    ///
    /// Per seed, the outcome is byte-identical (wall-clock aside) to a
    /// sequential run — regardless of batch size, lane count, worker count
    /// or completion order.
    pub fn execute_batch(&self, compiled: &CompiledProgram, seeds: &[u64]) -> Vec<ExecuteOutcome> {
        self.execute_batch_shared(Arc::new(compiled.clone()), seeds)
    }

    /// [`Session::execute_batch`] without the upfront program clone.
    pub fn execute_batch_shared(
        &self,
        compiled: Arc<CompiledProgram>,
        seeds: &[u64],
    ) -> Vec<ExecuteOutcome> {
        self.execute_batch_stamped(compiled, seeds, None)
    }

    /// Submits one job per seed, then redeems them in seed order.
    fn execute_batch_stamped(
        &self,
        compiled: Arc<CompiledProgram>,
        seeds: &[u64],
        stamp: Option<(bool, CacheStats)>,
    ) -> Vec<ExecuteOutcome> {
        let futures: Vec<JobFuture> = seeds
            .iter()
            .map(|&seed| {
                self.dispatch(ExecutionRequest::new(Arc::clone(&compiled), seed), stamp, None)
            })
            .collect();
        futures.into_iter().map(JobFuture::wait).collect()
    }

    /// Offline pass through the session's content-addressed program cache:
    /// returns the cached artifact when this `(circuit, config)` pair — by
    /// [structural hash](oneperc_circuit::Circuit::structural_hash) and
    /// [fingerprint](CompilerConfig::fingerprint), seed excluded — was
    /// compiled before, and compiles (then retains, evicting LRU) on a
    /// miss. Concurrent lookups of the same key are single-flight: one
    /// compiles, the rest wait and share the result.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Mapping`] when the offline pass fails
    /// (nothing is retained).
    pub fn compile_cached(&self, circuit: &Circuit) -> Result<Arc<CompiledProgram>, CompileError> {
        Ok(self.compile_cached_lookup(circuit)?.program)
    }

    /// [`Session::compile_cached`] with the lookup's own telemetry: whether
    /// it hit, and the counter snapshot taken atomically as it resolved —
    /// the stamp [`Session::sweep`] puts on reports.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Mapping`] when the offline pass fails
    /// (nothing is retained).
    pub fn compile_cached_lookup(&self, circuit: &Circuit) -> Result<CacheLookup, CompileError> {
        let key = program_key(&self.config, circuit);
        self.cache.get_or_try_insert_with(key, || run_offline_pass(&self.config, circuit))
    }

    /// Counters of the compiled-program cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The compiled-program cache itself (capacity inspection, manual
    /// `clear`).
    pub fn program_cache(&self) -> &ProgramCache {
        &self.cache
    }

    /// A shareable handle to the compiled-program cache, for building
    /// further sessions over the same cache
    /// ([`SessionBuilder::shared_program_cache`]).
    pub fn program_cache_handle(&self) -> Arc<ProgramCache> {
        Arc::clone(&self.cache)
    }

    /// Compile-once-sweep-many in one call: resolves the circuit through
    /// the program cache ([`Session::compile_cached`]), runs one execution
    /// per seed through the warm lanes, and stamps every report with *this
    /// lookup's* counters ([`ExecutionReport::cache`](crate::ExecutionReport))
    /// and hit flag — the snapshot taken atomically as the lookup resolved,
    /// so concurrent tenants hammering the shared cache can't smear the
    /// numbers. Sweeping the same circuit again skips the offline pass
    /// entirely.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Mapping`] when the offline pass fails.
    pub fn sweep(
        &self,
        circuit: &Circuit,
        seeds: &[u64],
    ) -> Result<Vec<ExecuteOutcome>, CompileError> {
        let lookup = self.compile_cached_lookup(circuit)?;
        let stamp = Some((lookup.hit, lookup.stats));
        Ok(self.execute_batch_stamped(lookup.program, seeds, stamp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::async_session::Admission;
    use crate::service::block_on;
    use oneperc_circuit::benchmarks;

    fn small_config(p: f64, seed: u64) -> CompilerConfig {
        CompilerConfig::for_sensitivity(36, 3, p, seed)
    }

    #[test]
    fn session_executes_compiled_programs() {
        let session = Session::new(small_config(0.9, 2));
        let compiled = session.compile(&benchmarks::qaoa(4, 2)).unwrap();
        let outcome = session.execute(&compiled, 2);
        assert!(outcome.is_complete());
        let report = outcome.report();
        assert_eq!(report.logical_layers as usize, report.ir_layers);
        assert!(report.rsl_consumed > 0);
        assert_eq!(session.jobs_submitted(), 1);
    }

    #[test]
    fn warm_session_matches_one_shot_compiler() {
        let config = small_config(0.8, 7);
        let circuit = benchmarks::rca(4);
        let session = Session::new(config);
        let compiled = session.compile(&circuit).unwrap();
        for seed in [7u64, 8, 1_000_003] {
            let warm = session.execute(&compiled, seed).into_report().deterministic();
            // Cold reference: a fresh 1-lane, in-thread session per seed.
            let fresh = Session::new(config.with_seed(seed).with_renorm_workers(0));
            let cold = fresh
                .execute_report(&fresh.compile(&circuit).unwrap())
                .deterministic();
            assert_eq!(warm, cold, "seed {seed}");
        }
    }

    #[test]
    fn batch_outcomes_follow_seed_order() {
        let config = small_config(0.85, 1);
        let session = Session::builder(config).lanes(3).build();
        let compiled = session.compile(&benchmarks::qft(4)).unwrap();
        let seeds = [5u64, 6, 7, 8, 9, 10];
        let batch = session.execute_batch(&compiled, &seeds);
        assert_eq!(batch.len(), seeds.len());
        for (i, &seed) in seeds.iter().enumerate() {
            let solo = session.execute(&compiled, seed);
            assert_eq!(
                batch[i].report().deterministic(),
                solo.report().deterministic(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn submit_interleaves_programs_and_seeds() {
        let config = small_config(0.85, 3);
        let session = Session::builder(config).lanes(2).build();
        let qaoa = Arc::new(session.compile(&benchmarks::qaoa(4, 3)).unwrap());
        let qft = Arc::new(session.compile(&benchmarks::qft(4)).unwrap());
        let futures = vec![
            session.submit(ExecutionRequest::new(Arc::clone(&qaoa), 11)),
            session.submit(ExecutionRequest::new(Arc::clone(&qft), 12)),
            session.submit(ExecutionRequest::new(Arc::clone(&qaoa), 13)),
            session.submit(ExecutionRequest::new(Arc::clone(&qft), 11)),
        ];
        assert_eq!(futures[0].seed(), 11);
        let outcomes: Vec<ExecuteOutcome> = futures.into_iter().map(JobFuture::wait).collect();
        assert!(outcomes.iter().all(ExecuteOutcome::is_complete));
        // Same program, same seed, different submission slot → same report.
        assert_eq!(
            outcomes[0].report().deterministic(),
            session.execute(&qaoa, 11).report().deterministic()
        );
        assert_eq!(session.jobs_submitted(), 5);
        // A sync job is a plain future: redeeming it through an executor
        // gives the same report as parking on it.
        let awaited = block_on(session.submit(ExecutionRequest::new(Arc::clone(&qft), 12)));
        assert_eq!(awaited.report().deterministic(), outcomes[1].report().deterministic());
        assert_eq!(session.jobs_submitted(), 6);
    }

    #[test]
    fn request_dropped_unrun_resolves_with_teardown_panic() {
        // A request that never reaches a lane (the lane thread is gone)
        // must still complete its future — with the teardown panic, not a
        // hang — and give back its admission slot.
        let session = Session::new(small_config(0.85, 1));
        let compiled = Arc::new(session.compile(&benchmarks::qaoa(4, 2)).unwrap());
        let admission = Arc::new(Admission::new(1));
        assert!(admission.try_acquire());
        let ticket = AdmissionTicket(Arc::clone(&admission));
        let (request, future) =
            LaneRequest::new(ExecutionRequest::new(compiled, 3), None, Some(ticket), 1);
        assert!(!future.is_ready());
        drop(request);
        assert_eq!(admission.in_flight(), 0, "the dropped request released its ticket");
        assert!(future.is_ready(), "the dropped request completed its slot");
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| future.wait()))
            .expect_err("a torn-down job panics on redemption");
        assert!(panic_message(payload).contains("session torn down while a job was pending"));
    }

    #[test]
    fn session_surfaces_layer_failures() {
        // An impossible target (virtual side == RSL side at p far below
        // what that needs) must report a typed failure, not just a bool.
        let hw_config = CompilerConfig::for_sensitivity(12, 12, 0.7, 5);
        let session = Session::new(hw_config);
        let compiled = session.compile(&benchmarks::qaoa(4, 1)).unwrap();
        let outcome = session.execute(&compiled, 5);
        assert!(!outcome.is_complete());
        let failure = outcome.failure().expect("incomplete outcome carries a failure");
        assert_eq!(failure.layer_index, 0);
        assert!(failure.merged_layers > 0);
        assert!(!outcome.report().complete);
        assert!(outcome.into_result().is_err());
    }

    #[test]
    fn lane_survives_a_panicking_execution() {
        // A memory model whose per-site cost overflows the peak-bytes
        // multiply makes every execution panic inside the lane in debug
        // builds (it wraps in release, where this test degenerates to a
        // smoke check). The contract under test: the panic is relayed
        // through the affected job's future — and the lane thread
        // survives it, so later submissions on the same lane still get
        // answers instead of hanging or hitting a dead channel.
        let config = small_config(0.85, 1).with_renorm_workers(1);
        let session = Session::builder(config)
            .memory_model(MemoryModel::new(u64::MAX))
            .build();
        let compiled = session.compile(&benchmarks::qaoa(4, 2)).unwrap();
        for attempt in 0..3u64 {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                session.execute(&compiled, attempt)
            }));
            if cfg!(debug_assertions) {
                let payload =
                    result.expect_err("overflow must panic in debug builds");
                let message = panic_message(payload);
                assert!(
                    message.contains("session execution panicked"),
                    "attempt {attempt}: panic must be relayed through the future \
                     (lane alive), got: {message}"
                );
            } else {
                assert!(result.is_ok(), "attempt {attempt}");
            }
        }
        assert_eq!(session.jobs_submitted(), 3, "every attempt reached the lane");
    }

    #[test]
    fn round_robin_survives_index_wraparound() {
        // Regression (PR 7): `fetch_add(1) % lanes` assigns two
        // consecutive jobs to the same lane when the counter wraps with a
        // non-power-of-two lane count (…`usize::MAX % 3 == 0`, wrap,
        // `0 % 3 == 0`). The fetch_update rotation keeps the stored index
        // inside `[0, lanes)`, so the cycle stays clean through the wrap.
        let session = Session::builder(small_config(0.85, 1)).lanes(3).build();
        session.next_lane.store(usize::MAX, Ordering::Relaxed);
        let at_wrap = session.next_lane_index();
        assert!(at_wrap < 3);
        let after: Vec<usize> = (0..6).map(|_| session.next_lane_index()).collect();
        assert_eq!(after, vec![0, 1, 2, 0, 1, 2], "rotation is uniform across the wrap");
    }

    #[test]
    fn sessions_share_a_program_cache() {
        let config = small_config(0.85, 4);
        let circuit = benchmarks::qaoa(4, 2);
        let first = Session::new(config);
        let warmup = first.compile_cached_lookup(&circuit).unwrap();
        assert!(!warmup.hit);

        // A second session over the same cache hits immediately and shares
        // the very allocation the first session compiled.
        let second = Session::builder(config)
            .shared_program_cache(first.program_cache_handle())
            .build();
        let shared = second.compile_cached_lookup(&circuit).unwrap();
        assert!(shared.hit, "cross-session lookup is a hit");
        assert!(Arc::ptr_eq(&warmup.program, &shared.program));
        assert_eq!(second.cache_stats(), first.cache_stats());
        assert_eq!(shared.stats.hits, 1);
        assert_eq!(shared.stats.misses, 1);
    }

    #[test]
    fn explicit_cancel_stops_a_submitted_job() {
        let session = Session::new(small_config(0.85, 2));
        let compiled = Arc::new(session.compile(&benchmarks::qaoa(4, 2)).unwrap());
        let future = session.submit(ExecutionRequest::new(Arc::clone(&compiled), 3));
        // Cancel before waiting: depending on timing the lane either
        // observed the flag at a checkpoint (Cancelled outcome) or had
        // already finished (complete outcome) — both are legal; what is
        // pinned is that `wait` returns and the lane stays serviceable.
        future.cancel();
        let outcome = future.wait();
        if let Some(failure) = outcome.failure() {
            assert_eq!(failure.reason, LayerFailureReason::Cancelled);
            assert_eq!(session.jobs_cancelled(), 1);
        }
        // The lane keeps serving, and an untouched token never perturbs a
        // run.
        let fresh = session.execute_shared(compiled, 3);
        assert!(fresh.is_complete());
        assert_eq!(session.jobs_completed(), 2);
    }

    #[test]
    fn reports_carry_queue_telemetry() {
        let session = Session::new(small_config(0.85, 5));
        let compiled = session.compile(&benchmarks::qaoa(4, 2)).unwrap();
        let outcome = session.execute(&compiled, 5);
        let service = outcome.report().service;
        assert!(service.queue_depth >= 1, "an admitted job counts itself");
        assert!(!service.cache_hit, "explicit-program path never consults the cache");
        // And the deterministic view clears the stamp.
        assert_eq!(
            outcome.report().deterministic().service,
            crate::report::ServiceTelemetry::default()
        );
    }

    #[test]
    fn renorm_pool_is_shared_and_sized_by_config() {
        let session = Session::builder(small_config(0.85, 1).with_renorm_workers(2))
            .lanes(2)
            .build();
        assert_eq!(session.renorm_pool_workers(), Some(2));
        let compiled = session.compile(&benchmarks::qaoa(4, 2)).unwrap();
        let pooled = session.execute_batch(&compiled, &[3, 4]);
        let inline = Session::new(small_config(0.85, 1)).execute_batch(&compiled, &[3, 4]);
        for (a, b) in pooled.iter().zip(&inline) {
            assert_eq!(a.report().deterministic(), b.report().deterministic());
        }
    }
}
