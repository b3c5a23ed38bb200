//! Long-lived compiler service sessions: warm lanes, a shared
//! renormalization worker pool, an optional admission window, and
//! multi-seed execution.
//!
//! A [`Session`] builds the online execution context — reshaping engines,
//! worker pool, scratch memory — **once** and multiplexes work through it:
//!
//! * Each of the session's **lanes** is a persistent worker thread owning a
//!   warm [`ReshapeEngine`]; between executions the engine is
//!   [`reset`](ReshapeEngine::reset) to the request's seed instead of being
//!   reconstructed, so the generation plan and the job scratch survive
//!   from one run to the next.
//! * With [`CompilerConfig::renorm_workers`] > 0 the session owns a single
//!   [`WorkerPool`] shared by every lane: each lane engine streams its
//!   layer jobs through its own [`PoolClient`] (and runs queued jobs while
//!   it waits), and the pool multiplexes the interleaved jobs without ever
//!   mixing results between lanes.
//! * Every job is a [`JobFuture`] its lane completes. [`Session::sweep`]
//!   runs many seeds through the same circuit — the bread-and-butter
//!   experiment shape of the paper's evaluation — compiling it once
//!   through the content-addressed program cache, and [`Session::submit`]
//!   queues one `(program, seed)` execution.
//! * [`SessionBuilder::queue_depth`] bounds the jobs admitted and not yet
//!   complete (unbounded by default). On a bounded session `submit` parks
//!   for a slot, [`Session::try_submit`] refuses with
//!   [`SubmitError::Busy`] and [`Session::submit_async`] waits for a slot
//!   without parking the executor thread.
//!
//! Determinism is part of the API contract: for a fixed `(config, circuit,
//! seed)`, the report of a session execution is byte-identical (wall-clock
//! fields aside — compare with
//! [`ExecutionReport::deterministic`](crate::ExecutionReport::deterministic)) to a
//! run on a fresh single-lane, in-thread session, whatever the lane count,
//! worker count, admission depth, sweep width or submission order.
//! `tests/session_determinism.rs` pins this.
//!
//! # Example
//!
//! ```
//! use oneperc::{CompilerConfig, Session};
//! use oneperc_circuit::benchmarks;
//!
//! let session = Session::new(CompilerConfig::for_qubits(4, 0.9, 1));
//! // Sweep three seeds through the warm lane: one compile, three jobs.
//! let futures = session.sweep(&benchmarks::qaoa(4, 1), &[1, 2, 3]).unwrap();
//! assert!(futures.into_iter().all(|job| job.wait().is_complete()));
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::mpsc::{channel, Sender};
use crate::sync::thread::{self, JoinHandle};
use crate::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

use oneperc_circuit::Circuit;
use oneperc_percolation::{panic_message, CancelToken, ReshapeEngine, WorkerPool};

use crate::compiler::{
    reshape_config, run_offline_pass, run_online_pass, CompileError, CompiledProgram,
};
use crate::config::CompilerConfig;
use crate::memory::MemoryModel;
use crate::report::{CacheStats, ExecuteOutcome, LayerFailureReason};
use crate::service::async_session::{Admission, AdmissionFuture, AdmissionTicket};
use crate::service::cache::{program_key, CacheLookup, ProgramCache};
use crate::service::future::{JobFailure, JobFuture, JobResult, JobSlot, SubmitError};

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
    /// The admission slot of a bounded session, released on completion.
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
    /// Spawns lane `index`. `checked` is the session's one
    /// [`CompilerConfig::check`] of `config`: a lane of a configuration
    /// that breaks a rule builds no engine (it could not: the engine's
    /// constructors assert the same rules) and completes every job with
    /// [`JobFailure::InvalidConfig`], staying alive to answer the next.
    fn spawn(
        index: usize,
        config: CompilerConfig,
        checked: Result<(), &'static str>,
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
                // layer jobs through the session-wide workers.
                let build_engine = || {
                    let base = reshape_config(&config);
                    match &pool {
                        Some(pool) => ReshapeEngine::with_renorm_client(base, pool.client()),
                        None => ReshapeEngine::new(base),
                    }
                };
                let mut engine = checked.map(|()| build_engine());
                while let Ok(mut request) = request_rx.recv() {
                    let result = match &mut engine {
                        Ok(engine) => run_on_lane(engine, &request, &config, &memory_model)
                            .map_err(|message| {
                                // A panicking execution must not take the
                                // lane (and with it every queued and future
                                // job on this lane) down: the panic goes to
                                // the one affected future, and a fresh
                                // engine with a fresh pool client replaces
                                // the post-panic one.
                                *engine = build_engine();
                                JobFailure::Panicked(message)
                            }),
                        Err(rule) => Err(JobFailure::InvalidConfig(rule)),
                    };
                    if let Ok(outcome) = &result {
                        if outcome.failure().map(|f| f.reason)
                            == Some(LayerFailureReason::Cancelled)
                        {
                            counters.cancelled.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    counters.completed.fetch_add(1, Ordering::Relaxed);
                    request.complete(result);
                }
            })
            .expect("spawn session lane thread");
        Lane { request_tx: Some(request_tx), handle: Some(handle) }
    }
}

/// Runs one request on a lane's warm engine, returning the outcome stamped
/// with its queue telemetry, or the panic message of an execution that
/// panicked.
fn run_on_lane(
    engine: &mut ReshapeEngine,
    request: &LaneRequest,
    config: &CompilerConfig,
    memory_model: &MemoryModel,
) -> Result<ExecuteOutcome, String> {
    let queue_wait = request.submitted_at.elapsed();
    let run_config = config.with_seed(request.seed);
    catch_unwind(AssertUnwindSafe(|| {
        engine.reset(request.seed);
        let cancel = Some(&request.cancel);
        run_online_pass(engine, &request.compiled, &run_config, memory_model, cancel)
    }))
    .map(|outcome| outcome.with_queue_telemetry(request.queue_depth, queue_wait))
    .map_err(panic_message)
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
    queue_depth: Option<usize>,
}

/// Default capacity of a session's compiled-program cache. Programs are a
/// few MiB at the evaluation's sizes, and a service rarely keeps more than
/// a handful of distinct `(circuit, config)` pairs hot at once.
pub const DEFAULT_PROGRAM_CACHE_CAPACITY: usize = 16;

impl SessionBuilder {
    /// Number of persistent execution lanes (warm engines). More lanes run
    /// more jobs concurrently; results never depend on the count.
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
    /// [`Session::compile_cached`], [`Session::submit_circuit`] and
    /// [`Session::sweep`] (default [`DEFAULT_PROGRAM_CACHE_CAPACITY`]). `0`
    /// disables caching: every cached entry point compiles afresh.
    pub fn program_cache(mut self, capacity: usize) -> Self {
        self.program_cache = capacity;
        self
    }

    /// Shares an existing [`ProgramCache`] with this session instead of
    /// building a private one (overrides
    /// [`SessionBuilder::program_cache`]). Program keys are
    /// process-independent stable hashes of `(circuit structure, config
    /// fingerprint)`, so any number of sessions can serve from one cache:
    /// a circuit compiled by one tenant's session is a hit for every
    /// other, and concurrent misses of the same key single-flight across
    /// the whole fleet.
    pub fn shared_program_cache(mut self, cache: Arc<ProgramCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Bounds the executions admitted and not yet complete (default:
    /// unbounded). With `depth` jobs in flight, [`Session::submit`] parks
    /// until one completes, [`Session::try_submit`] answers
    /// [`SubmitError::Busy`] and [`Session::submit_async`] waits without
    /// parking. A slot is released by the job's completion, not by
    /// redeeming its future, so an abandoned future never wedges the
    /// window.
    ///
    /// # Panics
    ///
    /// Panics when `depth` is zero.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "admission window needs at least one slot");
        self.queue_depth = Some(depth);
        self
    }

    /// Spawns the session: the shared worker pool (when
    /// `config.renorm_workers > 0`) and one warm engine per lane.
    ///
    /// The configuration is checked here, once. A session on a
    /// configuration that [`CompilerConfig::check`] rejects is still
    /// built, but it spawns no pool and its lanes no engine: `compile`
    /// answers [`CompileError::InvalidConfig`], and every job completes
    /// with the broken rule, so its future panics with
    /// `invalid configuration: …` while the lane keeps serving.
    pub fn build(self) -> Session {
        let checked = self.config.check();
        let workers = self.config.renorm_workers;
        let pool =
            (checked.is_ok() && workers > 0).then(|| Arc::new(WorkerPool::new(workers)));
        let counters = Arc::new(SessionCounters::default());
        let lanes = (0..self.lanes)
            .map(|index| {
                Lane::spawn(
                    index,
                    self.config,
                    checked,
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
            admission: self.queue_depth.map(|depth| Arc::new(Admission::new(depth))),
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
/// reseedable [`ReshapeEngine`]s, (optionally) one shared renormalization
/// [`WorkerPool`] and (optionally) a bounded admission window — and
/// multiplexes compile/execute work through it. See the
/// [crate docs](crate) for the architecture and determinism contract, and
/// [`SessionBuilder`] for construction knobs.
///
/// Sessions are the primary entry point of the crate. They compile or run
/// a job in eight ways:
///
/// | Entry point | Input | Returns |
/// |---|---|---|
/// | [`compile`](Session::compile) | circuit | [`CompiledProgram`] |
/// | [`compile_cached`](Session::compile_cached) | circuit | [`CacheLookup`] |
/// | [`submit`](Session::submit) | program, seed | [`JobFuture`], parking for admission |
/// | [`try_submit`](Session::try_submit) | program, seed | [`JobFuture`] or [`SubmitError::Busy`] |
/// | [`submit_async`](Session::submit_async) | program, seed | [`AdmissionFuture`] |
/// | [`submit_circuit`](Session::submit_circuit) | circuit, seed | [`JobFuture`], report stamped with the lookup |
/// | [`sweep`](Session::sweep) | circuit, seeds | one [`JobFuture`] per seed, one lookup |
/// | [`execute_shared`](Session::execute_shared) | program, seed | [`ExecuteOutcome`] (`submit(..).wait()`) |
#[derive(Debug)]
pub struct Session {
    config: CompilerConfig,
    memory_model: MemoryModel,
    /// Content-addressed compiled-program cache behind the cached entry
    /// points. `Arc` so it can be
    /// [shared across sessions](SessionBuilder::shared_program_cache).
    cache: Arc<ProgramCache>,
    /// The admission window of [`SessionBuilder::queue_depth`]; `None`
    /// admits every job at once.
    admission: Option<Arc<Admission>>,
    /// Declared before `pool`: lanes (and their pool clients) must wind
    /// down before the shared pool they submit to.
    lanes: Vec<Lane>,
    next_lane: AtomicUsize,
    jobs_submitted: AtomicU64,
    counters: Arc<SessionCounters>,
    pool: Option<Arc<WorkerPool>>,
}

impl Session {
    /// Builds a single-lane, unbounded session for a configuration (see
    /// [`Session::builder`] for the knobs).
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
            queue_depth: None,
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

    /// Capacity of the admission window ([`SessionBuilder::queue_depth`];
    /// `None` when unbounded).
    pub fn queue_depth(&self) -> Option<usize> {
        self.admission.as_deref().map(Admission::capacity)
    }

    /// Jobs submitted whose completion has not been delivered yet: a
    /// gauge, read from the two lifetime counters below.
    pub fn in_flight(&self) -> u64 {
        self.jobs_submitted().saturating_sub(self.jobs_completed())
    }

    /// Jobs submitted over the session's lifetime.
    pub fn jobs_submitted(&self) -> u64 {
        self.jobs_submitted.load(Ordering::Relaxed)
    }

    /// Jobs whose completion has been delivered (cancelled, panicked and
    /// invalid-configuration ones included).
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
    /// Returns [`CompileError::InvalidConfig`] when the session's
    /// configuration breaks a rule of [`CompilerConfig::check`], and
    /// [`CompileError::Mapping`] when the program cannot be mapped onto the
    /// configured virtual hardware.
    pub fn compile(&self, circuit: &Circuit) -> Result<CompiledProgram, CompileError> {
        run_offline_pass(&self.config, circuit)
    }

    /// Offline pass through the session's content-addressed program cache:
    /// returns the cached artifact when this `(circuit, config)` pair — by
    /// [structural hash](oneperc_circuit::Circuit::structural_hash) and
    /// [fingerprint](CompilerConfig::fingerprint), seed excluded — was
    /// compiled before, and compiles (then retains, evicting LRU) on a
    /// miss. Concurrent lookups of the same key are single-flight: one
    /// compiles, the rest wait and share the result.
    ///
    /// The [`CacheLookup`] also says whether it hit, with the counter
    /// snapshot taken atomically as it resolved — the stamp
    /// [`Session::submit_circuit`] and [`Session::sweep`] put on reports.
    ///
    /// # Errors
    ///
    /// Returns the offline pass's error, [`CompileError::InvalidConfig`]
    /// or [`CompileError::Mapping`] (nothing is retained).
    pub fn compile_cached(&self, circuit: &Circuit) -> Result<CacheLookup, CompileError> {
        let key = program_key(&self.config, circuit);
        self.cache.get_or_try_insert_with(key, || run_offline_pass(&self.config, circuit))
    }

    /// Queues one `(program, seed)` execution on the next lane
    /// (round-robin) and returns the [`JobFuture`] that resolves to its
    /// outcome — `.await` it, [`block_on`](crate::service::block_on) it or
    /// [`wait`](JobFuture::wait) on it. On a bounded session it first parks
    /// until the admission window has a slot; under an executor prefer
    /// [`Session::submit_async`]. Dropping the future cancels the job.
    pub fn submit(&self, request: ExecutionRequest) -> JobFuture {
        self.acquire();
        self.dispatch(request, None)
    }

    /// [`Session::submit`] that never parks: on a bounded session with a
    /// full window it refuses at once — the signal an RPC layer turns into
    /// load-shedding. An unbounded session admits every job.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Busy`] when the admission window is full.
    pub fn try_submit(&self, request: ExecutionRequest) -> Result<JobFuture, SubmitError> {
        if let Some(admission) = &self.admission {
            if !admission.try_acquire() {
                return Err(SubmitError::Busy { capacity: admission.capacity() });
            }
        }
        Ok(self.dispatch(request, None))
    }

    /// Fully async admission: the returned [`AdmissionFuture`] resolves to
    /// the job's [`JobFuture`] once the window has a slot, registering a
    /// waker instead of parking — an executor thread driving many tenants
    /// never blocks inside a submission. Typical shape:
    /// `session.submit_async(request).await.await`.
    pub fn submit_async(&self, request: ExecutionRequest) -> AdmissionFuture<'_> {
        AdmissionFuture::new(self, request)
    }

    /// [`Session::submit`] from a circuit: resolves the program through the
    /// content-addressed cache (compiling only on a miss), then admits the
    /// `(program, seed)` execution. The report carries the lookup's own
    /// hit flag and counter snapshot.
    ///
    /// # Errors
    ///
    /// Returns the offline pass's error (nothing is admitted).
    pub fn submit_circuit(&self, circuit: &Circuit, seed: u64) -> Result<JobFuture, CompileError> {
        let lookup = self.compile_cached(circuit)?;
        self.acquire();
        let stamp = Some((lookup.hit, lookup.stats));
        Ok(self.dispatch(ExecutionRequest::new(lookup.program, seed), stamp))
    }

    /// Compile-once-sweep-many: one cache lookup, then one admitted
    /// execution per seed, all submitted before this returns (parking
    /// whenever a bounded window is full: lanes drain it while submission
    /// refills it). The futures come back in seed order, and every report
    /// carries this lookup's hit flag and counter snapshot — taken
    /// atomically as the lookup resolved, so concurrent tenants hammering
    /// a shared cache cannot smear the numbers. Sweeping the same circuit
    /// again skips the offline pass entirely.
    ///
    /// # Errors
    ///
    /// Returns the offline pass's error (nothing is admitted).
    pub fn sweep(&self, circuit: &Circuit, seeds: &[u64]) -> Result<Vec<JobFuture>, CompileError> {
        let lookup = self.compile_cached(circuit)?;
        let stamp = Some((lookup.hit, lookup.stats));
        Ok(seeds
            .iter()
            .map(|&seed| {
                self.acquire();
                self.dispatch(ExecutionRequest::new(Arc::clone(&lookup.program), seed), stamp)
            })
            .collect())
    }

    /// Runs one execution to its outcome: `submit(..).wait()`.
    ///
    /// Byte-identical (wall-clock aside) to the same execution on a fresh
    /// single-lane session with `renorm_workers = 0`.
    pub fn execute_shared(&self, compiled: Arc<CompiledProgram>, seed: u64) -> ExecuteOutcome {
        self.submit(ExecutionRequest::new(compiled, seed)).wait()
    }

    /// This session. `AsyncSession` used to wrap a `Session` and hand it
    /// out here; the method stays, with the [`AsyncSession`] alias, for
    /// the callers of that shape.
    ///
    /// [`AsyncSession`]: crate::AsyncSession
    #[deprecated(note = "call the methods on the `Session` itself; this goes away with the \
                         `AsyncSession` alias, in the benchmark change that moves \
                         `perfbench/src/fleet.rs` onto `Session`")]
    pub fn session(&self) -> &Session {
        self
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

    /// Parks until the admission window has a slot and claims it; a no-op
    /// on an unbounded session.
    fn acquire(&self) {
        if let Some(admission) = &self.admission {
            admission.acquire();
        }
    }

    /// [`Session::acquire`] for [`AdmissionFuture`]: claims a slot if one
    /// is free, otherwise registers `cx`'s waker for the next release.
    pub(crate) fn poll_acquire(&self, cx: &mut Context<'_>) -> Poll<()> {
        match &self.admission {
            Some(admission) => admission.poll_acquire(cx),
            None => Poll::Ready(()),
        }
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

    /// The one dispatch path under every entry point: queues an admitted
    /// job on the next lane with its optional cache stamp. On a bounded
    /// session the caller has claimed the job's slot; the ticket made here
    /// gives it back when the job completes.
    pub(crate) fn dispatch(
        &self,
        request: ExecutionRequest,
        stamp: Option<(bool, CacheStats)>,
    ) -> JobFuture {
        let ticket = self.admission.as_ref().map(|window| AdmissionTicket(Arc::clone(window)));
        let lane_index = self.next_lane_index();
        let submitted = self.jobs_submitted.fetch_add(1, Ordering::Relaxed) + 1;
        // In-flight jobs including this one; `completed` can lag behind
        // other threads' deliveries, so clamp at 1 — a best-effort gauge,
        // not an accounting invariant.
        let queue_depth = submitted.saturating_sub(self.jobs_completed()).max(1);
        let (lane_request, future) = LaneRequest::new(request, stamp, ticket, queue_depth);
        self.lanes[lane_index]
            .request_tx
            .as_ref()
            .expect("session is live")
            .send(lane_request)
            .expect("session lane hung up");
        future
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::block_on;
    use oneperc_circuit::benchmarks;

    fn small_config(p: f64, seed: u64) -> CompilerConfig {
        CompilerConfig::for_sensitivity(36, 3, p, seed)
    }

    fn compile(session: &Session, circuit: &Circuit) -> Arc<CompiledProgram> {
        Arc::new(session.compile(circuit).unwrap())
    }

    #[test]
    fn session_executes_compiled_programs() {
        let session = Session::new(small_config(0.9, 2));
        let compiled = compile(&session, &benchmarks::qaoa(4, 2));
        let outcome = session.execute_shared(compiled, 2);
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
        let compiled = compile(&session, &circuit);
        for seed in [7u64, 8, 1_000_003] {
            let warm = session
                .execute_shared(Arc::clone(&compiled), seed)
                .into_report()
                .deterministic();
            // Cold reference: a fresh 1-lane, in-thread session per seed.
            let fresh = Session::new(config.with_seed(seed).with_renorm_workers(0));
            let cold = fresh
                .execute_shared(compile(&fresh, &circuit), seed)
                .into_report()
                .deterministic();
            assert_eq!(warm, cold, "seed {seed}");
        }
    }

    #[test]
    fn batch_outcomes_follow_seed_order() {
        let config = small_config(0.85, 1);
        let session = Session::builder(config).lanes(3).build();
        let circuit = benchmarks::qft(4);
        let seeds = [5u64, 6, 7, 8, 9, 10];
        let batch: Vec<ExecuteOutcome> =
            session.sweep(&circuit, &seeds).unwrap().into_iter().map(JobFuture::wait).collect();
        assert_eq!(batch.len(), seeds.len());
        let compiled = session.compile_cached(&circuit).unwrap().program;
        for (i, &seed) in seeds.iter().enumerate() {
            let solo = session.execute_shared(Arc::clone(&compiled), seed);
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
        let qaoa = compile(&session, &benchmarks::qaoa(4, 3));
        let qft = compile(&session, &benchmarks::qft(4));
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
            session.execute_shared(Arc::clone(&qaoa), 11).report().deterministic()
        );
        assert_eq!(session.jobs_submitted(), 5);
        // A job is a plain future: redeeming it through an executor gives
        // the same report as parking on it.
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
        let compiled = compile(&session, &benchmarks::qaoa(4, 2));
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
        let compiled = compile(&session, &benchmarks::qaoa(4, 1));
        let outcome = session.execute_shared(compiled, 5);
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
        let compiled = compile(&session, &benchmarks::qaoa(4, 2));
        for attempt in 0..3u64 {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                session.execute_shared(Arc::clone(&compiled), attempt)
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
        let warmup = first.compile_cached(&circuit).unwrap();
        assert!(!warmup.hit);

        // A second session over the same cache hits immediately and shares
        // the very allocation the first session compiled.
        let second = Session::builder(config)
            .shared_program_cache(first.program_cache_handle())
            .build();
        let shared = second.compile_cached(&circuit).unwrap();
        assert!(shared.hit, "cross-session lookup is a hit");
        assert!(Arc::ptr_eq(&warmup.program, &shared.program));
        assert_eq!(second.cache_stats(), first.cache_stats());
        assert_eq!(shared.stats.hits, 1);
        assert_eq!(shared.stats.misses, 1);
    }

    #[test]
    fn explicit_cancel_stops_a_submitted_job() {
        let session = Session::new(small_config(0.85, 2));
        let compiled = compile(&session, &benchmarks::qaoa(4, 2));
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
        let compiled = compile(&session, &benchmarks::qaoa(4, 2));
        let outcome = session.execute_shared(compiled, 5);
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
        let compiled = compile(&session, &benchmarks::qaoa(4, 2));
        let inline = Session::new(small_config(0.85, 1));
        let run = |session: &Session| -> Vec<JobFuture> {
            [3, 4]
                .iter()
                .map(|&seed| session.submit(ExecutionRequest::new(Arc::clone(&compiled), seed)))
                .collect()
        };
        for (a, b) in run(&session).into_iter().zip(run(&inline)) {
            assert_eq!(a.wait().report().deterministic(), b.wait().report().deterministic());
        }
    }

    /// Configurations that break a rule of [`CompilerConfig::check`]
    /// through a public field, after the constructors have checked them.
    fn invalid_configs() -> [CompilerConfig; 2] {
        let mut tiny_states = small_config(0.9, 1);
        tiny_states.hardware.resource_state_size = 2;
        let mut oversized = small_config(0.9, 1);
        oversized.virtual_side = oversized.hardware.rsl_size + 1;
        [tiny_states, oversized]
    }

    #[test]
    fn invalid_configs_are_refused_before_compiling() {
        let circuit = benchmarks::qaoa(4, 2);
        for config in invalid_configs() {
            let session = Session::new(config);
            assert!(matches!(session.compile(&circuit), Err(CompileError::InvalidConfig(_))));
            assert!(matches!(
                session.compile_cached(&circuit),
                Err(CompileError::InvalidConfig(_))
            ));
            assert!(session.program_cache().is_empty(), "nothing is cached");
        }
    }

    #[test]
    fn invalid_config_jobs_fail_without_killing_the_lane() {
        // A program compiled under a valid configuration, run on sessions
        // whose configuration no engine can be built for: each job fails
        // with the broken rule, and the lane answers the next one too.
        let compiled = compile(&Session::new(small_config(0.9, 1)), &benchmarks::qaoa(4, 2));
        for config in invalid_configs() {
            let rule = config.check().expect_err("the configuration breaks a rule");
            let session = Session::builder(config.with_renorm_workers(1)).build();
            assert_eq!(session.renorm_pool_workers(), None, "no pool is spawned");
            for attempt in 1..=2u64 {
                let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    session.execute_shared(Arc::clone(&compiled), attempt)
                }))
                .expect_err("a job on an invalid configuration fails");
                assert_eq!(panic_message(payload), format!("invalid configuration: {rule}"));
                assert_eq!(session.jobs_completed(), attempt, "the lane completed the job");
            }
        }
    }
}
