//! [`AsyncSession`]: the runtime-agnostic async front-end over a warm
//! [`Session`].
//!
//! The synchronous [`Session::submit`] accepts every job, so lane queues
//! grow without bound. An embedding RPC server needs non-blocking
//! admission with explicit backpressure on top of the same
//! [`JobFuture`] completion. `AsyncSession` provides it:
//!
//! * **Bounded admission.** At most `queue_depth` executions may be
//!   admitted-and-incomplete at once. [`AsyncSession::try_submit`] refuses
//!   with [`SubmitError::Busy`] when the window is full — the signal an RPC
//!   layer turns into load-shedding — while [`AsyncSession::submit`] parks
//!   until a slot frees and [`AsyncSession::submit_async`] returns an
//!   [`AdmissionFuture`] that *waits for the slot without parking*, so an
//!   executor thread multiplexing many tenants never blocks inside a
//!   submission. Admission is released by job *completion*, not by future
//!   redemption, so an abandoned future never wedges the window.
//! * **Futures, no runtime.** [`JobFuture`] — the one job handle of the
//!   session tier — is a plain `std::future::Future` wired through
//!   hand-rolled `Waker` plumbing: the lane thread completes a shared slot
//!   and wakes the registered waker. It works under any executor, under
//!   the built-in [`block_on`](super::block_on), or via the synchronous
//!   [`JobFuture::wait`].
//! * **Cancellation.** Every admitted job carries a
//!   [`CancelToken`](oneperc_percolation::CancelToken) polled by the lane
//!   at its layer checkpoints. **Dropping a [`JobFuture`] cancels its
//!   job** — the overload story: an RPC disconnect drops the future and
//!   the lane sheds the remaining layers instead of finishing work nobody
//!   will read. [`JobFuture::cancel`] sheds explicitly while keeping the
//!   future; the partial outcome reports
//!   [`LayerFailureReason::Cancelled`](crate::LayerFailureReason::Cancelled).
//! * **Content-addressed compilation.** The circuit-accepting entry points
//!   ([`AsyncSession::submit_circuit`], [`AsyncSession::sweep`]) resolve
//!   programs through the underlying session's
//!   [`ProgramCache`](super::ProgramCache) — shareable across a whole
//!   fleet via [`AsyncSessionBuilder::shared_program_cache`] — so a
//!   multi-seed sweep compiles exactly once and every report carries the
//!   lookup's own hit flag and counter snapshot, plus the scheduler's
//!   queue-depth / queue-wait stamp
//!   ([`ExecutionReport::service`](crate::ExecutionReport::service)).
//!
//! Determinism is unchanged by the front-end: per `(config, circuit,
//! seed)` an async execution's report is byte-identical (wall-clock and
//! cache/service telemetry aside — compare with
//! [`ExecutionReport::deterministic`](crate::ExecutionReport::deterministic))
//! to the synchronous [`Session::execute_batch`] path, whatever the
//! admission capacity or poll order. Cancellation never perturbs runs that
//! complete: the token is only ever *read* at checkpoints, so a run that
//! finishes first is untouched. `tests/service_determinism.rs` pins this.

use std::future::Future;
use std::pin::Pin;
use crate::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};

use oneperc_circuit::Circuit;

use crate::compiler::{CompileError, CompiledProgram};
use crate::config::CompilerConfig;
use crate::report::CacheStats;
use crate::service::cache::ProgramCache;
use crate::session::{ExecutionRequest, Session, SessionBuilder};

use super::future::{JobFuture, SubmitError};

/// Guts of the admission window: the slot count plus the wakers of async
/// submitters waiting for one.
#[derive(Debug, Default)]
struct AdmissionState {
    in_flight: usize,
    /// Wakers registered by pending [`AdmissionFuture`] polls. `release`
    /// wakes **all** of them: a woken future whose task was dropped would
    /// otherwise swallow the only wakeup and strand the rest; the losers
    /// of the re-poll race simply re-register. The window is shallow, so
    /// the thundering herd is a few wakes, not a scalability concern.
    waiters: Vec<Waker>,
}

/// Counting semaphore bounding admitted-and-incomplete executions.
///
/// Hand-rolled on `Mutex` + `Condvar` (std has no semaphore): acquire on
/// submission — blocking ([`Admission::acquire`]), non-blocking
/// ([`Admission::try_acquire`]) or asynchronously
/// ([`Admission::poll_acquire`], the engine of [`AdmissionFuture`]) — and
/// release when the lane drops the job's [`AdmissionTicket`].
#[derive(Debug)]
pub(crate) struct Admission {
    capacity: usize,
    state: Mutex<AdmissionState>,
    freed: Condvar,
}

impl Admission {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission window needs at least one slot");
        Admission { capacity, state: Mutex::new(AdmissionState::default()), freed: Condvar::new() }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.state.lock().expect("admission window poisoned").in_flight
    }

    /// Claims a slot if one is free.
    pub(crate) fn try_acquire(&self) -> bool {
        let mut state = self.state.lock().expect("admission window poisoned");
        if state.in_flight < self.capacity {
            state.in_flight += 1;
            true
        } else {
            false
        }
    }

    /// Parks until a slot frees, then claims it.
    pub(crate) fn acquire(&self) {
        let mut state = self.state.lock().expect("admission window poisoned");
        while state.in_flight >= self.capacity {
            state = self.freed.wait(state).expect("admission window poisoned");
        }
        state.in_flight += 1;
    }

    /// The async acquire: claims a slot if one is free, otherwise
    /// registers `cx`'s waker for the next release. Never parks the
    /// polling thread.
    pub(crate) fn poll_acquire(&self, cx: &mut Context<'_>) -> Poll<()> {
        let mut state = self.state.lock().expect("admission window poisoned");
        if state.in_flight < self.capacity {
            state.in_flight += 1;
            return Poll::Ready(());
        }
        // Keep one waker per task: replace nothing when the same task
        // re-polls, append otherwise (distinct futures wait concurrently).
        if !state.waiters.iter().any(|w| w.will_wake(cx.waker())) {
            state.waiters.push(cx.waker().clone());
        }
        Poll::Pending
    }

    /// Returns a slot, wakes one parked submitter and every registered
    /// async waiter (see [`AdmissionState::waiters`] for why all).
    pub(crate) fn release(&self) {
        let waiters = {
            let mut state = self.state.lock().expect("admission window poisoned");
            debug_assert!(state.in_flight > 0, "release without acquire");
            state.in_flight -= 1;
            std::mem::take(&mut state.waiters)
        };
        self.freed.notify_one();
        for waker in waiters {
            waker.wake();
        }
    }
}

/// One admitted execution's claim on the window. It rides with the job to
/// its lane; dropping it — when the job completes, or when a request is
/// dropped unrun — releases the slot.
#[derive(Debug)]
pub(crate) struct AdmissionTicket(pub(crate) Arc<Admission>);

impl Drop for AdmissionTicket {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Pending admission of one execution: resolves — to the job's
/// [`JobFuture`] — once the bounded window has a free slot, without ever
/// parking the polling thread. Produced by [`AsyncSession::submit_async`]
/// and [`AsyncSession::submit_circuit_async`].
///
/// The request is dispatched to a lane *inside* the poll that wins a
/// slot, so a dropped `AdmissionFuture` that never resolved holds
/// nothing: no slot, no queued work, nothing to cancel.
#[derive(Debug)]
#[must_use = "an admission future does nothing until polled; drop it to abandon the submission"]
pub struct AdmissionFuture<'a> {
    service: &'a AsyncSession,
    /// `Some` until the poll that wins a slot consumes it.
    request: Option<ExecutionRequest>,
    /// The `(hit, stats)` stamp of the lookup that produced the program,
    /// for circuit-accepting entry points.
    stamp: Option<(bool, CacheStats)>,
}

impl Future for AdmissionFuture<'_> {
    type Output = JobFuture;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match this.service.admission.poll_acquire(cx) {
            Poll::Ready(()) => {
                let request = this
                    .request
                    .take()
                    .expect("admission future polled after completion");
                Poll::Ready(this.service.dispatch_admitted(request, this.stamp))
            }
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Configures an [`AsyncSession`] before its threads spawn.
#[derive(Debug, Clone)]
#[must_use]
pub struct AsyncSessionBuilder {
    inner: SessionBuilder,
    queue_depth: usize,
}

/// Default admission-window depth: deep enough to keep a handful of lanes
/// busy with queued work, shallow enough that backpressure arrives before
/// queues hide seconds of latency.
pub const DEFAULT_QUEUE_DEPTH: usize = 16;

impl AsyncSessionBuilder {
    /// Number of persistent execution lanes of the underlying session.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is zero.
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.inner = self.inner.lanes(lanes);
        self
    }

    /// Capacity of the compiled-program cache (see
    /// [`SessionBuilder::program_cache`]).
    pub fn program_cache(mut self, capacity: usize) -> Self {
        self.inner = self.inner.program_cache(capacity);
        self
    }

    /// Shares an existing [`ProgramCache`] with the underlying session
    /// (see [`SessionBuilder::shared_program_cache`]): a fleet of sync and
    /// async sessions can serve every tenant from one content-addressed
    /// cache.
    pub fn shared_program_cache(mut self, cache: Arc<ProgramCache>) -> Self {
        self.inner = self.inner.shared_program_cache(cache);
        self
    }

    /// Overrides the classical-memory model of the underlying session.
    pub fn memory_model(mut self, model: crate::MemoryModel) -> Self {
        self.inner = self.inner.memory_model(model);
        self
    }

    /// Maximum admitted-and-incomplete executions before
    /// [`AsyncSession::try_submit`] answers [`SubmitError::Busy`]
    /// (default [`DEFAULT_QUEUE_DEPTH`]).
    ///
    /// # Panics
    ///
    /// Panics when `depth` is zero.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "admission window needs at least one slot");
        self.queue_depth = depth;
        self
    }

    /// Spawns the underlying session and wraps it in the async front-end.
    pub fn build(self) -> AsyncSession {
        AsyncSession {
            session: self.inner.build(),
            admission: Arc::new(Admission::new(self.queue_depth)),
        }
    }
}

/// The async front-end: a warm [`Session`] behind a bounded admission
/// window, speaking [`JobFuture`]s. See the
/// [module docs](crate::service) for the architecture and determinism
/// contract.
///
/// # Example
///
/// ```
/// use oneperc::service::{block_on, AsyncSession};
/// use oneperc::CompilerConfig;
/// use oneperc_circuit::benchmarks;
///
/// let service = AsyncSession::new(CompilerConfig::for_qubits(4, 0.9, 1));
/// let circuit = benchmarks::qaoa(4, 1);
/// // Compiles once (content-addressed), executes per seed.
/// let futures = service.sweep(&circuit, &[1, 2, 3]).unwrap();
/// for future in futures {
///     assert!(block_on(future).is_complete());
/// }
/// assert_eq!(service.cache_stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct AsyncSession {
    session: Session,
    admission: Arc<Admission>,
}

impl AsyncSession {
    /// Builds a single-lane async session with default depth and cache
    /// capacity (see [`AsyncSession::builder`] for the knobs).
    pub fn new(config: CompilerConfig) -> Self {
        Self::builder(config).build()
    }

    /// Starts configuring an async session.
    pub fn builder(config: CompilerConfig) -> AsyncSessionBuilder {
        AsyncSessionBuilder { inner: Session::builder(config), queue_depth: DEFAULT_QUEUE_DEPTH }
    }

    /// The warm session underneath (compile, synchronous batch execution,
    /// lane/pool introspection).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The configuration in use.
    pub fn config(&self) -> &CompilerConfig {
        self.session.config()
    }

    /// Admission-window capacity.
    pub fn queue_depth(&self) -> usize {
        self.admission.capacity()
    }

    /// Executions currently admitted and not yet complete.
    pub fn in_flight(&self) -> usize {
        self.admission.in_flight()
    }

    /// Counters of the compiled-program cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.session.cache_stats()
    }

    /// Offline pass through the program cache (see
    /// [`Session::compile_cached`]).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Mapping`] when the offline pass fails.
    pub fn compile_cached(&self, circuit: &Circuit) -> Result<Arc<CompiledProgram>, CompileError> {
        self.session.compile_cached(circuit)
    }

    /// Non-blocking admission: claims a window slot and dispatches the
    /// request to a lane, or refuses immediately when `queue_depth`
    /// executions are already in flight. The returned future resolves when
    /// the lane completes the job.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Busy`] when the admission window is full.
    pub fn try_submit(&self, request: ExecutionRequest) -> Result<JobFuture, SubmitError> {
        if !self.admission.try_acquire() {
            return Err(SubmitError::Busy { capacity: self.admission.capacity() });
        }
        Ok(self.dispatch_admitted(request, None))
    }

    /// Blocking admission: parks until a window slot frees, then dispatches
    /// like [`AsyncSession::try_submit`]. Under an executor prefer
    /// [`AsyncSession::submit_async`], which waits for the slot without
    /// parking the thread.
    pub fn submit(&self, request: ExecutionRequest) -> JobFuture {
        self.admission.acquire();
        self.dispatch_admitted(request, None)
    }

    /// Fully async admission: the returned [`AdmissionFuture`] resolves to
    /// the job's [`JobFuture`] once the window has a slot, registering a
    /// waker instead of parking — an executor thread driving hundreds of
    /// tenants never blocks inside a submission. Typical shape:
    /// `service.submit_async(request).await.await`.
    pub fn submit_async(&self, request: ExecutionRequest) -> AdmissionFuture<'_> {
        AdmissionFuture { service: self, request: Some(request), stamp: None }
    }

    /// [`AsyncSession::try_submit`] from a circuit: resolves the program
    /// through the content-addressed cache (compiling only on a miss),
    /// then admits the `(program, seed)` execution. The resulting report
    /// carries the lookup's own hit flag and counter snapshot.
    ///
    /// Admission stays non-blocking, but the cache lookup is not free on a
    /// *miss* — the offline pass runs (and is retained) before the window
    /// check, so a later retry of a refused submission hits. Latency-bound
    /// callers can [`AsyncSession::compile_cached`] ahead of time and use
    /// [`AsyncSession::try_submit`].
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Busy`] when the admission window is full and
    /// [`SubmitError::Compile`] when the offline pass fails (nothing is
    /// admitted in either case).
    pub fn try_submit_circuit(
        &self,
        circuit: &Circuit,
        seed: u64,
    ) -> Result<JobFuture, SubmitError> {
        let (compiled, stamp) = self.resolve(circuit)?;
        if !self.admission.try_acquire() {
            return Err(SubmitError::Busy { capacity: self.admission.capacity() });
        }
        Ok(self.dispatch_admitted(ExecutionRequest::new(compiled, seed), Some(stamp)))
    }

    /// Blocking-admission twin of [`AsyncSession::try_submit_circuit`],
    /// with the offline failure surfaced as an error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Mapping`] when the offline pass fails.
    pub fn submit_circuit(&self, circuit: &Circuit, seed: u64) -> Result<JobFuture, CompileError> {
        let (compiled, stamp) = self.resolve(circuit)?;
        self.admission.acquire();
        Ok(self.dispatch_admitted(ExecutionRequest::new(compiled, seed), Some(stamp)))
    }

    /// Async-admission twin of [`AsyncSession::submit_circuit`]: the cache
    /// lookup (and, on a miss, the offline pass) runs inline, then the
    /// returned [`AdmissionFuture`] waits for a window slot without
    /// parking.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Mapping`] when the offline pass fails
    /// (nothing is admitted).
    pub fn submit_circuit_async(
        &self,
        circuit: &Circuit,
        seed: u64,
    ) -> Result<AdmissionFuture<'_>, CompileError> {
        let (compiled, stamp) = self.resolve(circuit)?;
        Ok(AdmissionFuture {
            service: self,
            request: Some(ExecutionRequest::new(compiled, seed)),
            stamp: Some(stamp),
        })
    }

    /// Compile-once-sweep-many, async: one cache lookup, then one admitted
    /// execution per seed (parking whenever the window is full — with
    /// `queue_depth` below the sweep width this is the intended steady
    /// state: lanes drain the window while submission refills it). Futures
    /// are returned in seed order; every report carries the sweep lookup's
    /// hit flag and atomic counter snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Mapping`] when the offline pass fails.
    pub fn sweep(&self, circuit: &Circuit, seeds: &[u64]) -> Result<Vec<JobFuture>, CompileError> {
        let (compiled, stamp) = self.resolve(circuit)?;
        Ok(seeds
            .iter()
            .map(|&seed| {
                self.admission.acquire();
                self.dispatch_admitted(
                    ExecutionRequest::new(Arc::clone(&compiled), seed),
                    Some(stamp),
                )
            })
            .collect())
    }

    /// Cache lookup plus this lookup's `(hit, stats)` stamp — the counter
    /// snapshot is taken atomically as the lookup resolves, so concurrent
    /// tenants (or the sweep's own later lookups) cannot smear the numbers
    /// stamped on a report.
    fn resolve(
        &self,
        circuit: &Circuit,
    ) -> Result<(Arc<CompiledProgram>, (bool, CacheStats)), CompileError> {
        let lookup = self.session.compile_cached_lookup(circuit)?;
        Ok((lookup.program, (lookup.hit, lookup.stats)))
    }

    /// Dispatches an already-admitted request with its admission ticket;
    /// the lane stamps cache telemetry when present and drops the ticket
    /// *before* completing the future, so a woken submitter never observes
    /// a stale full window.
    fn dispatch_admitted(
        &self,
        request: ExecutionRequest,
        stamp: Option<(bool, CacheStats)>,
    ) -> JobFuture {
        let ticket = AdmissionTicket(Arc::clone(&self.admission));
        self.session.dispatch(request, stamp, Some(ticket))
    }
}

/// Exhaustive interleaving checks for the admission semaphore (see
/// `CONCURRENCY.md`). Run with
/// `RUSTFLAGS="--cfg oneperc_model" cargo test -p oneperc model_`.
#[cfg(all(test, oneperc_model))]
mod model_tests {
    use super::Admission;
    use crate::sync::{thread, Arc};
    use std::task::{Context, Poll, Wake, Waker};

    /// Three threads funneling through a one-slot window with the
    /// blocking `acquire`: a lost `freed` notification (the classic
    /// missed-wakeup) would strand a waiter and surface as a deadlock.
    #[test]
    fn model_blocking_semaphore_has_no_lost_wakeups() {
        let report = oneperc_verify::model(|| {
            let admission = Arc::new(Admission::new(1));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let admission = Arc::clone(&admission);
                    thread::spawn(move || {
                        admission.acquire();
                        admission.release();
                    })
                })
                .collect();
            admission.acquire();
            admission.release();
            for worker in workers {
                worker.join().unwrap();
            }
            assert_eq!(admission.in_flight(), 0);
        });
        assert!(report.complete, "exploration must be exhaustive");
    }

    /// The executor stand-in behind the async checks: wakes a parked
    /// model thread, exactly like the service's `block_on` waker.
    struct ParkWaker(thread::Thread);

    impl Wake for ParkWaker {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            self.0.unpark();
        }
    }

    /// Minimal poll loop over `poll_acquire`: poll, park while pending,
    /// re-poll on wake — the shape every executor reduces to.
    fn acquire_async(admission: &Admission) {
        let waker = Waker::from(Arc::new(ParkWaker(thread::current())));
        let mut cx = Context::from_waker(&waker);
        loop {
            match admission.poll_acquire(&mut cx) {
                Poll::Ready(()) => return,
                Poll::Pending => thread::park(),
            }
        }
    }

    /// Two async waiters behind a held one-slot window: every `release`
    /// must wake **all** registered wakers (see `AdmissionState::waiters`)
    /// — waking only one would strand the loser of the re-poll race the
    /// next time around, and the model would report the deadlock.
    #[test]
    fn model_release_wakes_every_async_waiter() {
        let report = oneperc_verify::model(|| {
            let admission = Arc::new(Admission::new(1));
            admission.acquire(); // the root holds the only slot
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let admission = Arc::clone(&admission);
                    thread::spawn(move || {
                        acquire_async(&admission);
                        admission.release();
                    })
                })
                .collect();
            admission.release();
            for waiter in waiters {
                waiter.join().unwrap();
            }
            assert_eq!(admission.in_flight(), 0);
        });
        assert!(report.complete, "exploration must be exhaustive");
    }

    /// The hazard `AdmissionState::waiters` documents: a waiter whose
    /// task is dropped right after registering. If it parked (slot was
    /// busy), a wakeup delivered to it is simply swallowed — it never
    /// re-polls. If it won a slot outright, it behaves like any admitted
    /// job and releases.
    fn poll_once_then_abandon(admission: &Admission) {
        let waker = Waker::from(Arc::new(ParkWaker(thread::current())));
        let mut cx = Context::from_waker(&waker);
        match admission.poll_acquire(&mut cx) {
            Poll::Ready(()) => admission.release(),
            Poll::Pending => thread::park(), // woken — and abandons
        }
    }

    /// A registered waker whose task abandoned may be the one a release
    /// picks — so a release must wake **all** waiters, or the genuine
    /// waiter next to the abandoned one is stranded forever. Weakening
    /// `release` from `mem::take(&mut waiters)` to `waiters.pop()` makes
    /// this deadlock with a replayable trace.
    #[test]
    fn model_dropped_waiter_cannot_swallow_the_wakeup() {
        let report = oneperc_verify::model(|| {
            let admission = Arc::new(Admission::new(1));
            admission.acquire(); // the root holds the only slot
            let abandoner = {
                let admission = Arc::clone(&admission);
                thread::spawn(move || poll_once_then_abandon(&admission))
            };
            let waiter = {
                let admission = Arc::clone(&admission);
                thread::spawn(move || {
                    acquire_async(&admission);
                    admission.release();
                })
            };
            admission.release();
            abandoner.join().unwrap();
            waiter.join().unwrap();
            assert_eq!(admission.in_flight(), 0);
        });
        assert!(report.complete, "exploration must be exhaustive");
    }

    struct NoopWaker;

    impl Wake for NoopWaker {
        fn wake(self: Arc<Self>) {}
    }

    /// Concurrent single polls against one free slot admit at most one
    /// submitter — the "no double-dispatch" pin: a window that granted
    /// the same slot twice would dispatch two executions for it.
    #[test]
    fn model_concurrent_polls_never_overshoot_capacity() {
        let report = oneperc_verify::model(|| {
            let admission = Arc::new(Admission::new(1));
            let contenders: Vec<_> = (0..2)
                .map(|_| {
                    let admission = Arc::clone(&admission);
                    thread::spawn(move || {
                        let waker = Waker::from(Arc::new(NoopWaker));
                        let mut cx = Context::from_waker(&waker);
                        admission.poll_acquire(&mut cx).is_ready()
                    })
                })
                .collect();
            let admitted = contenders
                .into_iter()
                .map(|handle| handle.join().unwrap())
                .filter(|&ready| ready)
                .count();
            assert!(admitted <= 1, "one slot admitted {admitted} submitters");
            assert_eq!(admission.in_flight(), admitted);
            for _ in 0..admitted {
                admission.release();
            }
        });
        assert!(report.complete, "exploration must be exhaustive");
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

    #[test]
    fn admission_window_counts_and_blocks() {
        let admission = Admission::new(2);
        assert_eq!(admission.capacity(), 2);
        assert!(admission.try_acquire());
        assert!(admission.try_acquire());
        assert_eq!(admission.in_flight(), 2);
        assert!(!admission.try_acquire(), "full window refuses");
        admission.release();
        assert!(admission.try_acquire(), "released slot is reusable");
        admission.release();
        admission.release();
        assert_eq!(admission.in_flight(), 0);
    }

    #[test]
    fn blocking_acquire_waits_for_release() {
        let admission = Arc::new(Admission::new(1));
        admission.acquire();
        let contender = {
            let admission = Arc::clone(&admission);
            std::thread::spawn(move || {
                admission.acquire(); // parks until the release below
                admission.release();
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        admission.release();
        contender.join().expect("contender acquired after release");
        assert_eq!(admission.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_queue_depth_panics() {
        let _ = AsyncSession::builder(small_config(0.9, 1)).queue_depth(0);
    }

    #[test]
    fn async_submission_resolves_like_sync_execution() {
        let config = small_config(0.85, 3);
        let service = AsyncSession::new(config);
        let circuit = benchmarks::qaoa(4, 2);
        let compiled = service.compile_cached(&circuit).unwrap();

        let future = service
            .try_submit(ExecutionRequest::new(Arc::clone(&compiled), 7))
            .expect("fresh window admits");
        let outcome = block_on(future);
        let sync = service.session().execute_shared(compiled, 7);
        assert_eq!(outcome.report().deterministic(), sync.report().deterministic());
        assert_eq!(service.in_flight(), 0, "completion released admission");
    }

    #[test]
    fn circuit_submissions_share_one_compile() {
        let service = AsyncSession::builder(small_config(0.85, 1)).lanes(2).build();
        let circuit = benchmarks::qaoa(4, 2);
        let futures: Vec<_> = (1..=6u64)
            .map(|seed| service.submit_circuit(&circuit, seed).unwrap())
            .collect();
        for future in futures {
            let outcome = block_on(future);
            assert!(outcome.is_complete());
            assert_eq!(outcome.report().cache.misses, 1, "one compile for the batch");
        }
        let stats = service.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 5);
    }

    #[test]
    fn futures_can_be_redeemed_in_any_order() {
        let service = AsyncSession::builder(small_config(0.85, 2)).lanes(2).build();
        let circuit = benchmarks::qft(4);
        let mut futures = service.sweep(&circuit, &[4, 5, 6]).unwrap();
        futures.reverse();
        let mut seeds: Vec<u64> = Vec::new();
        for future in futures {
            seeds.push(future.seed());
            assert!(block_on(future).is_complete());
        }
        assert_eq!(seeds, vec![6, 5, 4]);
    }

    #[test]
    fn dropping_a_future_does_not_wedge_the_window() {
        let service = AsyncSession::builder(small_config(0.85, 4)).queue_depth(1).build();
        let circuit = benchmarks::qaoa(4, 2);
        let compiled = service.compile_cached(&circuit).unwrap();
        drop(service.submit(ExecutionRequest::new(Arc::clone(&compiled), 1)));
        // The abandoned job completes (cancelled at a checkpoint or run to
        // the end, timing-dependent) and releases its slot either way, so
        // a blocking submit admits without external help.
        let future = service.submit(ExecutionRequest::new(compiled, 2));
        assert!(block_on(future).is_complete());
    }

    #[test]
    fn submit_async_resolves_without_parking() {
        let config = small_config(0.85, 6);
        let service = AsyncSession::new(config);
        let circuit = benchmarks::qaoa(4, 2);
        let compiled = service.compile_cached(&circuit).unwrap();
        let outcome = block_on(async {
            let job = service.submit_async(ExecutionRequest::new(compiled, 9)).await;
            job.await
        });
        assert!(outcome.is_complete());
        let sync = service
            .session()
            .execute_shared(service.compile_cached(&circuit).unwrap(), 9);
        assert_eq!(outcome.report().deterministic(), sync.report().deterministic());
        assert_eq!(service.in_flight(), 0);
    }

    #[test]
    fn admission_future_waits_for_a_full_window_without_blocking() {
        use std::task::{Context, Poll, Wake, Waker};

        // A waker that records being woken, so the test can observe the
        // release → wake edge without threads.
        struct Flag(std::sync::atomic::AtomicBool);
        impl Wake for Flag {
            fn wake(self: Arc<Self>) {
                self.0.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }

        let admission = Admission::new(1);
        assert!(admission.try_acquire(), "window starts empty");

        let flag = Arc::new(Flag(std::sync::atomic::AtomicBool::new(false)));
        let waker = Waker::from(Arc::clone(&flag));
        let mut cx = Context::from_waker(&waker);
        assert_eq!(admission.poll_acquire(&mut cx), Poll::Pending, "full window parks nobody");
        assert!(!flag.0.load(std::sync::atomic::Ordering::SeqCst));

        admission.release();
        assert!(
            flag.0.load(std::sync::atomic::Ordering::SeqCst),
            "release wakes the registered async waiter"
        );
        assert_eq!(admission.poll_acquire(&mut cx), Poll::Ready(()), "re-poll wins the slot");
        admission.release();
        assert_eq!(admission.in_flight(), 0);
    }

    #[test]
    fn submit_circuit_async_round_trips() {
        let service = AsyncSession::builder(small_config(0.85, 7)).queue_depth(2).build();
        let circuit = benchmarks::qft(4);
        let outcome = block_on(async {
            let job = service.submit_circuit_async(&circuit, 3).unwrap().await;
            job.await
        });
        assert!(outcome.is_complete());
        assert!(!outcome.report().service.cache_hit, "first lookup misses");
        let again = block_on(async {
            let job = service.submit_circuit_async(&circuit, 4).unwrap().await;
            job.await
        });
        assert!(again.report().service.cache_hit, "second lookup hits");
        assert_eq!(again.report().cache.misses, 1);
    }

    #[test]
    fn mapping_failure_surfaces_through_submit_circuit() {
        // An over-wide circuit on a tiny virtual hardware cannot map; both
        // circuit-accepting entry points must report that as an error (the
        // RPC shape: untrusted circuits never panic the serving thread).
        let service = AsyncSession::new(CompilerConfig::for_sensitivity(36, 1, 0.85, 1));
        let wide = benchmarks::qft(9);
        let err = service.submit_circuit(&wide, 1);
        assert!(matches!(err, Err(CompileError::Mapping(_))));
        let err = service.try_submit_circuit(&wide, 1);
        assert!(matches!(err, Err(super::SubmitError::Compile(CompileError::Mapping(_)))));
        assert_eq!(service.in_flight(), 0, "failed compiles admit nothing");
    }
}
