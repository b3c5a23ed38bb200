//! Admission to a [`Session`]: the bounded window behind
//! [`SessionBuilder::queue_depth`](crate::SessionBuilder::queue_depth) and
//! the future that waits for a slot in it.
//!
//! * **Bounded admission.** At most `queue_depth` executions may be
//!   admitted-and-incomplete at once. [`Session::try_submit`] refuses
//!   with [`SubmitError::Busy`](super::SubmitError::Busy) when the window
//!   is full — the signal an RPC layer turns into load-shedding — while
//!   [`Session::submit`] parks until a slot frees and
//!   [`Session::submit_async`] returns an [`AdmissionFuture`] that *waits
//!   for the slot without parking*, so an executor thread multiplexing
//!   many tenants never blocks inside a submission. Admission is released
//!   by job *completion*, not by future redemption, so an abandoned future
//!   never wedges the window. A session built without a depth admits every
//!   job at once.
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
//!
//! Determinism is unchanged by admission: per `(config, circuit, seed)` a
//! report is byte-identical (wall-clock and cache/service telemetry aside
//! — compare with
//! [`ExecutionReport::deterministic`](crate::ExecutionReport::deterministic))
//! whatever the admission depth or poll order. Cancellation never
//! perturbs runs that complete: the token is only ever *read* at
//! checkpoints, so a run that finishes first is untouched.
//! `tests/service_determinism.rs` pins this.

use std::future::Future;
use std::pin::Pin;
use crate::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};

use crate::session::{ExecutionRequest, Session};

use super::future::JobFuture;

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

    #[cfg(test)]
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
/// [`JobFuture`] — once the session's admission window has a free slot,
/// without ever parking the polling thread. Produced by
/// [`Session::submit_async`]; on an unbounded session the first poll
/// resolves.
///
/// The request is dispatched to a lane *inside* the poll that wins a
/// slot, so a dropped `AdmissionFuture` that never resolved holds
/// nothing: no slot, no queued work, nothing to cancel.
#[derive(Debug)]
#[must_use = "an admission future does nothing until polled; drop it to abandon the submission"]
pub struct AdmissionFuture<'a> {
    session: &'a Session,
    /// `Some` until the poll that wins a slot consumes it.
    request: Option<ExecutionRequest>,
}

impl<'a> AdmissionFuture<'a> {
    pub(crate) fn new(session: &'a Session, request: ExecutionRequest) -> Self {
        AdmissionFuture { session, request: Some(request) }
    }
}

impl Future for AdmissionFuture<'_> {
    type Output = JobFuture;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match this.session.poll_acquire(cx) {
            Poll::Ready(()) => {
                let request = this
                    .request
                    .take()
                    .expect("admission future polled after completion");
                Poll::Ready(this.session.dispatch(request, None))
            }
            Poll::Pending => Poll::Pending,
        }
    }
}

/// The one session type under its former name: `AsyncSession::builder`
/// is [`Session::builder`], and the admission window it had by default is
/// now the opt-in [`SessionBuilder::queue_depth`](crate::SessionBuilder::queue_depth).
///
/// ```
/// # #![allow(deprecated)]
/// use oneperc::{AsyncSession, CompilerConfig, Session};
///
/// let service: Session = AsyncSession::builder(CompilerConfig::for_qubits(4, 0.9, 1))
///     .lanes(1)
///     .build();
/// assert_eq!(service.queue_depth(), None, "unbounded, like any default session");
/// ```
#[deprecated(note = "use `Session`; this alias goes away in the benchmark change that moves \
                     `perfbench/src/fleet.rs` onto `Session`")]
pub type AsyncSession = Session;

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
    use crate::compiler::{CompileError, CompiledProgram};
    use crate::config::CompilerConfig;
    use crate::service::block_on;
    use oneperc_circuit::benchmarks;

    fn small_config(p: f64, seed: u64) -> CompilerConfig {
        CompilerConfig::for_sensitivity(36, 3, p, seed)
    }

    fn compiled(session: &Session) -> Arc<CompiledProgram> {
        session.compile_cached(&benchmarks::qaoa(4, 2)).unwrap().program
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
        let _ = Session::builder(small_config(0.9, 1)).queue_depth(0);
    }

    #[test]
    fn async_submission_resolves_like_sync_execution() {
        let session = Session::builder(small_config(0.85, 3)).queue_depth(1).build();
        let compiled = compiled(&session);

        let future = session
            .try_submit(ExecutionRequest::new(Arc::clone(&compiled), 7))
            .expect("fresh window admits");
        let outcome = block_on(future);
        let sync = session.execute_shared(compiled, 7);
        assert_eq!(outcome.report().deterministic(), sync.report().deterministic());
        assert_eq!(session.in_flight(), 0, "completion released admission");
    }

    #[test]
    fn default_session_never_answers_busy() {
        // Unbounded by default: a burst far past any window is admitted,
        // queueing on the one lane.
        let session = Session::new(small_config(0.85, 8));
        assert_eq!(session.queue_depth(), None);
        let compiled = compiled(&session);
        let futures: Vec<JobFuture> = (0..32u64)
            .map(|seed| {
                session
                    .try_submit(ExecutionRequest::new(Arc::clone(&compiled), seed))
                    .expect("an unbounded session admits every job")
            })
            .collect();
        for future in futures {
            assert!(future.wait().is_complete());
        }
        assert_eq!(session.in_flight(), 0);
    }

    #[test]
    fn circuit_submissions_share_one_compile() {
        let session = Session::builder(small_config(0.85, 1)).lanes(2).queue_depth(16).build();
        let circuit = benchmarks::qaoa(4, 2);
        let futures: Vec<_> = (1..=6u64)
            .map(|seed| session.submit_circuit(&circuit, seed).unwrap())
            .collect();
        for future in futures {
            let outcome = block_on(future);
            assert!(outcome.is_complete());
            assert_eq!(outcome.report().cache.misses, 1, "one compile for the batch");
        }
        let stats = session.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 5);
    }

    #[test]
    fn futures_can_be_redeemed_in_any_order() {
        let session = Session::builder(small_config(0.85, 2)).lanes(2).queue_depth(16).build();
        let circuit = benchmarks::qft(4);
        let mut futures = session.sweep(&circuit, &[4, 5, 6]).unwrap();
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
        let session = Session::builder(small_config(0.85, 4)).queue_depth(1).build();
        let compiled = compiled(&session);
        drop(session.submit(ExecutionRequest::new(Arc::clone(&compiled), 1)));
        // The abandoned job completes (cancelled at a checkpoint or run to
        // the end, timing-dependent) and releases its slot either way, so
        // a blocking submit admits without external help.
        let future = session.submit(ExecutionRequest::new(compiled, 2));
        assert!(block_on(future).is_complete());
    }

    #[test]
    fn submit_async_resolves_without_parking() {
        let session = Session::builder(small_config(0.85, 6)).queue_depth(1).build();
        let compiled = compiled(&session);
        let outcome = block_on(async {
            let job = session.submit_async(ExecutionRequest::new(Arc::clone(&compiled), 9)).await;
            job.await
        });
        assert!(outcome.is_complete());
        let sync = session.execute_shared(compiled, 9);
        assert_eq!(outcome.report().deterministic(), sync.report().deterministic());
        assert_eq!(session.in_flight(), 0);
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
    fn mapping_failure_surfaces_through_submit_circuit() {
        // An over-wide circuit on a tiny virtual hardware cannot map; the
        // circuit-accepting entry point must report that as an error (the
        // RPC shape: untrusted circuits never panic the serving thread).
        let config = CompilerConfig::for_sensitivity(36, 1, 0.85, 1);
        let session = Session::builder(config).queue_depth(1).build();
        let err = session.submit_circuit(&benchmarks::qft(9), 1);
        assert!(matches!(err, Err(CompileError::Mapping(_))));
        assert_eq!(session.jobs_submitted(), 0, "failed compiles admit nothing");
        assert_eq!(session.in_flight(), 0);
    }
}
