//! [`JobFuture`]: a pending execution as a `std::future::Future`, plus a
//! minimal thread-parking executor ([`block_on`]).
//!
//! Every session job — from [`Session::submit`](crate::Session::submit)
//! and the other submitting entry points — hands back a `JobFuture`. The
//! wiring is hand-rolled on std primitives only (consistent with the
//! workspace's no-crates.io shim policy): a lane thread completes the
//! shared slot and wakes whatever `Waker` the last poll registered; a
//! synchronous caller can instead park on the built-in condvar via
//! [`JobFuture::wait`]. No executor is assumed — the future works under
//! [`block_on`], under any external runtime, or polled by hand.

use std::fmt;
use std::future::Future;
use std::pin::Pin;
use crate::sync::{thread, Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use oneperc_percolation::CancelToken;

use crate::report::ExecuteOutcome;

/// Why a submission was refused; see
/// [`Session::try_submit`](crate::Session::try_submit).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SubmitError {
    /// The bounded admission window is full: `capacity` executions are
    /// admitted and not yet complete. Retry after redeeming (or dropping)
    /// an outstanding future, or use the blocking
    /// [`Session::submit`](crate::Session::submit).
    Busy {
        /// The admission capacity that was exhausted.
        capacity: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Busy { capacity } => write!(
                f,
                "admission window full: {capacity} executions in flight; \
                 retry after one completes"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a job ended without an outcome.
#[derive(Debug)]
pub(crate) enum JobFailure {
    /// The execution panicked; carries the lane's relayed message.
    Panicked(String),
    /// The job was dropped unrun: the session was torn down with it queued.
    TornDown,
    /// The session's configuration breaks this rule of
    /// [`CompilerConfig::check`](crate::CompilerConfig::check), so its
    /// lanes have no engine to run the job on.
    InvalidConfig(&'static str),
}

/// What a lane delivers into a [`JobSlot`].
pub(crate) type JobResult = Result<ExecuteOutcome, JobFailure>;

/// The slot a lane thread fills and a poller drains.
#[derive(Debug, Default)]
struct JobState {
    outcome: Option<JobResult>,
    /// Waker of the most recent poll, if the job was still pending then.
    waker: Option<Waker>,
}

/// Completion slot shared between the lane (producer) and the future
/// (consumer).
#[derive(Debug, Default)]
pub(crate) struct JobSlot {
    state: Mutex<JobState>,
    done: Condvar,
}

impl JobSlot {
    /// Fills the slot and wakes both kinds of waiters (registered `Waker`
    /// and condvar parkers). Called exactly once: by the lane thread, or
    /// by the teardown guard of a request that never ran.
    pub(crate) fn complete(&self, outcome: JobResult) {
        let waker = {
            let mut state = self.state.lock().expect("job slot poisoned");
            debug_assert!(state.outcome.is_none(), "a job completes exactly once");
            state.outcome = Some(outcome);
            self.done.notify_all();
            state.waker.take()
        };
        // Wake outside the lock: the woken task may poll immediately.
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

/// A pending session execution, from
/// [`Session::submit`](crate::Session::submit) or another submitting
/// entry point of [`Session`](crate::Session).
///
/// Implements [`Future`] — `.await` it under any executor (or the built-in
/// [`block_on`]) — and offers the synchronous [`JobFuture::wait`] for
/// callers without one.
///
/// **Dropping the future cancels the execution**: the lane observes the
/// token at its next layer checkpoint and sheds the remaining layers (an
/// already-finished job is unaffected). A job's admission slot (on a
/// bounded session) is released on completion either way, so an abandoned future never wedges
/// the window. Call [`JobFuture::cancel`] to shed work while keeping the
/// future — it then resolves to the partial outcome with
/// [`LayerFailureReason::Cancelled`](crate::LayerFailureReason::Cancelled).
///
/// # Panics
///
/// Polling (or waiting on) a job whose execution panicked re-raises the
/// relayed panic message (the lane itself survives with a fresh engine
/// and keeps serving other jobs). A job whose session was torn down with
/// the job still queued panics with "session torn down while a job was
/// pending" instead of hanging, and a job on a session whose configuration
/// breaks a rule of [`CompilerConfig::check`](crate::CompilerConfig::check)
/// panics with "invalid configuration: " and the rule.
#[derive(Debug)]
#[must_use = "a dropped future cancels its job at the next layer checkpoint"]
pub struct JobFuture {
    slot: Arc<JobSlot>,
    seed: u64,
    cancel: CancelToken,
}

impl JobFuture {
    pub(crate) fn new(slot: Arc<JobSlot>, seed: u64, cancel: CancelToken) -> Self {
        JobFuture { slot, seed, cancel }
    }

    /// The seed of the submitted request.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Requests cancellation: the lane stops the run at its next layer
    /// checkpoint instead of forming the remaining logical layers.
    /// Idempotent; a run that finished first is unaffected.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clone of the job's cancellation token, for cancelling from
    /// elsewhere (a deadline watchdog, an RPC disconnect handler) without
    /// holding the future.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Returns `true` once the outcome is ready (a subsequent poll or
    /// [`JobFuture::wait`] will not block).
    pub fn is_ready(&self) -> bool {
        self.slot.state.lock().expect("job slot poisoned").outcome.is_some()
    }

    /// Synchronous redemption: parks the calling thread until the lane
    /// completes the job. The executor-free twin of `.await`.
    pub fn wait(self) -> ExecuteOutcome {
        let mut state = self.slot.state.lock().expect("job slot poisoned");
        while state.outcome.is_none() {
            state = self.slot.done.wait(state).expect("job slot poisoned");
        }
        resolve(state.outcome.take().expect("checked above"))
    }
}

impl Drop for JobFuture {
    fn drop(&mut self) {
        // Shed the remaining work under overload: nobody can observe this
        // job's outcome any more. Cancelling after completion is a no-op.
        self.cancel.cancel();
    }
}

fn resolve(outcome: JobResult) -> ExecuteOutcome {
    match outcome {
        Ok(outcome) => outcome,
        Err(JobFailure::Panicked(message)) => panic!("session execution panicked: {message}"),
        Err(JobFailure::TornDown) => panic!("session torn down while a job was pending"),
        Err(JobFailure::InvalidConfig(rule)) => panic!("invalid configuration: {rule}"),
    }
}

impl Future for JobFuture {
    type Output = ExecuteOutcome;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut state = self.slot.state.lock().expect("job slot poisoned");
        if let Some(outcome) = state.outcome.take() {
            return Poll::Ready(resolve(outcome));
        }
        // Keep exactly one registered waker: replace a stale one, skip the
        // clone when the current task re-polls.
        match &state.waker {
            Some(waker) if waker.will_wake(cx.waker()) => {}
            _ => state.waker = Some(cx.waker().clone()),
        }
        Poll::Pending
    }
}

/// Wakes a parked thread; the entire executor behind [`block_on`].
struct ThreadWaker(thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives any future to completion on the calling thread: poll, park until
/// woken, repeat. A deliberately minimal hand-rolled executor — enough to
/// consume [`JobFuture`]s (or `async` blocks combining them) without an
/// async runtime dependency.
///
/// # Example
///
/// ```
/// use oneperc::service::block_on;
///
/// assert_eq!(block_on(async { 2 + 2 }), 4);
/// ```
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    let waker = Waker::from(Arc::new(ThreadWaker(thread::current())));
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            // A wake between the poll and this park turns the park into a
            // no-op (parking consumes the token), so no wakeup is lost.
            Poll::Pending => thread::park(),
        }
    }
}

/// Exhaustive interleaving checks for the completion slot (see
/// `CONCURRENCY.md`). Run with
/// `RUSTFLAGS="--cfg oneperc_model" cargo test -p oneperc model_`.
#[cfg(all(test, oneperc_model))]
mod model_tests {
    use super::*;

    fn outcome() -> ExecuteOutcome {
        ExecuteOutcome::Complete(crate::report::ExecutionReport {
            rsl_consumed: 7,
            ..Default::default()
        })
    }

    /// `complete` racing `wait`: the condvar protocol (outcome re-checked
    /// under the lock before every park) may not miss the completion
    /// under any schedule — a notify sent before the waiter parks must
    /// still be observed via the predicate.
    #[test]
    fn model_wait_never_misses_completion() {
        let report = oneperc_verify::model(|| {
            let slot = Arc::new(JobSlot::default());
            let future = JobFuture::new(Arc::clone(&slot), 0, CancelToken::new());
            let producer = thread::spawn(move || slot.complete(Ok(outcome())));
            assert_eq!(future.wait().report().rsl_consumed, 7);
            producer.join().unwrap();
        });
        assert!(report.complete, "exploration must be exhaustive");
    }

    /// `complete` racing `block_on`'s poll/park loop, with a concurrent
    /// canceller in the mix (the overload path: an RPC disconnect cancels
    /// while the lane finishes). The registered-waker handoff may not
    /// lose the wakeup: a `complete` that lands between the poll and the
    /// park must still unpark the executor thread.
    #[test]
    fn model_block_on_never_loses_the_wakeup() {
        let report = oneperc_verify::model(|| {
            let slot = Arc::new(JobSlot::default());
            let cancel = CancelToken::new();
            let future = JobFuture::new(Arc::clone(&slot), 0, cancel.clone());
            let producer = thread::spawn(move || slot.complete(Ok(outcome())));
            let canceller = thread::spawn(move || cancel.cancel());
            assert_eq!(block_on(future).report().rsl_consumed, 7);
            producer.join().unwrap();
            canceller.join().unwrap();
        });
        assert!(report.complete, "exploration must be exhaustive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn dummy_outcome() -> ExecuteOutcome {
        ExecuteOutcome::Complete(crate::report::ExecutionReport {
            rsl_consumed: 42,
            ..Default::default()
        })
    }

    #[test]
    fn block_on_drives_a_plain_future() {
        assert_eq!(block_on(async { 7 }), 7);
    }

    #[test]
    fn future_resolves_after_cross_thread_completion() {
        let slot = Arc::new(JobSlot::default());
        let future = JobFuture::new(Arc::clone(&slot), 5, CancelToken::new());
        assert!(!future.is_ready());
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            slot.complete(Ok(dummy_outcome()));
        });
        let outcome = block_on(future);
        assert_eq!(outcome.report().rsl_consumed, 42);
        producer.join().unwrap();
    }

    #[test]
    fn already_completed_future_is_ready_immediately() {
        let slot = Arc::new(JobSlot::default());
        slot.complete(Ok(dummy_outcome()));
        let future = JobFuture::new(slot, 9, CancelToken::new());
        assert!(future.is_ready());
        assert_eq!(future.seed(), 9);
        assert_eq!(block_on(future).report().rsl_consumed, 42);
    }

    #[test]
    fn wait_parks_until_completion() {
        let slot = Arc::new(JobSlot::default());
        let future = JobFuture::new(Arc::clone(&slot), 1, CancelToken::new());
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            slot.complete(Ok(dummy_outcome()));
        });
        assert_eq!(future.wait().report().rsl_consumed, 42);
        producer.join().unwrap();
    }

    #[test]
    fn panicked_execution_is_relayed_through_poll() {
        let slot = Arc::new(JobSlot::default());
        slot.complete(Err(JobFailure::Panicked("boom".to_string())));
        let future = JobFuture::new(slot, 0, CancelToken::new());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| block_on(future)))
            .expect_err("relayed panic");
        let message = oneperc_percolation::panic_message(err);
        assert!(message.contains("session execution panicked"));
        assert!(message.contains("boom"));
    }

    #[test]
    fn submit_error_formats_and_boxes() {
        let err = SubmitError::Busy { capacity: 3 };
        assert!(err.to_string().contains("3 executions in flight"));
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("admission window full"));
    }
}
