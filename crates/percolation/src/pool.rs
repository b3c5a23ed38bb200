//! Persistent worker pool for the online pass's jobs.
//!
//! [`WorkerPool`] keeps a fixed set of workers alive for the lifetime of
//! the pool, fed from one shared queue. Each worker owns its scratch (a
//! [`Renormalizer`], a [`GenerationScratch`] and a layer buffer), sized once
//! and reused for every job. A job is one merged layer of a reshaping run:
//! it generates layer `index` of the run's `seed` stream into the running
//! thread's own buffer, decides it with [`Renormalizer::spans_target`] and
//! answers with the layer's counters and verdict. Keyed layer streams make
//! it a pure function of the plan, the seed and the index, so layers never
//! cross threads.
//!
//! # Multiplexing and determinism rules
//!
//! Every submitter obtains its own [`PoolClient`], and every job carries a
//! reply sender pointing back at its client, so batches from several
//! clients (one per session lane) interleave without their results ever
//! mixing. Jobs wait in a `Mutex<VecDeque>`; idle workers sleep on a
//! condvar, never inside the lock, and count themselves asleep under it,
//! so a push signals the condvar only when a worker sleeps. Every job is
//! tagged with its submitter-local slot, and a client reorders arrivals
//! back into submission order. Jobs are pure functions of their parameters (scratch
//! reuse is observationally reset-free), so any worker count produces
//! byte-identical results in identical order.
//!
//! **Helping.** A client waiting for a result that has not arrived takes
//! queued jobs, its own or any other client's, runs them on its own scratch
//! and replies to each job's owner. A waiting reshaping engine thereby
//! adds its thread to the pool, and a job a client waits for completes
//! whether or not a worker is left to take it. Helpers never take a
//! shutdown sentinel, so teardown still ends every worker. A client with
//! a private queue and no workers runs every job it submits this way:
//! that is the in-thread reshaping engine.
//!
//! A job that panics is reported back to its submitter, and the thread that
//! ran it replaces its (possibly mid-search) scratch, so one submitter's
//! failure never corrupts another's batch.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use crate::sync::mpsc::{channel, Receiver, Sender};
use crate::sync::thread::{self, JoinHandle};
use crate::sync::{Arc, Condvar, Mutex, MutexGuard};

use oneperc_hardware::{GenerationPlan, GenerationScratch, PhysicalLayer};

use crate::renormalize::Renormalizer;

/// One merged layer of a reshaping run: generate layer `index` of the
/// `seed` stream and decide whether it spans a `target_side` lattice at
/// this node size.
#[derive(Debug, Clone)]
pub(crate) struct LayerJob {
    pub(crate) plan: Arc<GenerationPlan>,
    pub(crate) seed: u64,
    pub(crate) index: u64,
    pub(crate) node_size: usize,
    pub(crate) target_side: usize,
}

/// What the reshaping engine needs of one merged layer: its counters and
/// its verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LayerSummary {
    /// Raw RSLs merged into the layer.
    pub(crate) raw_rsl: u64,
    /// Fusions attempted while generating the layer.
    pub(crate) attempted: u64,
    /// Fusions that succeeded.
    pub(crate) succeeded: u64,
    /// Sites of the layer.
    pub(crate) sites: u64,
    /// Whether the layer renormalizes to the target lattice.
    pub(crate) spans: bool,
}

impl LayerJob {
    /// Generates the layer into `scratch`'s buffer and decides it. The one
    /// generate-and-decide path: pool workers and waiting clients run it,
    /// including the worker-less client of an in-thread reshaping engine.
    pub(crate) fn run(&self, scratch: &mut JobScratch) -> LayerSummary {
        let JobScratch { renorm, generation, layer } = scratch;
        self.plan.generate_into(self.seed, self.index, generation, layer);
        LayerSummary {
            raw_rsl: layer.raw_rsl_consumed as u64,
            attempted: layer.fusions_attempted,
            succeeded: layer.fusions_succeeded,
            sites: layer.site_count() as u64,
            spans: renorm.spans_target(layer, self.node_size, self.target_side),
        }
    }
}

/// The scratch of one thread running jobs.
#[derive(Debug)]
pub(crate) struct JobScratch {
    renorm: Renormalizer,
    generation: GenerationScratch,
    layer: PhysicalLayer,
}

impl JobScratch {
    pub(crate) fn new() -> Self {
        JobScratch {
            renorm: Renormalizer::new(),
            generation: GenerationScratch::default(),
            layer: PhysicalLayer::blank(1, 1),
        }
    }
}

/// The answer for one job: the slot plus the result, or the panic message
/// of a job that blew up. Panics must travel back explicitly — a silently
/// swallowed panic would leave the submitter waiting forever.
type JobReply = (usize, Result<LayerSummary, String>);

/// One unit of work: a layer job plus the submitting client's slot and
/// private reply channel.
#[derive(Debug)]
struct WorkItem {
    job: LayerJob,
    slot: usize,
    reply: Sender<JobReply>,
}

impl WorkItem {
    /// Runs the job on `scratch` and answers its owner.
    fn run(self, scratch: &mut JobScratch) {
        let WorkItem { job, slot, reply } = self;
        let outcome = catch_unwind(AssertUnwindSafe(|| job.run(scratch)));
        let result = outcome.map_err(|payload| {
            // The scratch may be mid-search; replace it rather than retiring
            // the thread, so one submitter's bad job cannot shrink the pool
            // for everyone else.
            *scratch = JobScratch::new();
            panic_message(payload)
        });
        // A dead reply channel only means the submitter abandoned its jobs
        // (its engine was dropped or reset); other submitters still need
        // this thread.
        let _ = reply.send((slot, result));
    }
}

/// Entries of the shared job queue. `Shutdown` is queued once per worker
/// when the pool is dropped; each worker consumes exactly one and exits,
/// which makes teardown independent of how many [`PoolClient`]s are alive.
#[derive(Debug)]
enum Job {
    Work(WorkItem),
    Shutdown,
}

/// A job queue: a deque and the number of workers asleep on it, under one
/// mutex, and the condvar those workers sleep on.
#[derive(Debug, Default)]
struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    sleeping: usize,
}

impl Queue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        // Nothing runs under the lock but deque and counter operations.
        self.state.lock().expect("job queue poisoned")
    }

    /// Appends a job and wakes one worker if any sleeps. A worker counts
    /// itself asleep under the lock it waits with, so a push either lands
    /// before the worker's emptiness check or sees it asleep; skipping the
    /// notify otherwise saves a wake syscall per job.
    fn push(&self, job: Job) {
        let mut state = self.lock();
        state.jobs.push_back(job);
        let wake = state.sleeping > 0;
        drop(state);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Takes the oldest job, sleeping while the queue is empty (workers).
    fn pop(&self) -> Job {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return job;
            }
            state.sleeping += 1;
            state = self.ready.wait(state).expect("job queue poisoned");
            state.sleeping -= 1;
        }
    }

    /// Takes the oldest work item without waiting, passing over shutdown
    /// sentinels (helping clients).
    fn take_work(&self) -> Option<WorkItem> {
        let mut state = self.lock();
        let jobs = &mut state.jobs;
        let at = jobs.iter().position(|job| matches!(job, Job::Work(_)))?;
        match jobs.remove(at) {
            Some(Job::Work(item)) => Some(item),
            _ => unreachable!("position found a work item"),
        }
    }
}

/// Best-effort extraction of a panic payload's message. Shared with the
/// session layer of the `oneperc` facade, which relays execution panics
/// the same way the pool relays job panics.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "renormalization worker panicked".to_string()
    }
}

/// A persistent pool of workers fed from a shared queue.
///
/// Obtain per-submitter handles with [`WorkerPool::client`] and hand each
/// to a [`ReshapeEngine`](crate::ReshapeEngine), which streams its layer
/// jobs through it.
///
/// Dropping the pool queues one shutdown sentinel per worker and joins all
/// of them. Jobs queued ahead of the sentinels are run by the workers;
/// jobs behind them are left to the clients that wait for them.
///
/// # Example
///
/// ```
/// use oneperc_hardware::HardwareConfig;
/// use oneperc_percolation::{LayerRequirement, ReshapeConfig, ReshapeEngine, WorkerPool};
///
/// let config = ReshapeConfig::new(HardwareConfig::new(24, 7, 0.75), 6, 3, 1);
/// let pool = WorkerPool::new(2);
/// let mut pooled = ReshapeEngine::with_renorm_client(config, pool.client());
/// let mut local = ReshapeEngine::new(config);
/// let requirement = LayerRequirement::none();
/// assert_eq!(
///     pooled.advance_logical_layer(&requirement),
///     local.advance_logical_layer(&requirement),
/// );
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    queue: Arc<Queue>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns a pool with `workers` persistent worker threads.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "worker pool needs at least one worker");
        let queue = Arc::new(Queue::default());
        let handles = (0..workers)
            .map(|_| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    let mut scratch = JobScratch::new();
                    while let Job::Work(item) = queue.pop() {
                        item.run(&mut scratch);
                    }
                })
            })
            .collect();
        WorkerPool { queue, handles, workers }
    }

    /// Number of worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Creates a new submitter handle. Clients are independent: each one
    /// has a private reply channel and its own slot sequence, so any number
    /// of clients (across threads) can stream batches through the shared
    /// workers concurrently.
    pub fn client(&self) -> PoolClient {
        PoolClient::new(Arc::clone(&self.queue), self.workers)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // One sentinel per worker: each consumes exactly one and exits,
        // even while clients are alive. Work queued ahead of the sentinels
        // completes first.
        for _ in 0..self.workers {
            self.queue.push(Job::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A per-submitter handle onto a [`WorkerPool`].
///
/// The reshaping engine submits layer jobs through it, each assigned the
/// next slot of this client's stream, and receives their summaries strictly
/// in submission order: answers that arrive early are buffered, and the
/// client runs queued jobs while it waits. One client therefore behaves
/// like a private pipeline through the shared workers: results come back
/// in the order the work went in, independent of the worker count and of
/// what other clients are doing.
#[derive(Debug)]
pub struct PoolClient {
    queue: Arc<Queue>,
    reply_tx: Sender<JobReply>,
    reply_rx: Receiver<JobReply>,
    /// Worker count of the pool this client submits to.
    pool_workers: usize,
    /// Slot assigned to the next submitted job.
    next_slot: usize,
    /// Slot whose result `recv_next` returns next.
    next_result: usize,
    /// Results that arrived ahead of `next_result`.
    reordered: BTreeMap<usize, Result<LayerSummary, String>>,
    /// Scratch for the jobs this client runs while it waits.
    scratch: Box<JobScratch>,
    /// Jobs run on `scratch` so far; the tests observe helping through it.
    #[cfg(test)]
    pub(crate) helped: usize,
}

impl PoolClient {
    fn new(queue: Arc<Queue>, pool_workers: usize) -> Self {
        let (reply_tx, reply_rx) = channel::<JobReply>();
        PoolClient {
            queue,
            reply_tx,
            reply_rx,
            pool_workers,
            next_slot: 0,
            next_result: 0,
            reordered: BTreeMap::new(),
            scratch: Box::new(JobScratch::new()),
            #[cfg(test)]
            helped: 0,
        }
    }

    /// A client of a private queue no worker serves: every job it submits
    /// runs in the calling thread, when [`PoolClient::recv_next`] waits
    /// for it.
    pub(crate) fn in_thread() -> Self {
        Self::new(Arc::new(Queue::default()), 0)
    }

    /// Worker count of the pool behind this client — what a submitter
    /// should size its in-flight window against.
    pub(crate) fn pool_workers(&self) -> usize {
        self.pool_workers
    }

    /// Enqueues one layer job and returns its slot; receive its summary
    /// with [`PoolClient::recv_next`].
    pub(crate) fn submit(&mut self, job: LayerJob) -> usize {
        let slot = self.next_slot;
        self.next_slot += 1;
        let item = WorkItem { job, slot, reply: self.reply_tx.clone() };
        self.queue.push(Job::Work(item));
        slot
    }

    /// Number of submitted jobs whose results have not been received yet,
    /// including results that arrived early and wait in the reorder
    /// buffer.
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.next_slot - self.next_result
    }

    /// Receives the summary of the oldest outstanding job, blocking until
    /// it is available. While the result has not arrived, the client runs
    /// queued jobs itself, so the wait ends even when no worker is left to
    /// take the job.
    ///
    /// # Panics
    ///
    /// Panics when no job is outstanding or when the job itself panicked
    /// (the message is relayed).
    pub(crate) fn recv_next(&mut self) -> LayerSummary {
        let want = self.next_result;
        assert!(want < self.next_slot, "no outstanding job to receive");
        let result = loop {
            if let Some(result) = self.reordered.remove(&want) {
                break result;
            }
            // The channel cannot hang up while `self` holds a sender. If
            // nothing has arrived, help: run a queued job (possibly the
            // wanted one). Only with the queue empty is the wanted job
            // certainly running elsewhere, so only then block; whoever
            // took it answers every job it takes, panicking included.
            let (slot, result) = match self.reply_rx.try_recv() {
                Ok(reply) => reply,
                Err(_) => match self.queue.take_work() {
                    Some(item) => {
                        item.run(&mut self.scratch);
                        #[cfg(test)]
                        {
                            self.helped += 1;
                        }
                        continue;
                    }
                    None => self.reply_rx.recv().expect("reply channel is open"),
                },
            };
            if slot == want {
                break result;
            }
            self.reordered.insert(slot, result);
        };
        self.next_result += 1;
        match result {
            Ok(summary) => summary,
            Err(msg) => panic!("layer job for slot {want} panicked: {msg}"),
        }
    }
}

/// Exhaustive interleaving checks (see `CONCURRENCY.md`). Run with
/// `RUSTFLAGS="--cfg oneperc_model" cargo test -p oneperc-percolation model_`.
#[cfg(all(test, oneperc_model))]
mod model_tests {
    use super::*;

    /// A layer job on 4-site layers, cheap enough to run in every explored
    /// schedule, and its answer.
    fn tiny_job() -> (LayerJob, LayerSummary) {
        use oneperc_hardware::HardwareConfig;
        let job = LayerJob {
            plan: Arc::new(GenerationPlan::new(HardwareConfig::new(4, 7, 0.75))),
            seed: 1,
            index: 0,
            node_size: 2,
            target_side: 2,
        };
        let summary = job.run(&mut JobScratch::new());
        (job, summary)
    }

    /// Drop of an idle pool injects one shutdown sentinel per worker and
    /// joins both — no schedule may leave a worker parked on the queue.
    /// This is the "shutdown without hangs" pin: a lost sentinel or a
    /// worker blocked on a dead queue shows up as a deadlock here.
    #[test]
    fn model_shutdown_never_hangs() {
        let report = oneperc_verify::model(|| {
            let pool = WorkerPool::new(2);
            assert_eq!(pool.worker_count(), 2);
            drop(pool);
        });
        assert!(report.complete, "exploration must be exhaustive");
    }

    /// A submitted job's reply reaches its client before shutdown under
    /// every interleaving of submitter, worker, and teardown: the
    /// in-flight work is ahead of the shutdown sentinel in the queue.
    #[test]
    fn model_submitted_job_completes_before_shutdown() {
        let (job, expected) = tiny_job();
        let report = oneperc_verify::model(move || {
            let pool = WorkerPool::new(1);
            let mut client = pool.client();
            client.submit(job.clone());
            assert_eq!(client.recv_next(), expected);
            drop(pool);
        });
        assert!(report.complete, "exploration must be exhaustive");
    }

    /// A client waiting on its own queued job never deadlocks with the
    /// pool's only worker, and in the schedules where that worker sits
    /// idle the client runs the job itself. (An idle worker used to block
    /// on the queue while holding its lock, so a waiting client could not
    /// reach the job.)
    #[test]
    fn model_waiting_client_runs_its_queued_job_itself() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static HELPED: AtomicUsize = AtomicUsize::new(0);
        let (job, expected) = tiny_job();
        let report = oneperc_verify::model(move || {
            let pool = WorkerPool::new(1);
            let mut client = pool.client();
            client.submit(job.clone());
            assert_eq!(client.recv_next(), expected);
            assert!(client.helped <= 1);
            HELPED.fetch_add(client.helped, Ordering::Relaxed);
            drop(pool);
        });
        assert!(report.complete, "exploration must be exhaustive");
        assert!(HELPED.load(Ordering::Relaxed) > 0, "no schedule let the client help");
    }

    /// A push wakes the only worker whenever it sleeps: the submitter
    /// queues a job while the worker may be going idle, then blocks on the
    /// reply without helping, so only the worker can answer. A push that
    /// skipped a sleeping worker (a lost wakeup) deadlocks here; the
    /// helping tests above cannot see one, since their waiting client runs
    /// the job itself.
    #[test]
    fn model_push_wakes_a_sleeping_worker() {
        let (job, expected) = tiny_job();
        let report = oneperc_verify::model(move || {
            let pool = WorkerPool::new(1);
            let (reply, answers) = channel::<JobReply>();
            pool.queue.push(Job::Work(WorkItem { job: job.clone(), slot: 0, reply }));
            assert_eq!(answers.recv().expect("the worker answers"), (0, Ok(expected)));
            drop(pool);
        });
        assert!(report.complete, "exploration must be exhaustive");
    }

    /// A helping client never consumes a shutdown sentinel: with the pool
    /// torn down while a client submits and waits, every schedule still
    /// joins the worker (a stolen sentinel would hang the drop) and still
    /// answers the client (a job queued behind the sentinel is run by the
    /// client itself).
    #[test]
    fn model_helping_client_never_takes_a_shutdown_sentinel() {
        let (job, expected) = tiny_job();
        let report = oneperc_verify::model(move || {
            let pool = WorkerPool::new(1);
            let mut client = pool.client();
            let job = job.clone();
            let waiter = thread::spawn(move || {
                client.submit(job);
                client.recv_next()
            });
            drop(pool);
            assert_eq!(waiter.join().expect("waiting client"), expected);
        });
        assert!(report.complete, "exploration must be exhaustive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Layer jobs of one seeded run of 24-site layers of 7-qubit states,
    /// near the threshold so that some layers span and some do not.
    fn layer_jobs(count: u64) -> Vec<LayerJob> {
        use oneperc_hardware::HardwareConfig;
        let plan = Arc::new(GenerationPlan::new(HardwareConfig::new(24, 7, 0.66)));
        (0..count)
            .map(|index| LayerJob {
                plan: Arc::clone(&plan),
                seed: 3,
                index,
                node_size: 6,
                target_side: 4,
            })
            .collect()
    }

    /// A job that panics when run: `spans_target` rejects a zero node size.
    fn panicking_job() -> LayerJob {
        LayerJob { node_size: 0, ..layer_jobs(1).remove(0) }
    }

    /// The answers of `jobs` run in-thread on one reused scratch.
    fn run_local(jobs: &[LayerJob]) -> Vec<LayerSummary> {
        let mut scratch = JobScratch::new();
        jobs.iter().map(|job| job.run(&mut scratch)).collect()
    }

    /// Submits every job through `client`, then receives every answer.
    fn run_on(client: &mut PoolClient, jobs: &[LayerJob]) -> Vec<LayerSummary> {
        for job in jobs {
            client.submit(job.clone());
        }
        jobs.iter().map(|_| client.recv_next()).collect()
    }

    /// Submits six layer jobs at once, then checks every answer, in slot
    /// order, against a fresh in-thread run and against the verdict of a
    /// renormalizer on the layer the job generates.
    fn check_in_slot_order(client: &mut PoolClient) {
        let jobs = layer_jobs(6);
        for job in &jobs {
            client.submit(job.clone());
        }
        assert_eq!(client.in_flight(), 6);
        let mut verdicts = Vec::new();
        for job in &jobs {
            let summary = client.recv_next();
            assert_eq!(summary, job.run(&mut JobScratch::new()));
            let mut layer = PhysicalLayer::blank(1, 1);
            job.plan.generate_into(job.seed, job.index, &mut GenerationScratch::default(), &mut layer);
            assert_eq!(summary.spans, Renormalizer::new().spans_target(&layer, 6, 4));
            verdicts.push(summary.spans);
        }
        assert_eq!(client.in_flight(), 0);
        assert!(verdicts.contains(&true) && verdicts.contains(&false), "{verdicts:?}");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let jobs = layer_jobs(8);
        let expected = run_local(&jobs);
        // 1 worker, a few workers, and oversubscribed (workers > jobs in
        // flight at once).
        for workers in [1, 2, 4, 7] {
            let pool = WorkerPool::new(workers);
            assert_eq!(run_on(&mut pool.client(), &jobs), expected, "workers = {workers}");
        }
    }

    #[test]
    fn pool_survives_many_batches() {
        let jobs = layer_jobs(4);
        let expected = run_local(&jobs);
        let pool = WorkerPool::new(2);
        for _ in 0..200 {
            assert_eq!(run_on(&mut pool.client(), &jobs), expected);
        }
    }

    #[test]
    fn concurrent_clients_multiplex_one_pool() {
        // Several submitter threads stream interleaved jobs through the
        // same two workers; every submitter must see exactly the answers
        // an in-thread run computes, in its own order.
        let pool = Arc::new(WorkerPool::new(2));
        let jobs = layer_jobs(4);
        let expected = run_local(&jobs);
        std::thread::scope(|scope| {
            for submitter in 0..3usize {
                let pool = Arc::clone(&pool);
                let (jobs, expected) = (&jobs, &expected);
                scope.spawn(move || {
                    let mut client = pool.client();
                    for round in 0..10 {
                        // Keep a second job in flight to force interleaving.
                        let (a, b) = ((submitter + round) % 4, (submitter + round + 1) % 4);
                        let answers = run_on(&mut client, &[jobs[a].clone(), jobs[b].clone()]);
                        assert_eq!(answers, [expected[a], expected[b]]);
                    }
                    assert_eq!(client.in_flight(), 0);
                });
            }
        });
    }

    #[test]
    fn client_streams_results_in_submission_order() {
        let pool = WorkerPool::new(3);
        check_in_slot_order(&mut pool.client());
    }

    #[test]
    fn jobs_answer_in_slot_order_under_helping() {
        // A client of a queue no worker serves runs every job itself, in
        // queue order, and still answers in slot order.
        let mut client = PoolClient::in_thread();
        check_in_slot_order(&mut client);
        assert_eq!(client.helped, 6);
    }

    #[test]
    fn in_flight_counts_results_buffered_out_of_order() {
        let mut client = PoolClient::in_thread();
        for job in layer_jobs(3) {
            client.submit(job);
        }
        // Slot 1 finishes first, as on a faster thread: its answer is
        // waiting when slot 0 is received, and is buffered.
        let second = client.queue.lock().jobs.remove(1);
        let Some(Job::Work(second)) = second else { panic!("slot 1 is queued work") };
        second.run(&mut JobScratch::new());
        let _ = client.recv_next();
        assert_eq!(client.reordered.len(), 1, "slot 1's answer is buffered");
        assert_eq!(client.in_flight(), 2, "a buffered answer is still in flight");
        let _ = client.recv_next();
        let _ = client.recv_next();
        assert_eq!(client.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn worker_panic_propagates_instead_of_hanging() {
        // Regression: with 2+ workers, a job that panics must surface as a
        // panic of its receiver; without the catch_unwind relay, the dead
        // worker's missing answer would leave `recv_next` blocked forever.
        let mut jobs = layer_jobs(2);
        jobs.insert(0, panicking_job());
        let pool = WorkerPool::new(2);
        let _ = run_on(&mut pool.client(), &jobs);
    }

    #[test]
    fn panicked_batch_leaves_pool_usable() {
        // Per-submitter reply channels mean a failed batch cannot leak
        // stale results into a later one, so the pool stays usable — the
        // thread that ran the bad job replaces its scratch and keeps
        // serving. (The previous design had to poison the whole pool here.)
        let good = layer_jobs(2);
        let expected = run_local(&good);
        let pool = WorkerPool::new(2);
        let first = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_on(&mut pool.client(), &[panicking_job()])
        }));
        assert!(first.is_err(), "a bad job must panic its batch");
        for _ in 0..4 {
            assert_eq!(run_on(&mut pool.client(), &good), expected);
        }
    }

    #[test]
    fn pool_drops_cleanly_with_abandoned_jobs() {
        // A client whose jobs are still queued when it is dropped must not
        // wedge the pool or its teardown.
        let pool = WorkerPool::new(1);
        let mut client = pool.client();
        for job in layer_jobs(8) {
            client.submit(job);
        }
        drop(client); // replies go nowhere; workers must shrug it off
        let survivors = layer_jobs(4);
        assert_eq!(run_on(&mut pool.client(), &survivors), run_local(&survivors));
        drop(pool);
    }
}
