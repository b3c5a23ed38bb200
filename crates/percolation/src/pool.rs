//! Persistent worker pool for the online pass's jobs.
//!
//! [`WorkerPool`] keeps a fixed set of workers alive for the lifetime of
//! the pool, fed from one shared queue. Each worker owns its scratch (a
//! [`Renormalizer`], a [`GenerationScratch`] and a layer buffer), sized once
//! and reused for every job. A job is one of two kinds:
//!
//! * a **region job** renormalizes one region of a layer shared as
//!   `Arc<PhysicalLayer>` (the modular renormalizer's modules); the
//!   reference is dropped before the reply, so the caller again holds the
//!   only references it created;
//! * a **layer job** generates layer `index` of a reshaping run's `seed`
//!   stream into the running thread's own buffer, decides it with
//!   [`Renormalizer::spans_target`] and answers with the layer's counters
//!   and verdict. Keyed layer streams make it a pure function of the plan,
//!   the seed and the index, so layers never cross threads.
//!
//! # Multiplexing and determinism rules
//!
//! Every submitter obtains its own [`PoolClient`], and every job carries a
//! reply sender pointing back at its client, so batches from several
//! clients (one per session lane) interleave without their results ever
//! mixing. Jobs wait in a `Mutex<VecDeque>`; idle workers sleep on a
//! condvar, never inside the lock. Every job is tagged with its
//! submitter-local slot, and a client reorders arrivals back into
//! submission order. Jobs are pure functions of their parameters (scratch
//! reuse is observationally reset-free), so any worker count produces
//! byte-identical results in identical order.
//!
//! **Helping.** A client waiting for a result that has not arrived takes
//! queued jobs, its own or any other client's, runs them on its own scratch
//! and replies to each job's owner. A waiting reshaping engine thereby
//! adds its thread to the pool, and a job a client waits for completes
//! whether or not a worker is left to take it. Helpers never take a
//! shutdown sentinel, so teardown still ends every worker.
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

use crate::renormalize::{RenormalizedLattice, Renormalizer};

/// One rectangular region of a layer, in physical sites. A region may be a
/// module of the modular renormalization or an entire layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleRegion {
    /// Top-left corner `(x, y)` of the region.
    pub origin: (usize, usize),
    /// Extent along x.
    pub width: usize,
    /// Extent along y.
    pub height: usize,
}

impl ModuleRegion {
    /// The region covering an entire layer.
    pub fn whole_layer(layer: &PhysicalLayer) -> Self {
        ModuleRegion { origin: (0, 0), width: layer.width, height: layer.height }
    }
}

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
    /// generate-and-decide path: pool workers, helping clients and the
    /// reshaping engine's in-thread backend all run it.
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

/// What a job computes.
#[derive(Debug)]
enum Task {
    /// The renormalized lattice of one region of a shared layer
    /// ([`Renormalizer::renormalize_region`]).
    Region { layer: Arc<PhysicalLayer>, region: ModuleRegion, node_size: usize },
    /// One merged layer, generated and decided.
    Layer(LayerJob),
}

impl Task {
    /// Runs the task, consuming it: a region job's layer reference is gone
    /// by the time the answer exists.
    fn run(self, scratch: &mut JobScratch) -> Answer {
        match self {
            Task::Region { layer, region, node_size } => {
                Answer::Lattice(scratch.renorm.renormalize_region(
                    &layer,
                    region.origin,
                    region.width,
                    region.height,
                    node_size,
                ))
            }
            Task::Layer(job) => Answer::Layer(job.run(scratch)),
        }
    }
}

/// The result of a [`Task`].
#[derive(Debug)]
enum Answer {
    Lattice(RenormalizedLattice),
    Layer(LayerSummary),
}

/// The answer for one job: the slot plus the result, or the panic message
/// of a job that blew up. Panics must travel back explicitly — a silently
/// swallowed panic would leave the submitter waiting forever.
type JobReply = (usize, Result<Answer, String>);

/// One unit of work: a task plus the submitting client's slot and private
/// reply channel.
#[derive(Debug)]
struct WorkItem {
    task: Task,
    slot: usize,
    reply: Sender<JobReply>,
}

impl WorkItem {
    /// Runs the job on `scratch` and answers its owner.
    fn run(self, scratch: &mut JobScratch) {
        let WorkItem { task, slot, reply } = self;
        let outcome = catch_unwind(AssertUnwindSafe(|| task.run(scratch)));
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
    Work(Box<WorkItem>),
    Shutdown,
}

/// The shared job queue: a deque under a mutex, and a condvar on which idle
/// workers wait for it to become non-empty.
#[derive(Debug, Default)]
struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

impl Queue {
    fn lock(&self) -> MutexGuard<'_, VecDeque<Job>> {
        // Nothing runs under the lock but deque operations.
        self.jobs.lock().expect("job queue poisoned")
    }

    /// Appends a job and wakes one idle worker.
    fn push(&self, job: Job) {
        self.lock().push_back(job);
        self.ready.notify_one();
    }

    /// Takes the oldest job, sleeping while the queue is empty (workers).
    fn pop(&self) -> Job {
        let mut jobs = self.lock();
        loop {
            if let Some(job) = jobs.pop_front() {
                return job;
            }
            jobs = self.ready.wait(jobs).expect("job queue poisoned");
        }
    }

    /// Takes the oldest work item without waiting, passing over shutdown
    /// sentinels (helping clients).
    fn take_work(&self) -> Option<Box<WorkItem>> {
        let mut jobs = self.lock();
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
/// Obtain per-submitter handles with [`WorkerPool::client`]; the one-shot
/// [`WorkerPool::renormalize_modules`] batch entry point remains for
/// callers that process one layer at a time (the modular renormalizer).
///
/// Dropping the pool queues one shutdown sentinel per worker and joins all
/// of them. Jobs queued ahead of the sentinels are run by the workers;
/// jobs behind them are left to the clients that wait for them.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use oneperc_hardware::PhysicalLayer;
/// use oneperc_percolation::{ModuleRegion, WorkerPool};
///
/// let pool = WorkerPool::new(2);
/// let layer = Arc::new(PhysicalLayer::fully_connected(20, 20));
/// let regions = [
///     ModuleRegion { origin: (0, 0), width: 10, height: 10 },
///     ModuleRegion { origin: (10, 10), width: 10, height: 10 },
/// ];
/// let lattices = pool.renormalize_modules(&layer, &regions, 5);
/// assert_eq!(lattices.len(), 2);
/// assert!(lattices.iter().all(|l| l.is_success()));
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

    /// Renormalizes every region of `layer` on the pool and returns the
    /// lattices in region order. Blocks until the whole batch is done.
    ///
    /// The output is deterministic: result `i` always corresponds to
    /// `regions[i]`, whatever order the workers finish in. Concurrent
    /// batches from other clients interleave on the workers without
    /// affecting this batch's output.
    ///
    /// # Panics
    ///
    /// Panics when a job panics (the worker's message is relayed). The pool
    /// itself stays usable: results are per-submitter, so a failed batch
    /// cannot leak stale lattices into any later batch.
    pub fn renormalize_modules(
        &self,
        layer: &Arc<PhysicalLayer>,
        regions: &[ModuleRegion],
        node_size: usize,
    ) -> Vec<RenormalizedLattice> {
        let mut client = self.client();
        for &region in regions {
            client.submit(layer, region, node_size);
        }
        (0..regions.len()).map(|_| client.recv_next()).collect()
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
/// `submit` enqueues a region job and the crate's reshaping engine enqueues
/// layer jobs, each assigned the next slot of this client's stream;
/// `recv_next` returns results strictly in submission order, buffering any
/// that arrive early, and helps run queued jobs while it waits. One client
/// therefore behaves like a private pipeline through the shared workers:
/// results come back in the order the work went in, independent of the
/// worker count and of what other clients are doing.
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
    reordered: BTreeMap<usize, Result<Answer, String>>,
    /// Scratch for the jobs this client runs while it waits.
    scratch: Box<JobScratch>,
    /// Jobs run on `scratch` so far; the tests observe helping through it.
    #[cfg(test)]
    helped: usize,
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

    /// Worker count of the pool behind this client — what a submitter
    /// should size its in-flight window against.
    pub fn pool_workers(&self) -> usize {
        self.pool_workers
    }

    /// Enqueues one region job and returns its slot in this client's
    /// stream; receive its lattice with [`PoolClient::recv_next`].
    pub fn submit(
        &mut self,
        layer: &Arc<PhysicalLayer>,
        region: ModuleRegion,
        node_size: usize,
    ) -> usize {
        self.enqueue(Task::Region { layer: Arc::clone(layer), region, node_size })
    }

    /// Enqueues one layer job and returns its slot; receive its summary
    /// with [`PoolClient::recv_next_layer`].
    pub(crate) fn submit_layer(&mut self, job: LayerJob) -> usize {
        self.enqueue(Task::Layer(job))
    }

    fn enqueue(&mut self, task: Task) -> usize {
        let slot = self.next_slot;
        self.next_slot += 1;
        let item = WorkItem { task, slot, reply: self.reply_tx.clone() };
        self.queue.push(Job::Work(Box::new(item)));
        slot
    }

    /// Number of submitted jobs whose results have not been received yet,
    /// including results that arrived early and wait in the reorder
    /// buffer.
    pub fn in_flight(&self) -> usize {
        self.next_slot - self.next_result
    }

    /// Receives the lattice of the oldest outstanding job, blocking until
    /// it is available. While the result has not arrived, the client runs
    /// queued jobs itself, so the wait ends even when no worker is left to
    /// take the job.
    ///
    /// # Panics
    ///
    /// Panics when no job is outstanding, when the job itself panicked
    /// (the message is relayed), or when the oldest job is a layer job.
    pub fn recv_next(&mut self) -> RenormalizedLattice {
        match self.recv_answer() {
            Answer::Lattice(lattice) => lattice,
            Answer::Layer(_) => panic!("the oldest outstanding job is a layer job"),
        }
    }

    /// Receives the summary of the oldest outstanding job; the blocking,
    /// helping and panic rules of [`PoolClient::recv_next`] apply, with the
    /// oldest job required to be a layer job.
    pub(crate) fn recv_next_layer(&mut self) -> LayerSummary {
        match self.recv_answer() {
            Answer::Layer(summary) => summary,
            Answer::Lattice(_) => panic!("the oldest outstanding job is a region job"),
        }
    }

    fn recv_answer(&mut self) -> Answer {
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
            Ok(answer) => answer,
            Err(msg) => panic!("renormalization job for slot {want} panicked: {msg}"),
        }
    }
}

/// Exhaustive interleaving checks (see `CONCURRENCY.md`). Run with
/// `RUSTFLAGS="--cfg oneperc_model" cargo test -p oneperc-percolation model_`.
#[cfg(all(test, oneperc_model))]
mod model_tests {
    use super::*;

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
        let report = oneperc_verify::model(|| {
            let pool = WorkerPool::new(1);
            let layer = Arc::new(PhysicalLayer::fully_connected(20, 20));
            let mut client = pool.client();
            client.submit(
                &layer,
                ModuleRegion { origin: (0, 0), width: 10, height: 10 },
                5,
            );
            let lattice = client.recv_next();
            assert!(lattice.is_success());
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
        let report = oneperc_verify::model(|| {
            let pool = WorkerPool::new(1);
            let layer = Arc::new(PhysicalLayer::fully_connected(4, 4));
            let mut client = pool.client();
            client.submit(&layer, ModuleRegion::whole_layer(&layer), 2);
            assert!(client.recv_next().is_success());
            assert!(client.helped <= 1);
            HELPED.fetch_add(client.helped, Ordering::Relaxed);
            drop(pool);
        });
        assert!(report.complete, "exploration must be exhaustive");
        assert!(HELPED.load(Ordering::Relaxed) > 0, "no schedule let the client help");
    }

    /// A helping client never consumes a shutdown sentinel: with the pool
    /// torn down while a client submits and waits, every schedule still
    /// joins the worker (a stolen sentinel would hang the drop) and still
    /// answers the client (a job queued behind the sentinel is run by the
    /// client itself).
    #[test]
    fn model_helping_client_never_takes_a_shutdown_sentinel() {
        let report = oneperc_verify::model(|| {
            let pool = WorkerPool::new(1);
            let layer = Arc::new(PhysicalLayer::fully_connected(4, 4));
            let mut client = pool.client();
            let waiter = thread::spawn(move || {
                client.submit(&layer, ModuleRegion::whole_layer(&layer), 2);
                client.recv_next().is_success()
            });
            drop(pool);
            assert!(waiter.join().expect("waiting client"));
        });
        assert!(report.complete, "exploration must be exhaustive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadrants(side: usize) -> Vec<ModuleRegion> {
        let h = side / 2;
        vec![
            ModuleRegion { origin: (0, 0), width: h, height: h },
            ModuleRegion { origin: (h, 0), width: h, height: h },
            ModuleRegion { origin: (0, h), width: h, height: h },
            ModuleRegion { origin: (h, h), width: h, height: h },
        ]
    }

    #[test]
    fn batch_results_follow_region_order() {
        let layer = Arc::new(PhysicalLayer::fully_connected(24, 24));
        let regions = quadrants(24);
        let pool = WorkerPool::new(3);
        let lattices = pool.renormalize_modules(&layer, &regions, 6);
        let mut reference = Renormalizer::new();
        for (region, lattice) in regions.iter().zip(&lattices) {
            let expected = reference.renormalize_region(
                &layer,
                region.origin,
                region.width,
                region.height,
                6,
            );
            assert_eq!(lattice, &expected);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        use oneperc_hardware::{FusionEngine, HardwareConfig};
        let mut engine = FusionEngine::new(HardwareConfig::new(32, 7, 0.75), 5);
        let layer = Arc::new(engine.generate_layer());
        let regions = quadrants(32);
        let mut baseline: Option<Vec<RenormalizedLattice>> = None;
        // 1 worker, a few workers, and oversubscribed (workers > modules).
        for workers in [1, 2, 4, 7] {
            let pool = WorkerPool::new(workers);
            let lattices = pool.renormalize_modules(&layer, &regions, 8);
            match &baseline {
                None => baseline = Some(lattices),
                Some(expected) => assert_eq!(&lattices, expected, "workers = {workers}"),
            }
        }
    }

    #[test]
    fn pool_survives_many_batches() {
        let layer = Arc::new(PhysicalLayer::fully_connected(16, 16));
        let regions = quadrants(16);
        let pool = WorkerPool::new(2);
        let first = pool.renormalize_modules(&layer, &regions, 4);
        for _ in 0..200 {
            let again = pool.renormalize_modules(&layer, &regions, 4);
            assert_eq!(again, first);
        }
    }

    #[test]
    fn caller_keeps_sole_ownership_after_batch() {
        let layer = Arc::new(PhysicalLayer::fully_connected(12, 12));
        let regions = quadrants(12);
        let pool = WorkerPool::new(2);
        let _ = pool.renormalize_modules(&layer, &regions, 3);
        // All job-held clones were dropped with the batch: the allocation
        // can cycle back to a layer buffer.
        let layer = Arc::try_unwrap(layer).expect("pool released the layer");
        assert_eq!(layer.site_count(), 144);
    }

    #[test]
    fn concurrent_clients_multiplex_one_pool() {
        use oneperc_hardware::{FusionEngine, HardwareConfig};
        // Several submitter threads stream interleaved batches through the
        // same two workers; every submitter must see exactly the lattices a
        // private sequential renormalizer computes, in its own order.
        let pool = Arc::new(WorkerPool::new(2));
        let layers: Vec<Arc<PhysicalLayer>> = (0..4)
            .map(|seed| {
                let hw = HardwareConfig::new(24, 7, 0.75);
                Arc::new(FusionEngine::new(hw, seed).generate_layer())
            })
            .collect();
        std::thread::scope(|scope| {
            for submitter in 0..3usize {
                let pool = Arc::clone(&pool);
                let layers = layers.clone();
                scope.spawn(move || {
                    let mut client = pool.client();
                    let mut reference = Renormalizer::new();
                    for round in 0..10 {
                        let layer = &layers[(submitter + round) % layers.len()];
                        let region = ModuleRegion::whole_layer(layer);
                        client.submit(layer, region, 6);
                        // Keep a second job in flight to force interleaving.
                        let second = &layers[(submitter + round + 1) % layers.len()];
                        client.submit(second, ModuleRegion::whole_layer(second), 6);
                        let a = client.recv_next();
                        let b = client.recv_next();
                        assert_eq!(a, reference.renormalize(layer, 6));
                        assert_eq!(b, reference.renormalize(second, 6));
                    }
                    assert_eq!(client.in_flight(), 0);
                });
            }
        });
    }

    #[test]
    fn client_streams_results_in_submission_order() {
        let layer = Arc::new(PhysicalLayer::fully_connected(16, 16));
        let pool = WorkerPool::new(3);
        let mut client = pool.client();
        let regions = quadrants(16);
        for &region in &regions {
            client.submit(&layer, region, 4);
        }
        assert_eq!(client.in_flight(), 4);
        let mut reference = Renormalizer::new();
        for region in &regions {
            let got = client.recv_next();
            let expected = reference.renormalize_region(
                &layer,
                region.origin,
                region.width,
                region.height,
                4,
            );
            assert_eq!(got, expected);
        }
        assert_eq!(client.in_flight(), 0);
    }

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

    /// The layer a layer job generates.
    fn layer_of(job: &LayerJob) -> Arc<PhysicalLayer> {
        let mut layer = PhysicalLayer::blank(1, 1);
        job.plan.generate_into(job.seed, job.index, &mut GenerationScratch::default(), &mut layer);
        Arc::new(layer)
    }

    /// Submits a layer job and a whole-layer region job per layer, then
    /// checks every answer, in slot order, against a private in-thread
    /// run.
    fn check_interleaved(client: &mut PoolClient) {
        let jobs = layer_jobs(6);
        let layers: Vec<Arc<PhysicalLayer>> = jobs.iter().map(layer_of).collect();
        for (job, layer) in jobs.iter().zip(&layers) {
            client.submit_layer(job.clone());
            client.submit(layer, ModuleRegion::whole_layer(layer), 6);
        }
        let mut scratch = JobScratch::new();
        let mut reference = Renormalizer::new();
        let mut verdicts = Vec::new();
        for (job, layer) in jobs.iter().zip(&layers) {
            let summary = client.recv_next_layer();
            assert_eq!(summary, job.run(&mut scratch));
            assert_eq!(summary.spans, reference.spans_target(layer, 6, 4));
            assert_eq!(client.recv_next(), reference.renormalize(layer, 6));
            verdicts.push(summary.spans);
        }
        assert_eq!(client.in_flight(), 0);
        assert!(verdicts.contains(&true) && verdicts.contains(&false), "{verdicts:?}");
    }

    #[test]
    fn layer_jobs_interleave_with_region_jobs_in_slot_order() {
        let pool = WorkerPool::new(3);
        check_interleaved(&mut pool.client());
    }

    #[test]
    fn layer_and_region_jobs_interleave_in_slot_order_under_helping() {
        // A client of a queue no worker serves runs every job itself, in
        // queue order, and still answers in slot order.
        let mut client = PoolClient::new(Arc::new(Queue::default()), 0);
        check_interleaved(&mut client);
        assert_eq!(client.helped, 12);
    }

    #[test]
    fn in_flight_counts_results_buffered_out_of_order() {
        let mut client = PoolClient::new(Arc::new(Queue::default()), 0);
        let layer = Arc::new(PhysicalLayer::fully_connected(8, 8));
        for _ in 0..3 {
            client.submit(&layer, ModuleRegion::whole_layer(&layer), 4);
        }
        // Slot 1 finishes first, as on a faster thread: its answer is
        // waiting when slot 0 is received, and is buffered.
        let second = client.queue.lock().remove(1);
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
    #[should_panic(expected = "layer job")]
    fn receiving_a_layer_summary_as_a_lattice_panics() {
        let pool = WorkerPool::new(1);
        let mut client = pool.client();
        client.submit_layer(layer_jobs(1).remove(0));
        let _ = client.recv_next();
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
        // batch panic; without the catch_unwind relay, the dead worker's
        // missing result would leave `renormalize_modules` blocked forever.
        let layer = Arc::new(PhysicalLayer::fully_connected(8, 8));
        let regions = [
            // Out-of-bounds region: renormalize_region asserts and panics.
            ModuleRegion { origin: (6, 6), width: 8, height: 8 },
            ModuleRegion { origin: (0, 0), width: 4, height: 4 },
            ModuleRegion { origin: (4, 0), width: 4, height: 4 },
        ];
        let pool = WorkerPool::new(2);
        let _ = pool.renormalize_modules(&layer, &regions, 2);
    }

    #[test]
    fn panicked_batch_leaves_pool_usable() {
        // Per-submitter reply channels mean a failed batch cannot leak
        // stale results into a later one, so the pool stays usable — the
        // worker replaces its scratch and keeps serving. (The previous
        // design had to poison the whole pool here.)
        let layer = Arc::new(PhysicalLayer::fully_connected(8, 8));
        let bad = [ModuleRegion { origin: (6, 6), width: 8, height: 8 }];
        let good = [ModuleRegion { origin: (0, 0), width: 4, height: 4 }];
        let pool = WorkerPool::new(2);
        let first = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.renormalize_modules(&layer, &bad, 2)
        }));
        assert!(first.is_err(), "bad region must panic the batch");
        for _ in 0..4 {
            let again = pool.renormalize_modules(&layer, &good, 2);
            assert_eq!(again.len(), 1);
            assert!(again[0].is_success());
        }
    }

    #[test]
    fn pool_drops_cleanly_with_abandoned_jobs() {
        // A client whose jobs are still queued when it is dropped must not
        // wedge the pool or its teardown.
        let layer = Arc::new(PhysicalLayer::fully_connected(32, 32));
        let pool = WorkerPool::new(1);
        let mut client = pool.client();
        for _ in 0..8 {
            client.submit(&layer, ModuleRegion::whole_layer(&layer), 8);
        }
        drop(client); // replies go nowhere; workers must shrug it off
        let survivors = pool.renormalize_modules(&layer, &quadrants(32), 8);
        assert_eq!(survivors.len(), 4);
        drop(pool);
    }
}
