//! Persistent worker pool for renormalization jobs.
//!
//! The modular renormalizer used to spawn one scoped OS thread per module
//! per layer; across an RSL stream that pays the full thread-startup cost
//! on every single layer. [`WorkerPool`] instead keeps a fixed set of
//! workers alive for the lifetime of the pool, feeding them jobs over a
//! channel. Each worker owns its own [`Renormalizer`] (and thus its own
//! `ScratchPool`), so the per-worker scratch memory is sized once and
//! reused for every job the pool ever processes.
//!
//! # Multiplexing and determinism rules
//!
//! The pool multiplexes work from **multiple concurrent submitters**: every
//! submitter obtains its own [`PoolClient`], and every job carries a reply
//! sender pointing back at the client that submitted it. Workers draw jobs
//! from one shared FIFO queue but answer each submitter on its private
//! channel, so batches from different clients can interleave freely on the
//! workers without their results ever mixing. This is what lets several
//! warm reshaping engines (one per session lane) share a single pool.
//!
//! * Layers are shared with the workers as `Arc<PhysicalLayer>`; the pool
//!   never mutates a layer. When a job's result has been received, the
//!   caller again holds the only strong references it created, so buffer
//!   recycling (dropping or reusing the layer allocation) stays in the
//!   caller's hands.
//! * Every job is tagged with its submitter-local slot. A client hands out
//!   slots monotonically and reorders arrivals back into submission order,
//!   so the outcome of a batch is independent of worker scheduling: any
//!   worker count — including a single worker, or more workers than jobs —
//!   produces byte-identical lattices in identical order.
//! * A job states what it computes: a region lattice (the modular
//!   renormalizer's shape) or a whole-layer verdict — whether the layer
//!   spans a `target_side` lattice (the reshaping engine's shape). Both
//!   are pure functions of the layer and the job's parameters; workers
//!   keep no cross-job state other than their scratch pool, whose epoch
//!   stamps make reuse observationally reset-free. A job that panics is
//!   reported back to its submitter and the worker replaces its (possibly
//!   mid-search) scratch with a fresh one, so one submitter's failure never
//!   corrupts another's batch.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use crate::sync::mpsc::{channel, Receiver, Sender};
use crate::sync::thread::{self, JoinHandle};
use crate::sync::{Arc, Mutex};

use oneperc_hardware::PhysicalLayer;

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

/// What a job computes from its layer.
#[derive(Debug, Clone, Copy)]
enum Task {
    /// The renormalized lattice of one region
    /// ([`Renormalizer::renormalize_region`]).
    Region { region: ModuleRegion, node_size: usize },
    /// Whether the whole layer spans a `target_side` lattice
    /// ([`Renormalizer::spans_target`]).
    Verdict { node_size: usize, target_side: usize },
}

/// The result of a [`Task`].
#[derive(Debug)]
enum Answer {
    Lattice(RenormalizedLattice),
    Verdict(bool),
}

/// A worker's answer for one job: the slot plus the result, or the panic
/// message of a job that blew up. Panics must travel back explicitly — a
/// silently swallowed panic would leave the submitter waiting forever.
type JobReply = (usize, Result<Answer, String>);

/// One unit of work: run a task on a shared layer and answer the
/// submitting client on its private reply channel.
struct WorkItem {
    layer: Arc<PhysicalLayer>,
    task: Task,
    slot: usize,
    reply: Sender<JobReply>,
}

/// Messages on the shared job queue. `Shutdown` is injected once per worker
/// when the pool is dropped; each worker consumes exactly one and exits,
/// which makes teardown independent of how many [`PoolClient`]s still hold
/// a sender.
enum Job {
    Work(Box<WorkItem>),
    Shutdown,
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

/// A persistent pool of renormalization workers fed over a shared queue.
///
/// Obtain per-submitter handles with [`WorkerPool::client`]; the one-shot
/// [`WorkerPool::renormalize_modules`] batch entry point remains for
/// callers that process one layer at a time (the modular renormalizer).
///
/// Dropping the pool injects one shutdown message per worker and joins all
/// of them. In-flight jobs finish first; jobs submitted by clients that
/// outlive the pool are never processed, so clients must not be used after
/// their pool is gone.
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
    job_tx: Sender<Job>,
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
        let (job_tx, job_rx) = channel::<Job>();
        // mpsc receivers are single-consumer; the workers share the queue
        // through a mutex, locking only for the dequeue itself.
        let job_rx = Arc::new(Mutex::new(job_rx));
        let handles = (0..workers)
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                thread::spawn(move || {
                    let mut renorm = Renormalizer::new();
                    loop {
                        // Release the queue lock before renormalizing so
                        // other workers can pick up the next job.
                        let job = match job_rx.lock().expect("job queue poisoned").recv() {
                            Ok(job) => job,
                            Err(_) => break, // pool and every client dropped
                        };
                        let item = match job {
                            Job::Work(item) => item,
                            Job::Shutdown => break,
                        };
                        let WorkItem { layer, task, slot, reply } = *item;
                        // A panicking job must reach its submitter as a
                        // message, or that batch would wait forever while
                        // the worker moved on.
                        let outcome = catch_unwind(AssertUnwindSafe(|| match task {
                            Task::Region { region, node_size } => {
                                Answer::Lattice(renorm.renormalize_region(
                                    &layer,
                                    region.origin,
                                    region.width,
                                    region.height,
                                    node_size,
                                ))
                            }
                            Task::Verdict { node_size, target_side } => {
                                Answer::Verdict(renorm.spans_target(&layer, node_size, target_side))
                            }
                        }));
                        // Release the layer before replying: once the
                        // submitter has the result, it again holds the only
                        // references it created.
                        drop(layer);
                        match outcome {
                            Ok(answer) => {
                                // A dead reply channel only means the
                                // submitter abandoned its jobs (its engine
                                // was dropped or reset); other submitters
                                // still need this worker.
                                let _ = reply.send((slot, Ok(answer)));
                            }
                            Err(payload) => {
                                // The scratch may be mid-search; replace it
                                // rather than retiring the worker, so one
                                // submitter's bad job cannot shrink the
                                // pool for everyone else.
                                renorm = Renormalizer::new();
                                let _ = reply.send((slot, Err(panic_message(payload))));
                            }
                        }
                    }
                })
            })
            .collect();
        WorkerPool { job_tx, handles, workers }
    }

    /// Number of worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Creates a new submitter handle. Clients are independent: each one
    /// has a private reply channel and its own slot sequence, so any number
    /// of clients (across threads) can stream batches through the shared
    /// workers concurrently.
    ///
    /// A client must not be used after its pool has been dropped — jobs
    /// submitted to a dead pool are never processed.
    pub fn client(&self) -> PoolClient {
        let (reply_tx, reply_rx) = channel::<JobReply>();
        PoolClient {
            job_tx: self.job_tx.clone(),
            reply_tx,
            reply_rx,
            pool_workers: self.workers,
            next_slot: 0,
            next_result: 0,
            reordered: BTreeMap::new(),
        }
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
        // One shutdown message per worker: each consumes exactly one and
        // exits, even while clients still hold job senders. In-flight work
        // ahead of the sentinels completes first.
        for _ in 0..self.workers {
            let _ = self.job_tx.send(Job::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A per-submitter handle onto a [`WorkerPool`].
///
/// `submit` enqueues a region-renormalization job and `submit_verdict` a
/// whole-layer verdict job, each assigned the next slot of this client's
/// stream; `recv_next` / `recv_next_verdict` return results strictly in
/// submission order, buffering any that arrive early. One client therefore
/// behaves like a private pipeline through the shared workers: results come
/// back in the order the work went in, independent of the worker count and
/// of what other clients are doing.
#[derive(Debug)]
pub struct PoolClient {
    job_tx: Sender<Job>,
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
}

impl PoolClient {
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
        self.enqueue(layer, Task::Region { region, node_size })
    }

    /// Enqueues one whole-layer verdict job — does `layer` span a
    /// `target_side` lattice at this node size, per
    /// [`Renormalizer::spans_target`] — and returns its slot; receive the
    /// verdict with [`PoolClient::recv_next_verdict`].
    pub fn submit_verdict(
        &mut self,
        layer: &Arc<PhysicalLayer>,
        node_size: usize,
        target_side: usize,
    ) -> usize {
        self.enqueue(layer, Task::Verdict { node_size, target_side })
    }

    fn enqueue(&mut self, layer: &Arc<PhysicalLayer>, task: Task) -> usize {
        let slot = self.next_slot;
        self.next_slot += 1;
        let item = WorkItem { layer: Arc::clone(layer), task, slot, reply: self.reply_tx.clone() };
        self.job_tx.send(Job::Work(Box::new(item))).expect("worker pool hung up");
        slot
    }

    /// Number of submitted jobs whose results have not been received yet.
    pub fn in_flight(&self) -> usize {
        self.next_slot - self.next_result - self.reordered.len()
    }

    /// Receives the lattice of the oldest outstanding job, blocking until
    /// it is available.
    ///
    /// The pool must outlive the client's outstanding work: jobs submitted
    /// before the pool is dropped are always processed (the teardown
    /// sentinels queue behind them), but a job racing the teardown can be
    /// left unprocessed, and this call would then block forever — there is
    /// no other thread left to answer. Submitting to an already-torn-down
    /// pool fails loudly in [`PoolClient::submit`] instead.
    ///
    /// # Panics
    ///
    /// Panics when no job is outstanding, when the job itself panicked
    /// (the worker's message is relayed), or when the oldest job is a
    /// verdict job.
    pub fn recv_next(&mut self) -> RenormalizedLattice {
        match self.recv_answer() {
            Answer::Lattice(lattice) => lattice,
            Answer::Verdict(_) => panic!("the oldest outstanding job is a verdict job"),
        }
    }

    /// Receives the verdict of the oldest outstanding job, blocking until
    /// it is available; the blocking and panic rules of
    /// [`PoolClient::recv_next`] apply, with the oldest job required to be
    /// a verdict job.
    pub fn recv_next_verdict(&mut self) -> bool {
        match self.recv_answer() {
            Answer::Verdict(spans) => spans,
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
            // The channel cannot hang up while `self` holds a sender; a
            // worker answers every job it dequeues, panicking included.
            let (slot, result) = self.reply_rx.recv().expect("reply channel is open");
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

    #[test]
    fn verdict_jobs_interleave_with_region_jobs_in_slot_order() {
        use oneperc_hardware::{FusionEngine, HardwareConfig};
        let layers: Vec<Arc<PhysicalLayer>> = (0..6)
            .map(|seed| {
                let hw = HardwareConfig::new(24, 7, 0.66);
                Arc::new(FusionEngine::new(hw, seed).generate_layer())
            })
            .collect();
        let pool = WorkerPool::new(3);
        let mut client = pool.client();
        for layer in &layers {
            client.submit_verdict(layer, 6, 4);
            client.submit(layer, ModuleRegion::whole_layer(layer), 6);
        }
        let mut reference = Renormalizer::new();
        let mut verdicts = Vec::new();
        for layer in &layers {
            let spans = client.recv_next_verdict();
            assert_eq!(spans, reference.spans_target(layer, 6, 4));
            assert_eq!(client.recv_next(), reference.renormalize(layer, 6));
            verdicts.push(spans);
        }
        assert_eq!(client.in_flight(), 0);
        assert!(verdicts.contains(&true) && verdicts.contains(&false), "{verdicts:?}");
    }

    #[test]
    #[should_panic(expected = "verdict job")]
    fn receiving_a_verdict_as_a_lattice_panics() {
        let layer = Arc::new(PhysicalLayer::fully_connected(8, 8));
        let pool = WorkerPool::new(1);
        let mut client = pool.client();
        client.submit_verdict(&layer, 4, 2);
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
