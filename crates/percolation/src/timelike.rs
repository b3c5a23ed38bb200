//! Flexible time-like connections and the (2+1)-D reshaping driver
//! (Section 5.2).
//!
//! The [`ReshapeEngine`] consumes resource-state layers from the hardware
//! simulator one after another. Layers whose renormalization reaches the
//! target size *and* that can establish every time-like connection
//! requested by the IR program become **logical layers**, all other layers
//! become **routing layers** whose qubits are simply fused forward to the
//! next RSL. Cross-layer connections park the photons of the source node
//! in delay lines until the target layer exists.
//!
//! # Verdicts, not lattices
//!
//! Whether a merged layer reaches the target is a per-layer **verdict**:
//! the first `target_side` column and row bands all percolate
//! ([`Renormalizer::spans_target`], which states the planarity argument
//! that makes this exactly "renormalization realizes every target node").
//! The engine decides each layer with that word-parallel gate and extracts
//! no path. It keeps the buffer of the last logical layer instead, and
//! [`ReshapeEngine::last_logical_lattice`] renormalizes it only when a
//! caller asks.
//!
//! # Overlapping the stages
//!
//! The per-layer loop has three steps: *generate* (the fusion strategy
//! samples the next random layer), *decide* and *connect*. Only the connect
//! step carries state from one layer to the next: layer `i` of a run is a
//! pure function of `(config, seed, i)` ([`oneperc_hardware::layer_key`]),
//! just as each RSG cycle of the hardware yields an independent layer. So
//! generate and decide form one job per layer, submitted through the
//! engine's [`PoolClient`] and answered with the layer's counters and
//! verdict only; each job generates its layer into the running thread's
//! own buffer, so layers never cross threads. While the engine waits for
//! the oldest answer it runs queued jobs itself.
//!
//! That one path serves every worker count. An engine built with
//! [`ReshapeEngine::with_renorm_client`] on a shared
//! [`WorkerPool`](crate::WorkerPool) keeps a window of upcoming layer jobs
//! there while it connects the current layer, so one worker plus the
//! engine keep two cores busy. [`ReshapeEngine::new`] gives the engine a
//! client with a private queue and no workers, and a window of one job:
//! the engine submits each layer's job and runs it when it waits for it.
//!
//! Determinism is preserved by construction: every job is a pure function
//! of its key, answers are consumed in stream order, and time-like fusion
//! outcomes come from a *separate* sampler seeded from the configuration
//! and drawn only in the engine thread. With a fixed seed an engine
//! therefore produces identical [`LogicalLayerReport`]s and byte-identical
//! on-demand [`RenormalizedLattice`]s whatever the pool's worker count,
//! none included — the contract enforced by `tests/pipeline_determinism.rs`.

use crate::sync::Arc;

use graphstate::FusionOutcome;
use oneperc_hardware::{
    DelayLine, FusionSampler, GenerationPlan, GenerationScratch, HardwareConfig, PhysicalLayer,
};

use crate::cancel::CancelToken;
use crate::pool::{LayerJob, LayerSummary, PoolClient};
use crate::renormalize::{renormalize, RenormalizedLattice};

/// One time-like edge requested by the IR program for the layer currently
/// being formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalRequirement {
    /// Coarse coordinate of the node on the layer being formed.
    pub coord: (usize, usize),
    /// How many logical layers back the partner node lives (`1` means the
    /// immediately preceding logical layer, larger values are cross-layer
    /// connections realized through delay lines).
    pub back_distance: usize,
}

/// Everything the online pass must realize for one virtual-hardware layer.
#[derive(Debug, Clone, Default)]
pub struct LayerRequirement {
    /// Time-like edges terminating on this layer.
    pub temporal_edges: Vec<TemporalRequirement>,
    /// Number of nodes of this layer that will be stored into the virtual
    /// memory (delay lines) for later cross-layer edges.
    pub stores: usize,
    /// Number of stored nodes retrieved from the virtual memory at this
    /// layer.
    pub retrieves: usize,
}

impl LayerRequirement {
    /// A layer with no time-like obligations (the first logical layer of a
    /// program).
    pub fn none() -> Self {
        Self::default()
    }
}

/// Configuration of the reshaping engine.
#[derive(Debug, Clone, Copy)]
pub struct ReshapeConfig {
    /// Hardware model to draw resource-state layers from.
    pub hardware: HardwareConfig,
    /// Average node size used by the 2D renormalization.
    pub node_size: usize,
    /// Side of the virtual-hardware layer the renormalization must reach.
    pub target_side: usize,
    /// Number of photons fused in parallel per time-like hop (the "set of
    /// physical qubits around the preceding node").
    pub temporal_redundancy: usize,
    /// Safety cap on the number of merged layers consumed per logical layer.
    pub max_layers_per_logical: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ReshapeConfig {
    /// Creates a configuration with the default redundancy (4) and safety
    /// cap (2048 merged layers per logical layer).
    ///
    /// # Panics
    ///
    /// Panics when the target lattice does not fit in the RSL
    /// (`target_side * node_size > rsl_size`).
    pub fn new(hardware: HardwareConfig, node_size: usize, target_side: usize, seed: u64) -> Self {
        assert!(
            target_side * node_size <= hardware.rsl_size,
            "target {target_side} x node size {node_size} exceeds the RSL size {}",
            hardware.rsl_size
        );
        ReshapeConfig {
            hardware,
            node_size,
            target_side,
            temporal_redundancy: 4,
            max_layers_per_logical: 2048,
            seed,
        }
    }

    /// Overrides the per-hop redundancy.
    #[must_use]
    pub fn with_temporal_redundancy(mut self, redundancy: usize) -> Self {
        assert!(redundancy > 0, "redundancy must be positive");
        self.temporal_redundancy = redundancy;
        self
    }

    /// Overrides the RNG seed (the stochastic stream restarts from it).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Seed of the dedicated time-like fusion sampler. Time-like hops draw
    /// from their own stream, the only one that runs through the layers in
    /// order.
    fn timelike_seed(&self) -> u64 {
        // Fixed odd multiplier decorrelates the two streams per seed.
        self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x5EED)
    }
}

/// Outcome of forming one logical layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogicalLayerReport {
    /// Whether the logical layer was formed within the safety cap.
    pub formed: bool,
    /// Whether the attempt stopped at a cancellation checkpoint (see
    /// [`ReshapeEngine::advance_logical_layer_cancellable`]). A cancelled
    /// report is never `formed`; its counters cover the merged layers
    /// consumed before the checkpoint fired.
    pub cancelled: bool,
    /// Merged layers consumed (logical + routing) for this logical layer.
    pub merged_layers: usize,
    /// Raw RSLs consumed for this logical layer.
    pub raw_rsl: u64,
    /// Merged layers that failed 2D renormalization.
    pub renorm_failures: usize,
    /// Merged layers that renormalized but failed a time-like connection.
    pub timelike_failures: usize,
}

/// Cumulative statistics of a reshaping run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReshapeStats {
    /// Logical layers formed so far.
    pub logical_layers: u64,
    /// Routing layers consumed so far.
    pub routing_layers: u64,
    /// Merged layers consumed so far (logical + routing).
    pub merged_layers: u64,
    /// Raw RSLs consumed so far (the paper's `#RSL`).
    pub raw_rsl: u64,
    /// Fusions attempted so far (the paper's `#fusion`), including the bulk
    /// forward-fusions of routing layers.
    pub fusions_attempted: u64,
    /// Fusions that succeeded.
    pub fusions_succeeded: u64,
    /// Largest number of node bundles simultaneously parked in delay lines.
    pub delay_line_peak: usize,
    /// Node bundles lost to photon decay in the delay lines.
    pub delay_line_expired: u64,
}

impl ReshapeStats {
    /// The PL ratio — merged layers consumed per logical layer (Fig. 13(b)).
    pub fn pl_ratio(&self) -> f64 {
        if self.logical_layers == 0 {
            0.0
        } else {
            self.merged_layers as f64 / self.logical_layers as f64
        }
    }
}

/// The (2+1)-D reshaping driver.
///
/// # Example
///
/// ```
/// use oneperc_hardware::HardwareConfig;
/// use oneperc_percolation::{LayerRequirement, ReshapeConfig, ReshapeEngine};
///
/// let hw = HardwareConfig::new(36, 7, 0.78);
/// let mut engine = ReshapeEngine::new(ReshapeConfig::new(hw, 12, 3, 1));
/// let report = engine.advance_logical_layer(&LayerRequirement::none());
/// assert!(report.formed);
/// assert!(engine.stats().logical_layers >= 1);
/// ```
#[derive(Debug)]
pub struct ReshapeEngine {
    config: ReshapeConfig,
    /// What the configuration fixes about layer generation, shared with
    /// every layer job.
    plan: Arc<GenerationPlan>,
    /// Dedicated sampler for time-like fusion outcomes, drawn in the engine
    /// thread only.
    timelike: FusionSampler,
    delay: DelayLine<(usize, usize)>,
    stats: ReshapeStats,
    routing_since_logical: usize,
    next_store_key: u64,
    stored_keys: Vec<u64>,
    /// Bulk-accounted forward fusions of routing layers (not drawn through
    /// the sampler to keep large-RSL runs fast).
    bulk_attempted: u64,
    bulk_succeeded: u64,
    /// Layer-pattern fusions accumulated from *consumed* layers. Counting
    /// at consumption (not submission) keeps the totals identical for any
    /// worker count, while the pool's window runs ahead.
    layer_attempted: u64,
    layer_succeeded: u64,
    /// Index of the next layer of the stream to consume.
    consumed: u64,
    /// Index of the most recent logical layer, if any; it is regenerated
    /// from its key for [`ReshapeEngine::last_logical_lattice`].
    last_logical: Option<u64>,
    /// Where the layer jobs run: a worker pool's client, or a client with
    /// no workers, which runs each job in this thread when the engine
    /// waits for it. Its scratch (and the pool's workers) is reused across
    /// every RSL this engine consumes, and across [`ReshapeEngine::reset`]s.
    client: PoolClient,
    /// Jobs for layers `consumed..submitted` are in flight.
    submitted: u64,
    /// Jobs the engine keeps in flight, so a pool always has work while
    /// the engine connects the current layer.
    lookahead: u64,
}

impl ReshapeEngine {
    /// Creates an engine that generates and decides layers in-thread: its
    /// client has no workers, so the engine runs each layer job itself
    /// when it waits for it. Use [`ReshapeEngine::with_renorm_client`] to
    /// run them on a worker pool instead.
    pub fn new(config: ReshapeConfig) -> Self {
        Self::with_renorm_client(config, PoolClient::in_thread())
    }

    /// Creates an engine whose layer jobs (generate and decide) run
    /// through `client`. A client obtained from
    /// [`WorkerPool::client`](crate::WorkerPool::client) puts them on the
    /// pool's workers, and several engines (one per session lane) can
    /// stream through one pool concurrently. Results are byte-identical
    /// for any pool size, and to [`ReshapeEngine::new`].
    ///
    /// The pool must outlive this engine.
    pub fn with_renorm_client(config: ReshapeConfig, client: PoolClient) -> Self {
        // Two jobs for each worker and for the helping engine, so a thread
        // that finishes a job always finds another queued, capped to bound
        // the work thrown away when a run ends with jobs in flight. With no
        // worker, one: the engine never runs a job it does not consume.
        let workers = client.pool_workers() as u64;
        let lookahead = if workers == 0 { 1 } else { (2 * (workers + 1)).min(8) };
        ReshapeEngine {
            config,
            plan: Arc::new(GenerationPlan::new(config.hardware)),
            timelike: FusionSampler::new(
                config.hardware.effective_fusion_prob(),
                config.timelike_seed(),
            ),
            delay: DelayLine::new(config.hardware.photon_lifetime_cycles),
            stats: ReshapeStats::default(),
            routing_since_logical: 0,
            next_store_key: 0,
            stored_keys: Vec::new(),
            bulk_attempted: 0,
            bulk_succeeded: 0,
            layer_attempted: 0,
            layer_succeeded: 0,
            consumed: 0,
            last_logical: None,
            client,
            submitted: 0,
            lookahead,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ReshapeConfig {
        &self.config
    }

    /// Restarts the engine's stochastic execution from `seed`, exactly as
    /// if it had been freshly constructed with that seed, while keeping
    /// every warm resource alive: the generation plan, the job scratch and
    /// the worker pool are retained. This is what makes a long-lived
    /// session lane cheap: repeated seeded executions pay no thread or
    /// allocation startup.
    ///
    /// Byte-for-byte equivalence with a cold engine is the contract tested
    /// by `warm_reset_matches_cold_engine` and the session determinism
    /// suite.
    pub fn reset(&mut self, seed: u64) {
        // Drain the window first: its jobs belong to the old stream, and
        // their answers must not reach the new one. A worker-less engine
        // has none in flight.
        for _ in self.consumed..self.submitted {
            let _ = self.client.recv_next();
        }
        self.submitted = 0;
        self.config.seed = seed;
        self.consumed = 0;
        self.last_logical = None;
        self.timelike = FusionSampler::new(
            self.config.hardware.effective_fusion_prob(),
            self.config.timelike_seed(),
        );
        self.delay = DelayLine::new(self.config.hardware.photon_lifetime_cycles);
        self.stats = ReshapeStats::default();
        self.routing_since_logical = 0;
        self.next_store_key = 0;
        self.stored_keys.clear();
        self.bulk_attempted = 0;
        self.bulk_succeeded = 0;
        self.layer_attempted = 0;
        self.layer_succeeded = 0;
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &ReshapeStats {
        &self.stats
    }

    /// The renormalized lattice realizing the most recent logical layer,
    /// built on demand: the engine regenerates that layer from its key and
    /// renormalizes it here with fresh scratch. Every target node
    /// `(i, j)`, `i, j < target_side`, of the result is realized.
    pub fn last_logical_lattice(&self) -> Option<RenormalizedLattice> {
        let index = self.last_logical?;
        let mut layer = PhysicalLayer::blank(1, 1);
        let mut scratch = GenerationScratch::default();
        self.plan.generate_into(self.config.seed, index, &mut scratch, &mut layer);
        Some(renormalize(&layer, self.config.node_size))
    }

    /// The summary of the next layer of the stream: its counters and its
    /// verdict, whether it renormalizes to the target lattice.
    ///
    /// The engine first tops the window up with the jobs of upcoming
    /// layers, then waits for the oldest answer (running queued jobs while
    /// it waits). Every layer of the stream is consumed in order whatever
    /// its logical/routing fate, so a job submitted ahead is wasted only
    /// when the run ends, and because the answers are consumed in
    /// submission order they are the same for any worker count.
    fn next_summary(&mut self) -> LayerSummary {
        let index = self.consumed;
        self.consumed += 1;
        while self.submitted < index + self.lookahead {
            self.client.submit(LayerJob {
                plan: Arc::clone(&self.plan),
                seed: self.config.seed,
                index: self.submitted,
                node_size: self.config.node_size,
                target_side: self.config.target_side,
            });
            self.submitted += 1;
        }
        self.client.recv_next()
    }

    /// Consumes resource-state layers until one of them becomes a logical
    /// layer satisfying `requirement`, or the safety cap is hit.
    ///
    /// A layer decided ahead but not yet consumed when a logical layer
    /// forms simply waits in the window and is the first layer of the next
    /// call, so the stream order is the same for any worker count.
    pub fn advance_logical_layer(&mut self, requirement: &LayerRequirement) -> LogicalLayerReport {
        self.advance_logical_layer_impl(requirement, None)
    }

    /// [`ReshapeEngine::advance_logical_layer`] with a cooperative
    /// cancellation checkpoint: `cancel` is polled **before each merged
    /// layer is consumed**, and a cancelled token stops the attempt right
    /// there — the returned report has
    /// [`cancelled`](LogicalLayerReport::cancelled) set, is never
    /// `formed`, and its counters cover only the layers consumed before
    /// the checkpoint fired.
    ///
    /// A token that is never cancelled leaves the run byte-identical to
    /// [`ReshapeEngine::advance_logical_layer`]: the checkpoint reads a
    /// flag, it never draws from any stochastic stream.
    pub fn advance_logical_layer_cancellable(
        &mut self,
        requirement: &LayerRequirement,
        cancel: &CancelToken,
    ) -> LogicalLayerReport {
        self.advance_logical_layer_impl(requirement, Some(cancel))
    }

    fn advance_logical_layer_impl(
        &mut self,
        requirement: &LayerRequirement,
        cancel: Option<&CancelToken>,
    ) -> LogicalLayerReport {
        let mut report = LogicalLayerReport::default();
        let merging = self.config.hardware.merging_factor() as u64;

        while report.merged_layers < self.config.max_layers_per_logical {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                report.cancelled = true;
                self.update_fusion_totals();
                return report;
            }
            // Generate + decide: collected from the job submitted for this
            // layer, which a pool worker or this thread ran.
            let layer = self.next_summary();
            report.merged_layers += 1;
            report.raw_rsl += layer.raw_rsl;
            self.stats.merged_layers += 1;
            self.stats.raw_rsl += layer.raw_rsl;
            self.layer_attempted += layer.attempted;
            self.layer_succeeded += layer.succeeded;
            // Every merged layer advances the delay-line clock by the number
            // of raw RSG cycles it took to produce.
            for _ in 0..layer.raw_rsl {
                self.stats.delay_line_expired += self.delay.advance_cycle() as u64;
            }

            if !layer.spans {
                report.renorm_failures += 1;
                self.absorb_routing_layer(&layer);
                self.update_fusion_totals();
                continue;
            }

            // Renormalization succeeded: try to establish every requested
            // time-like connection through the routing layers in between.
            let hops = self.routing_since_logical + 1;
            let mut all_ok = true;
            for edge in &requirement.temporal_edges {
                if !self.establish_connection(edge, hops, merging) {
                    all_ok = false;
                    break;
                }
            }

            if !all_ok {
                report.timelike_failures += 1;
                self.absorb_routing_layer(&layer);
                self.update_fusion_totals();
                continue;
            }

            // Logical layer formed. Update delay-line bookkeeping for the
            // stores/retrieves the IR schedules at this layer.
            for _ in 0..requirement.retrieves {
                if let Some(key) = self.stored_keys.pop() {
                    let _ = self.delay.retrieve(key);
                }
            }
            for _ in 0..requirement.stores {
                let key = self.next_store_key;
                self.next_store_key += 1;
                self.delay.store(key, (0, 0));
                self.stored_keys.push(key);
            }
            self.stats.delay_line_peak = self.stats.delay_line_peak.max(self.delay.len());

            self.stats.logical_layers += 1;
            self.routing_since_logical = 0;
            self.last_logical = Some(self.consumed - 1);
            self.update_fusion_totals();
            report.formed = true;
            return report;
        }

        self.update_fusion_totals();
        report
    }

    /// Establishes one time-like connection: the photons around the source
    /// node must be fused forward through every intervening layer, each hop
    /// succeeding when at least one of `temporal_redundancy` parallel
    /// fusions succeeds.
    fn establish_connection(
        &mut self,
        edge: &TemporalRequirement,
        hops: usize,
        merging: u64,
    ) -> bool {
        // Cross-layer connections must additionally have survived the delay
        // lines: the stored photons waited `back_distance`-ish logical
        // layers, i.e. roughly pl_ratio * merging RSG cycles per layer.
        if edge.back_distance > 1 {
            let waited = (edge.back_distance as u64)
                * merging
                * self.stats.pl_ratio().max(1.0) as u64;
            if waited > self.config.hardware.photon_lifetime_cycles as u64 {
                return false;
            }
        }
        for _ in 0..hops {
            let mut hop_ok = false;
            for _ in 0..self.config.temporal_redundancy {
                if self.timelike.sample() == FusionOutcome::Success {
                    hop_ok = true;
                    break;
                }
            }
            if !hop_ok {
                return false;
            }
        }
        true
    }

    /// Accounts for a routing layer: all of its qubits with available
    /// temporal ports are fused forward to the next RSL (grey fusions of
    /// Fig. 9(c)). The fusions are accounted in bulk to avoid per-site
    /// sampling cost on large RSLs.
    fn absorb_routing_layer(&mut self, layer: &LayerSummary) {
        self.routing_since_logical += 1;
        self.stats.routing_layers += 1;
        let forward = layer.sites;
        self.bulk_attempted += forward;
        self.bulk_succeeded +=
            (forward as f64 * self.config.hardware.effective_fusion_prob()).round() as u64;
    }

    /// Recomputes the cumulative fusion totals: the layer-pattern fusions
    /// of every consumed layer, the time-like hop draws, and the
    /// bulk-accounted forward fusions of routing layers.
    fn update_fusion_totals(&mut self) {
        let timelike = self.timelike.stats();
        self.stats.fusions_attempted =
            self.layer_attempted + timelike.attempted + self.bulk_attempted;
        self.stats.fusions_succeeded =
            self.layer_succeeded + timelike.succeeded + self.bulk_succeeded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;

    fn small_config(p: f64, seed: u64) -> ReshapeConfig {
        ReshapeConfig::new(HardwareConfig::new(36, 7, p), 12, 3, seed)
    }

    /// An engine renormalizing on `pool`, or in-thread without one.
    fn engine_on(config: ReshapeConfig, pool: Option<&WorkerPool>) -> ReshapeEngine {
        match pool {
            Some(pool) => ReshapeEngine::with_renorm_client(config, pool.client()),
            None => ReshapeEngine::new(config),
        }
    }

    #[test]
    fn first_logical_layer_forms_quickly_at_high_probability() {
        let mut engine = ReshapeEngine::new(small_config(0.9, 3));
        let report = engine.advance_logical_layer(&LayerRequirement::none());
        assert!(report.formed);
        assert!(report.merged_layers <= 4, "took {} layers", report.merged_layers);
        assert_eq!(engine.stats().logical_layers, 1);
        assert!(engine.last_logical_lattice().is_some());
    }

    #[test]
    fn last_logical_lattice_renormalizes_the_formed_layer() {
        for workers in [0usize, 2] {
            let config = small_config(0.62, 41);
            let pool = (workers > 0).then(|| WorkerPool::new(workers));
            let mut engine = engine_on(config, pool.as_ref());
            // Regenerates each logical layer from its key: it is the last
            // merged layer consumed so far.
            let plan = GenerationPlan::new(config.hardware);
            let mut scratch = GenerationScratch::default();
            let mut layer = PhysicalLayer::blank(1, 1);
            assert!(engine.last_logical_lattice().is_none());
            for _ in 0..4 {
                let report = engine.advance_logical_layer(&LayerRequirement::none());
                assert!(report.formed);
                let index = engine.stats().merged_layers - 1;
                plan.generate_into(config.seed, index, &mut scratch, &mut layer);
                let lattice = engine.last_logical_lattice().expect("a logical layer formed");
                assert_eq!(lattice, renormalize(&layer, config.node_size), "workers={workers}");
                assert!(lattice.is_success(), "workers={workers}");
            }
            assert!(engine.stats().routing_layers > 0, "the stream should include routing layers");
            engine.reset(7);
            assert!(engine.last_logical_lattice().is_none(), "reset must clear the layer");
        }
    }

    #[test]
    fn cancelled_token_stops_before_consuming_a_layer() {
        let mut engine = ReshapeEngine::new(small_config(0.9, 3));
        let token = CancelToken::new();
        token.cancel();
        let report = engine.advance_logical_layer_cancellable(&LayerRequirement::none(), &token);
        assert!(report.cancelled);
        assert!(!report.formed);
        assert_eq!(report.merged_layers, 0, "checkpoint fires before the first layer");
        assert_eq!(engine.stats().merged_layers, 0, "no stream consumption after cancel");
        // The engine stays serviceable: a live token runs to completion…
        let live = CancelToken::new();
        let next = engine.advance_logical_layer_cancellable(&LayerRequirement::none(), &live);
        assert!(next.formed);
        assert!(!next.cancelled);
        // …and is byte-identical to the plain path on a fresh engine.
        let mut plain = ReshapeEngine::new(small_config(0.9, 3));
        let reference = plain.advance_logical_layer(&LayerRequirement::none());
        assert_eq!(next, reference, "a never-cancelled checkpoint must not perturb the stream");
    }

    #[test]
    fn temporal_edges_increase_layer_cost() {
        let no_edges = {
            let mut engine = ReshapeEngine::new(small_config(0.72, 5));
            let mut total = 0;
            for _ in 0..6 {
                total += engine.advance_logical_layer(&LayerRequirement::none()).merged_layers;
            }
            total
        };
        let with_edges = {
            let mut engine = ReshapeEngine::new(small_config(0.72, 5));
            let req = LayerRequirement {
                temporal_edges: (0..3)
                    .flat_map(|i| {
                        (0..3).map(move |j| TemporalRequirement { coord: (i, j), back_distance: 1 })
                    })
                    .collect(),
                stores: 0,
                retrieves: 0,
            };
            let mut total = 0;
            for _ in 0..6 {
                total += engine.advance_logical_layer(&req).merged_layers;
            }
            total
        };
        assert!(
            with_edges >= no_edges,
            "temporal obligations should not make layers cheaper ({with_edges} vs {no_edges})"
        );
    }

    #[test]
    fn pl_ratio_is_reported() {
        let mut engine = ReshapeEngine::new(small_config(0.75, 7));
        for _ in 0..5 {
            let report = engine.advance_logical_layer(&LayerRequirement::none());
            assert!(report.formed);
        }
        let stats = engine.stats();
        assert_eq!(stats.logical_layers, 5);
        assert!(stats.pl_ratio() >= 1.0);
        assert_eq!(stats.merged_layers, stats.logical_layers + stats.routing_layers);
        assert!(stats.raw_rsl >= stats.merged_layers);
    }

    #[test]
    fn raw_rsl_scales_with_merging_factor() {
        // 4-qubit resource states merge 3 raw RSLs per layer.
        let hw = HardwareConfig::new(36, 4, 0.9);
        let mut engine = ReshapeEngine::new(ReshapeConfig::new(hw, 12, 3, 2));
        let report = engine.advance_logical_layer(&LayerRequirement::none());
        assert!(report.formed);
        assert_eq!(report.raw_rsl, 3 * report.merged_layers as u64);
    }

    #[test]
    fn stores_and_retrieves_tracked_in_delay_lines() {
        let mut engine = ReshapeEngine::new(small_config(0.85, 9));
        let store_req = LayerRequirement { temporal_edges: vec![], stores: 2, retrieves: 0 };
        let retrieve_req = LayerRequirement { temporal_edges: vec![], stores: 0, retrieves: 2 };
        engine.advance_logical_layer(&store_req);
        assert_eq!(engine.stats().delay_line_peak, 2);
        engine.advance_logical_layer(&retrieve_req);
        assert_eq!(engine.delay.len(), 0);
    }

    #[test]
    fn impossible_target_hits_safety_cap() {
        // Target size equal to the RSL side with node size 1 cannot be
        // renormalized from a random layer at p = 0.66.
        let hw = HardwareConfig::new(12, 7, 0.66);
        let mut config = ReshapeConfig::new(hw, 1, 12, 4);
        config.max_layers_per_logical = 10;
        let mut engine = ReshapeEngine::new(config);
        let report = engine.advance_logical_layer(&LayerRequirement::none());
        assert!(!report.formed);
        assert_eq!(report.merged_layers, 10);
        assert_eq!(engine.stats().logical_layers, 0);
    }

    #[test]
    fn fusion_accounting_grows_with_layers() {
        let mut engine = ReshapeEngine::new(small_config(0.75, 11));
        engine.advance_logical_layer(&LayerRequirement::none());
        let after_one = engine.stats().fusions_attempted;
        engine.advance_logical_layer(&LayerRequirement::none());
        let after_two = engine.stats().fusions_attempted;
        assert!(after_one > 0);
        assert!(after_two > after_one);
    }

    #[test]
    #[should_panic(expected = "exceeds the RSL size")]
    fn oversized_target_panics() {
        let hw = HardwareConfig::new(20, 7, 0.75);
        let _ = ReshapeConfig::new(hw, 12, 3, 0);
    }

    #[test]
    fn pipelined_engine_drops_cleanly_with_prefetched_layer() {
        // The pooled backend runs layer jobs a window ahead; dropping the
        // engine while those jobs are still in flight, then the pool,
        // must join the pool's workers, not hang.
        let pool = WorkerPool::new(2);
        let mut engine = ReshapeEngine::with_renorm_client(small_config(0.85, 3), pool.client());
        let report = engine.advance_logical_layer(&LayerRequirement::none());
        assert!(report.formed);
        drop(engine);
        drop(pool);
    }

    /// Drives an engine through `logical` layers and returns the final
    /// stats plus every formed lattice.
    fn drive(
        engine: &mut ReshapeEngine,
        logical: usize,
    ) -> (ReshapeStats, Vec<Option<RenormalizedLattice>>) {
        let req = LayerRequirement {
            temporal_edges: vec![TemporalRequirement { coord: (1, 1), back_distance: 1 }],
            stores: 1,
            retrieves: 0,
        };
        let lattices = (0..logical)
            .map(|_| {
                let report = engine.advance_logical_layer(&req);
                assert!(report.formed);
                engine.last_logical_lattice()
            })
            .collect();
        (*engine.stats(), lattices)
    }

    #[test]
    fn warm_reset_matches_cold_engine() {
        for workers in [0usize, 2] {
            let config = small_config(0.75, 3);
            let pool = (workers > 0).then(|| WorkerPool::new(workers));
            let mut warm = engine_on(config, pool.as_ref());
            // Dirty the warm engine with a different-seed run first.
            let _ = drive(&mut warm, 3);
            warm.reset(91);
            assert_eq!(warm.config().seed, 91);
            let mut cold = engine_on(config.with_seed(91), pool.as_ref());
            let a = drive(&mut warm, 5);
            let b = drive(&mut cold, 5);
            assert_eq!(a, b, "workers={workers}");
        }
    }

    #[test]
    fn repeated_resets_reproduce_the_same_run() {
        let config = small_config(0.72, 17);
        let mut engine = ReshapeEngine::new(config);
        engine.reset(55);
        let first = drive(&mut engine, 4);
        for _ in 0..3 {
            engine.reset(55);
            assert_eq!(drive(&mut engine, 4), first);
        }
    }

    #[test]
    fn worker_less_engine_runs_each_layer_job_once() {
        // With no worker the window is one job, so every job the engine
        // submits is one it consumes: across resets and a cancelled run,
        // the jobs its client ran equal the merged layers consumed.
        let config = small_config(0.72, 23);
        let mut engine = ReshapeEngine::new(config);
        let mut consumed = 0;
        for (seed, cancel_after) in [(23, None), (31, Some(2)), (47, None)] {
            engine.reset(seed);
            let mut cold = ReshapeEngine::new(config.with_seed(seed));
            match cancel_after {
                None => assert_eq!(drive(&mut engine, 4), drive(&mut cold, 4), "seed {seed}"),
                Some(logical) => {
                    assert_eq!(drive(&mut engine, logical), drive(&mut cold, logical));
                    let cancelled = CancelToken::new();
                    cancelled.cancel();
                    let req = LayerRequirement::none();
                    let report = engine.advance_logical_layer_cancellable(&req, &cancelled);
                    assert!(report.cancelled);
                    assert_eq!(report, cold.advance_logical_layer_cancellable(&req, &cancelled));
                }
            }
            consumed += engine.stats().merged_layers as usize;
            assert_eq!(engine.client.helped, consumed, "seed {seed}");
        }
    }

    #[test]
    fn pooled_renormalization_is_byte_identical_to_local() {
        let base = small_config(0.75, 29);
        let mut local = ReshapeEngine::new(base);
        let expected = drive(&mut local, 5);
        // 1 worker, several, and oversubscribed — all must match the
        // in-thread lattices exactly.
        for workers in [1usize, 2, 5] {
            let pool = WorkerPool::new(workers);
            let mut pooled = ReshapeEngine::with_renorm_client(base, pool.client());
            assert_eq!(drive(&mut pooled, 5), expected, "workers = {workers}");
        }
    }

    #[test]
    fn engines_sharing_one_pool_match_private_engines() {
        // Two engines with different seeds stream through one shared pool
        // concurrently; each must reproduce its in-thread run.
        let pool = WorkerPool::new(2);
        let config_a = small_config(0.78, 101);
        let config_b = small_config(0.78, 202);
        let mut shared_a = ReshapeEngine::with_renorm_client(config_a, pool.client());
        let mut shared_b = ReshapeEngine::with_renorm_client(config_b, pool.client());
        let (got_a, got_b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| drive(&mut shared_a, 4));
            let b = scope.spawn(|| drive(&mut shared_b, 4));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(got_a, drive(&mut ReshapeEngine::new(config_a), 4));
        assert_eq!(got_b, drive(&mut ReshapeEngine::new(config_b), 4));
    }

    #[test]
    fn fusion_totals_count_consumed_layers_and_timelike_draws() {
        // Layers generated ahead but not yet consumed must not inflate the
        // totals: a pooled engine that consumed k layers reports exactly
        // the same attempt count as an in-thread engine that consumed k.
        let config = small_config(0.72, 19);
        let mut serial = ReshapeEngine::new(config);
        let pool = WorkerPool::new(2);
        let mut pooled = ReshapeEngine::with_renorm_client(config, pool.client());
        for _ in 0..4 {
            serial.advance_logical_layer(&LayerRequirement::none());
            pooled.advance_logical_layer(&LayerRequirement::none());
        }
        assert_eq!(serial.stats().fusions_attempted, pooled.stats().fusions_attempted);
        assert_eq!(serial.stats().fusions_succeeded, pooled.stats().fusions_succeeded);
        assert!(serial.stats().fusions_attempted > 0);
    }
}
