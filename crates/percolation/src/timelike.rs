//! Flexible time-like connections and the (2+1)-D reshaping driver
//! (Section 5.2).
//!
//! The [`ReshapeEngine`] consumes resource-state layers from the hardware
//! simulator one after another. Each layer is renormalized; layers whose
//! renormalization reaches the target size *and* that can establish every
//! time-like connection requested by the IR program become **logical
//! layers**, all other layers become **routing layers** whose qubits are
//! simply fused forward to the next RSL. Cross-layer connections park the
//! photons of the source node in delay lines until the target layer exists.
//!
//! # Overlapping the stages
//!
//! The per-layer loop has three steps: *generate* (the fusion strategy
//! samples the next random layer), *renormalize* and *connect*. Only the
//! connect step carries state from one layer to the next, so with
//! [`ReshapeConfig::with_renorm_workers`] the engine generates upcoming
//! layers in-thread and renormalizes them on a [`WorkerPool`] a few layers
//! ahead, while it connects the current one.
//!
//! Determinism is preserved by construction: layers are generated from
//! the same seeded sampler in the same order whatever the worker count,
//! lattices are consumed in stream order, and time-like fusion outcomes
//! come from a *separate* sampler seeded from the configuration, so
//! renormalizing ahead never reorders RNG draws. With a fixed seed the
//! pooled engine therefore produces byte-identical
//! [`RenormalizedLattice`]s and identical [`LogicalLayerReport`]s to the
//! in-thread engine — the contract enforced by
//! `tests/pipeline_determinism.rs`.

use std::collections::VecDeque;
use crate::sync::Arc;

use graphstate::FusionOutcome;
use oneperc_hardware::{DelayLine, FusionEngine, FusionSampler, HardwareConfig, PhysicalLayer};

use crate::cancel::CancelToken;
use crate::pool::{ModuleRegion, PoolClient, WorkerPool};
use crate::renormalize::{RenormalizedLattice, Renormalizer};

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
    /// Worker threads renormalizing layers on a persistent pool (`0` =
    /// renormalize in-thread). With workers the engine submits upcoming
    /// layers of the stream to the pool a few layers ahead and consumes the
    /// lattices strictly in stream order, so the output is byte-identical
    /// to the in-thread path for any worker count.
    pub renorm_workers: usize,
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
            renorm_workers: 0,
        }
    }

    /// Overrides the per-hop redundancy.
    #[must_use]
    pub fn with_temporal_redundancy(mut self, redundancy: usize) -> Self {
        assert!(redundancy > 0, "redundancy must be positive");
        self.temporal_redundancy = redundancy;
        self
    }

    /// Sets the renormalization worker count (`0` = in-thread). Results are
    /// independent of the worker count; only the wall-clock changes.
    #[must_use]
    pub fn with_renorm_workers(mut self, workers: usize) -> Self {
        self.renorm_workers = workers;
        self
    }

    /// Overrides the RNG seed (the stochastic stream restarts from it).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Seed of the dedicated time-like fusion sampler. Time-like hops draw
    /// from their own stream so that generating layers ahead for the pool
    /// never reorders the layer-pattern draws.
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
    /// Generates the merged layers, in-thread. Boxed to keep the engine
    /// small to move.
    generator: Box<FusionEngine>,
    /// Reusable layer buffer: each merged layer is generated in place, so
    /// the steady-state per-RSL loop performs no layer allocation.
    buf: Option<PhysicalLayer>,
    /// Dedicated sampler for time-like fusion outcomes. Kept separate from
    /// the layer-pattern stream so the pooled backend can generate ahead
    /// without reordering any RNG draw.
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
    /// at consumption (not generation) keeps the in-thread and pooled
    /// totals identical even while the pool's lookahead runs ahead.
    layer_attempted: u64,
    layer_succeeded: u64,
    /// Renormalized lattice of the most recent logical layer (if any).
    last_logical: Option<RenormalizedLattice>,
    /// Where lattices come from: the in-thread renormalizer or the worker
    /// pool fed a few layers ahead. Scratch memory (or the pool's workers)
    /// is reused across every RSL this engine consumes — and across
    /// [`ReshapeEngine::reset`]s.
    renorm: RenormBackend,
}

/// A merged layer travelling through the engine: owned when generated
/// in-thread, shared while the worker pool may still hold job clones.
#[derive(Debug)]
enum LayerHolder {
    Owned(PhysicalLayer),
    Shared(Arc<PhysicalLayer>),
}

impl LayerHolder {
    fn layer(&self) -> &PhysicalLayer {
        match self {
            LayerHolder::Owned(layer) => layer,
            LayerHolder::Shared(layer) => layer,
        }
    }

    /// Reclaims the allocation for recycling when nothing else holds it.
    fn into_owned(self) -> Option<PhysicalLayer> {
        match self {
            LayerHolder::Owned(layer) => Some(layer),
            // The pool drops its clones before replying, so by consumption
            // time the engine normally holds the only reference; a shared
            // count > 1 just means the buffer cannot be recycled this time.
            LayerHolder::Shared(layer) => Arc::try_unwrap(layer).ok(),
        }
    }
}

/// Origin of the renormalized-lattice stream.
#[derive(Debug)]
enum RenormBackend {
    /// Renormalize each layer in-thread on one reusable scratch.
    Local(Renormalizer),
    /// Submit upcoming layers to a worker pool and consume the lattices in
    /// stream order. `queue` holds the layers whose jobs are in flight,
    /// oldest first; its length is kept at `lookahead` so the pool always
    /// has work while the engine connects the current layer.
    Pooled {
        client: PoolClient,
        queue: VecDeque<Arc<PhysicalLayer>>,
        lookahead: usize,
        /// The pool owned by this engine, when not shared with other
        /// engines by the caller. Declared after `client` so the client's
        /// channels close first.
        own_pool: Option<WorkerPool>,
    },
}

impl ReshapeEngine {
    /// Creates an engine. With [`ReshapeConfig::renorm_workers`] > 0 the
    /// engine owns a private [`WorkerPool`] of that size; use
    /// [`ReshapeEngine::with_renorm_client`] to share one pool between
    /// several engines instead.
    pub fn new(config: ReshapeConfig) -> Self {
        let renorm = if config.renorm_workers > 0 {
            let pool = WorkerPool::new(config.renorm_workers);
            let client = pool.client();
            RenormBackend::Pooled {
                client,
                queue: VecDeque::new(),
                lookahead: Self::lookahead_for(config.renorm_workers),
                own_pool: Some(pool),
            }
        } else {
            RenormBackend::Local(Renormalizer::new())
        };
        Self::with_backend(config, renorm)
    }

    /// Creates an engine whose layer renormalization runs on a **shared**
    /// worker pool through `client` (obtained from
    /// [`WorkerPool::client`]). Several engines — e.g. one per session lane
    /// — can stream through one pool concurrently; results are
    /// byte-identical to [`ReshapeEngine::new`] with any
    /// `renorm_workers` setting, including the in-thread path.
    ///
    /// The pool must outlive this engine.
    pub fn with_renorm_client(config: ReshapeConfig, client: PoolClient) -> Self {
        // Size the in-flight window against the pool actually behind the
        // client — `config.renorm_workers` need not agree with the shared
        // pool's size, and a lookahead below the worker count would
        // silently starve it.
        let lookahead = Self::lookahead_for(client.pool_workers().max(config.renorm_workers));
        let renorm =
            RenormBackend::Pooled { client, queue: VecDeque::new(), lookahead, own_pool: None };
        Self::with_backend(config, renorm)
    }

    /// In-flight depth of the pooled renormalization stage: one job per
    /// worker plus one so a worker never idles while the engine connects
    /// the current layer, capped to keep prefetch memory bounded.
    fn lookahead_for(workers: usize) -> usize {
        (workers.max(1) + 1).min(8)
    }

    fn with_backend(config: ReshapeConfig, renorm: RenormBackend) -> Self {
        ReshapeEngine {
            config,
            generator: Box::new(FusionEngine::new(config.hardware, config.seed)),
            buf: None,
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
            last_logical: None,
            renorm,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ReshapeConfig {
        &self.config
    }

    /// Workers of the engine-owned renormalization pool: `None` when the
    /// engine renormalizes in-thread or streams through a shared pool it
    /// does not own.
    pub fn own_pool_workers(&self) -> Option<usize> {
        match &self.renorm {
            RenormBackend::Pooled { own_pool: Some(pool), .. } => Some(pool.worker_count()),
            _ => None,
        }
    }

    /// Restarts the engine's stochastic execution from `seed`, exactly as
    /// if it had been freshly constructed with that seed, while keeping
    /// every warm resource alive: the fusion engine is reseeded in place,
    /// the renormalization scratch — or the worker pool — is retained, and
    /// the layer buffer is reused. This is what makes a long-lived session
    /// lane cheap: repeated seeded executions pay no thread or allocation
    /// startup.
    ///
    /// Byte-for-byte equivalence with a cold engine is the contract tested
    /// by `warm_reset_matches_cold_engine` and the session determinism
    /// suite.
    pub fn reset(&mut self, seed: u64) {
        // Drain the pooled lookahead first: in-flight jobs belong to the
        // old stream. Their lattices are discarded, a layer buffer kept
        // for the (about-to-be-reseeded) generator.
        if let RenormBackend::Pooled { client, queue, .. } = &mut self.renorm {
            while let Some(layer) = queue.pop_front() {
                let _ = client.recv_next();
                if let Ok(buf) = Arc::try_unwrap(layer) {
                    self.buf = Some(buf);
                }
            }
        }
        self.config.seed = seed;
        self.generator.reseed(seed);
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
        self.last_logical = None;
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &ReshapeStats {
        &self.stats
    }

    /// The renormalized lattice realizing the most recent logical layer.
    pub fn last_logical_lattice(&self) -> Option<&RenormalizedLattice> {
        self.last_logical.as_ref()
    }

    /// Produces the next merged layer of the stream together with its
    /// renormalized lattice.
    ///
    /// On the pooled backend the engine first tops the lookahead window up
    /// — generating upcoming layers and submitting them as whole-layer
    /// region jobs — then blocks on the oldest job's result. Because every
    /// layer of the stream is consumed in generation order whatever its
    /// logical/routing fate, renormalizing ahead is never speculative
    /// waste, and because region renormalization is a pure per-layer
    /// function collected in submission order, the lattices are
    /// byte-identical to the in-thread path for any worker count.
    fn next_renormalized(&mut self) -> (LayerHolder, RenormalizedLattice) {
        let ReshapeEngine { config, generator, buf, renorm, .. } = self;
        let rsl_size = config.hardware.rsl_size;
        let mut next_layer = || {
            let mut layer = buf.take().unwrap_or_else(|| PhysicalLayer::blank(rsl_size, rsl_size));
            generator.generate_layer_into(&mut layer);
            layer
        };
        match renorm {
            RenormBackend::Local(renormalizer) => {
                let layer = next_layer();
                let lattice = renormalizer.renormalize(&layer, config.node_size);
                (LayerHolder::Owned(layer), lattice)
            }
            RenormBackend::Pooled { client, queue, lookahead, .. } => {
                while queue.len() < *lookahead {
                    let layer = Arc::new(next_layer());
                    let _ = client.submit(
                        &layer,
                        ModuleRegion::whole_layer(&layer),
                        config.node_size,
                    );
                    queue.push_back(layer);
                }
                let lattice = client.recv_next();
                let layer = queue.pop_front().expect("lookahead queue is non-empty");
                (LayerHolder::Shared(layer), lattice)
            }
        }
    }

    /// Keeps a consumed layer's allocation for the next layer when the
    /// engine holds it exclusively again.
    fn recycle_holder(&mut self, holder: LayerHolder) {
        if let Some(buf) = holder.into_owned() {
            self.buf = Some(buf);
        }
    }

    /// Consumes resource-state layers until one of them becomes a logical
    /// layer satisfying `requirement`, or the safety cap is hit.
    ///
    /// On the pooled backend a layer renormalized ahead but not yet consumed
    /// when a logical layer forms simply waits in the lookahead queue and is
    /// the first layer of the next call, so the stream order matches the
    /// in-thread path exactly.
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
            // Generate + renormalize: in-thread, or collected from the
            // worker pool that was fed this layer a few steps ago.
            let (holder, lattice) = self.next_renormalized();
            let layer = holder.layer();
            report.merged_layers += 1;
            report.raw_rsl += layer.raw_rsl_consumed as u64;
            self.stats.merged_layers += 1;
            self.stats.raw_rsl += layer.raw_rsl_consumed as u64;
            self.layer_attempted += layer.fusions_attempted;
            self.layer_succeeded += layer.fusions_succeeded;
            // Every merged layer advances the delay-line clock by the number
            // of raw RSG cycles it took to produce.
            for _ in 0..layer.raw_rsl_consumed {
                self.stats.delay_line_expired += self.delay.advance_cycle() as u64;
            }

            let target_reached = lattice.node_count()
                >= self.config.target_side * self.config.target_side
                && (0..self.config.target_side).all(|i| {
                    (0..self.config.target_side).all(|j| lattice.node_flat(i, j).is_some())
                });

            if !target_reached {
                report.renorm_failures += 1;
                self.absorb_routing_layer(holder.layer());
                self.recycle_holder(holder);
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
                self.absorb_routing_layer(holder.layer());
                self.recycle_holder(holder);
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
            self.last_logical = Some(lattice);
            self.recycle_holder(holder);
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
    fn absorb_routing_layer(&mut self, layer: &oneperc_hardware::PhysicalLayer) {
        self.routing_since_logical += 1;
        self.stats.routing_layers += 1;
        let forward = layer.site_count() as u64;
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

    fn small_config(p: f64, seed: u64) -> ReshapeConfig {
        ReshapeConfig::new(HardwareConfig::new(36, 7, p), 12, 3, seed)
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
        // The pooled backend renormalizes a few layers ahead; dropping the
        // engine while lookahead jobs are still in flight must join the
        // pool's workers, not hang.
        let mut engine = ReshapeEngine::new(small_config(0.85, 3).with_renorm_workers(2));
        let report = engine.advance_logical_layer(&LayerRequirement::none());
        assert!(report.formed);
        drop(engine);
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
                engine.last_logical_lattice().cloned()
            })
            .collect();
        (*engine.stats(), lattices)
    }

    #[test]
    fn warm_reset_matches_cold_engine() {
        for workers in [0usize, 2] {
            let config = small_config(0.75, 3).with_renorm_workers(workers);
            let mut warm = ReshapeEngine::new(config);
            // Dirty the warm engine with a different-seed run first.
            let _ = drive(&mut warm, 3);
            warm.reset(91);
            assert_eq!(warm.config().seed, 91);
            let mut cold = ReshapeEngine::new(config.with_seed(91));
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
    fn pooled_renormalization_is_byte_identical_to_local() {
        let base = small_config(0.75, 29);
        let mut local = ReshapeEngine::new(base);
        let expected = drive(&mut local, 5);
        // 1 worker, several, and oversubscribed — all must match the
        // in-thread lattices exactly.
        for workers in [1usize, 2, 5] {
            let mut pooled = ReshapeEngine::new(base.with_renorm_workers(workers));
            assert_eq!(pooled.own_pool_workers(), Some(workers));
            assert_eq!(drive(&mut pooled, 5), expected, "workers = {workers}");
        }
    }

    #[test]
    fn engines_sharing_one_pool_match_private_engines() {
        // Two engines with different seeds stream through one shared pool
        // concurrently; each must reproduce its private-engine run.
        let pool = WorkerPool::new(2);
        let config_a = small_config(0.78, 101);
        let config_b = small_config(0.78, 202);
        let mut shared_a = ReshapeEngine::with_renorm_client(config_a, pool.client());
        let mut shared_b = ReshapeEngine::with_renorm_client(config_b, pool.client());
        assert_eq!(shared_a.own_pool_workers(), None);
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
        let mut pooled = ReshapeEngine::new(config.with_renorm_workers(2));
        for _ in 0..4 {
            serial.advance_logical_layer(&LayerRequirement::none());
            pooled.advance_logical_layer(&LayerRequirement::none());
        }
        assert_eq!(serial.stats().fusions_attempted, pooled.stats().fusions_attempted);
        assert_eq!(serial.stats().fusions_succeeded, pooled.stats().fusions_succeeded);
        assert!(serial.stats().fusions_attempted > 0);
    }
}
