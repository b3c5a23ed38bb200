//! Static fusion plan derivation for the OneQ baseline.

use oneperc_circuit::ProgramGraph;
use oneperc_ir::VirtualHardware;
use oneperc_mapper::{MapError, Mapper, MapperConfig};

/// Planned fusion counts for one resource-state layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerPlan {
    /// Fusions internal to the layer (building the layer's piece of the
    /// program graph state from resource states).
    pub intra_fusions: u64,
    /// Fusions connecting the layer to its predecessor.
    pub inter_fusions: u64,
    /// Program nodes realized on the layer.
    pub nodes: u64,
}

/// The full static plan: one entry per resource-state layer, in execution
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneqPlan {
    layers: Vec<LayerPlan>,
}

impl OneqPlan {
    /// Derives the plan for a program graph on a lattice of the given side.
    ///
    /// The mapping uses OneQ's static creation-order partition. Intra-layer
    /// fusions count one fusion per node placed (joining its resource state
    /// into the layer) plus one per spatial edge; inter-layer fusions count
    /// one per temporal edge arriving at the layer.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures (for example a hardware side of zero).
    pub fn derive(program: &ProgramGraph, lattice_side: usize) -> Result<Self, MapError> {
        let config = MapperConfig::new(VirtualHardware::square(lattice_side))
            .with_dynamic_scheduling(false)
            .with_occupancy_limit(1.0);
        let result = Mapper::new(config).map(program)?;
        let summaries = result.ir.layer_summaries();
        let mut layers = Vec::with_capacity(summaries.len());
        for (idx, summary) in summaries.iter().enumerate() {
            // Spatial edges of this layer: count the enabled edges by
            // walking the layer's nodes.
            let spatial: u64 = result
                .ir
                .layer_nodes(idx)
                .map(|(_, node)| u64::from(node.east_edge) + u64::from(node.north_edge))
                .sum();
            layers.push(LayerPlan {
                intra_fusions: summary.occupied as u64 + spatial,
                inter_fusions: summary.incoming_temporal.len() as u64,
                nodes: summary.occupied as u64,
            });
        }
        Ok(OneqPlan { layers })
    }

    /// The per-layer plans in execution order.
    pub fn layers(&self) -> &[LayerPlan] {
        &self.layers
    }

    /// Number of planned layers (the `#RSL` OneQ would consume if every
    /// fusion succeeded).
    pub fn planned_rsl(&self) -> usize {
        self.layers.len()
    }

    /// Total planned fusions assuming every fusion succeeds.
    pub fn planned_fusions(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.intra_fusions + l.inter_fusions)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oneperc_circuit::benchmarks;

    #[test]
    fn plan_covers_all_program_nodes() {
        let program = ProgramGraph::from_circuit(&benchmarks::qft(3));
        let plan = OneqPlan::derive(&program, 3).unwrap();
        let total_nodes: u64 = plan.layers().iter().map(|l| l.nodes).sum();
        // Program nodes may appear on several layers while incomplete, so
        // the total is at least the node count.
        assert!(total_nodes >= program.node_count() as u64);
        assert!(plan.planned_rsl() > 0);
        assert!(plan.planned_fusions() > 0);
    }

    #[test]
    fn bigger_programs_need_bigger_plans() {
        let small = OneqPlan::derive(&ProgramGraph::from_circuit(&benchmarks::qft(3)), 3).unwrap();
        let large = OneqPlan::derive(&ProgramGraph::from_circuit(&benchmarks::qft(5)), 3).unwrap();
        assert!(large.planned_rsl() > small.planned_rsl());
        assert!(large.planned_fusions() > small.planned_fusions());
    }

    #[test]
    fn derivation_is_deterministic() {
        let program = ProgramGraph::from_circuit(&benchmarks::vqe(4, 5));
        let a = OneqPlan::derive(&program, 2).unwrap();
        let b = OneqPlan::derive(&program, 2).unwrap();
        assert_eq!(a, b);
    }
}
