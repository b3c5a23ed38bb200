//! Spans around the public entry points of each crate on the compile and
//! execute path. Nothing inside the program is instrumented: each layer is
//! timed by calling it from here, with the same arguments the program's own
//! pipeline passes.

use std::hint::black_box;
use std::time::Instant;

use oneperc::{CompiledProgram, CompilerConfig};
use oneperc_circuit::{Circuit, ProgramGraph};
use oneperc_hardware::{FusionEngine, HardwareConfig, PhysicalLayer};
use oneperc_ir::{InstructionProgram, IrLayerSummary};
use oneperc_mapper::{Mapper, MapperConfig, MapperStats};
use oneperc_percolation::{
    LayerRequirement, Renormalizer, ReshapeConfig, ReshapeEngine, ReshapeStats, TemporalRequirement,
};

use crate::stats::secs;

/// Stage times of one offline pass, taken call by call.
#[derive(Debug, Clone, Copy)]
pub struct CompileTrace {
    /// `ProgramGraph::from_circuit`.
    pub program_graph_s: f64,
    /// `ProgramGraph::dependency_dag`, timed on its own (the mapper builds
    /// the same DAG internally).
    pub dag_s: f64,
    /// `Mapper::map`, which includes a DAG build and the lowering.
    pub map_s: f64,
    /// `InstructionProgram::lower`, timed on its own.
    pub lower_s: f64,
    /// `FlexLatticeIr::layer_summaries`, which every execution calls once.
    pub summaries_s: f64,
    pub stats: MapperStats,
}

impl CompileTrace {
    /// Mapper time net of the DAG build and lowering it performs inside.
    pub fn mapper_self_s(&self) -> f64 {
        self.map_s - self.dag_s - self.lower_s
    }

    /// The offline pass as the program runs it (graph + map).
    pub fn pass_s(&self) -> f64 {
        self.program_graph_s + self.map_s
    }
}

/// The mapper configuration the compiler derives from `config`.
fn mapper_config(config: &CompilerConfig) -> MapperConfig {
    MapperConfig::new(config.virtual_hardware())
        .with_occupancy_limit(config.occupancy_limit)
        .with_refresh_period(config.refresh_period)
}

/// Runs the offline pass call by call and checks that the lowering it timed
/// reproduces the mapper's own and, when `repeatable`, that the result
/// equals `reference` (the program's own compile).
///
/// # Errors
///
/// Reports a mapping failure or a mismatch.
pub fn traced_compile(
    config: &CompilerConfig,
    circuit: &Circuit,
    reference: &CompiledProgram,
    repeatable: bool,
) -> Result<CompileTrace, String> {
    let t = Instant::now();
    let program = ProgramGraph::from_circuit(circuit);
    let program_graph_s = secs(t.elapsed());

    let t = Instant::now();
    let dag = black_box(program.dependency_dag());
    let dag_s = secs(t.elapsed());
    drop(dag);

    let mapper = Mapper::new(mapper_config(config));
    let t = Instant::now();
    let mapping = mapper
        .map(&program)
        .map_err(|e| format!("traced map failed: {e}"))?;
    let map_s = secs(t.elapsed());

    let t = Instant::now();
    let lowered =
        InstructionProgram::lower(&mapping.ir).map_err(|e| format!("traced lower failed: {e}"))?;
    let lower_s = secs(t.elapsed());

    let t = Instant::now();
    let summaries = black_box(mapping.ir.layer_summaries());
    let summaries_s = secs(t.elapsed());
    drop(summaries);

    if lowered != mapping.instructions {
        return Err("traced lowering differs from the mapper's".into());
    }
    if repeatable
        && (mapping.stats != reference.mapping.stats
            || mapping.instructions != reference.mapping.instructions)
    {
        return Err("traced compile differs from the program's own compile".into());
    }
    Ok(CompileTrace {
        program_graph_s,
        dag_s,
        map_s,
        lower_s,
        summaries_s,
        stats: mapping.stats,
    })
}

/// One logical layer of a traced replay: a line of the per-layer JSONL.
#[derive(Debug, Clone, Copy)]
pub struct LayerTrace {
    pub index: usize,
    pub merged: usize,
    pub renorm_failures: usize,
    pub timelike_failures: usize,
    pub raw_rsl: u64,
    pub advance_us: f64,
}

/// A serial replay of one `(program, seed)` execution.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Wall-clock of the whole replay, summaries included (the span the
    /// program's `online_time` covers).
    pub seconds: f64,
    pub layers: Vec<LayerTrace>,
    pub stats: ReshapeStats,
}

/// The online pass's requirement for one IR layer, built as the compiler
/// builds it.
pub fn requirement(summary: IrLayerSummary) -> LayerRequirement {
    LayerRequirement {
        temporal_edges: summary
            .incoming_temporal
            .iter()
            .map(|&(coord, gap)| TemporalRequirement {
                coord,
                back_distance: gap,
            })
            .collect(),
        stores: summary.stores,
        retrieves: summary.retrieves,
    }
}

/// Replays `compiled` with `seed` on a serial `ReshapeEngine`, one
/// `advance_logical_layer` per IR layer, timing each call.
pub fn replay(config: &CompilerConfig, compiled: &CompiledProgram, seed: u64) -> Replay {
    let reshape = ReshapeConfig::new(config.hardware, config.node_size, config.virtual_side, seed)
        .with_temporal_redundancy(config.temporal_redundancy);
    let mut engine = ReshapeEngine::new(reshape);
    let start = Instant::now();
    let summaries = compiled.mapping.ir.layer_summaries();
    let mut layers = Vec::with_capacity(summaries.len());
    for (index, summary) in summaries.into_iter().enumerate() {
        let requirement = requirement(summary);
        let t = Instant::now();
        let report = engine.advance_logical_layer(&requirement);
        layers.push(LayerTrace {
            index,
            merged: report.merged_layers,
            renorm_failures: report.renorm_failures,
            timelike_failures: report.timelike_failures,
            raw_rsl: report.raw_rsl,
            advance_us: secs(t.elapsed()) * 1e6,
        });
        if !report.formed {
            break;
        }
    }
    Replay {
        seconds: secs(start.elapsed()),
        layers,
        stats: *engine.stats(),
    }
}

/// Per-call cost of layer generation and 2D renormalization at one
/// hardware configuration.
#[derive(Debug, Clone, Copy)]
pub struct GenerationBench {
    pub generate_us: f64,
    pub renormalize_us: f64,
    pub fusions_attempted: u64,
    pub fusions_succeeded: u64,
}

/// Times `FusionEngine::generate_layer_into` and `Renormalizer::renormalize`
/// on `layers` merged layers of one seeded stream (medians per call).
pub fn generation_bench(
    hardware: HardwareConfig,
    node_size: usize,
    seed: u64,
    layers: usize,
) -> GenerationBench {
    const WARMUP: usize = 2;
    let mut engine = FusionEngine::new(hardware, seed);
    let mut renormalizer = Renormalizer::new();
    let mut layer = PhysicalLayer::blank(hardware.rsl_size, hardware.rsl_size);
    let (mut generate, mut renormalize) = (Vec::new(), Vec::new());
    let (mut attempted, mut succeeded) = (0, 0);
    for i in 0..WARMUP + layers {
        let t = Instant::now();
        engine.generate_layer_into(&mut layer);
        let g = secs(t.elapsed());
        let t = Instant::now();
        let lattice = renormalizer.renormalize(&layer, node_size);
        let r = secs(t.elapsed());
        black_box(lattice.node_count());
        if i >= WARMUP {
            generate.push(g * 1e6);
            renormalize.push(r * 1e6);
            attempted += layer.fusions_attempted;
            succeeded += layer.fusions_succeeded;
        }
    }
    GenerationBench {
        generate_us: crate::stats::median(&generate),
        renormalize_us: crate::stats::median(&renormalize),
        fusions_attempted: attempted,
        fusions_succeeded: succeeded,
    }
}
