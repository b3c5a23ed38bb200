//! Integration tests for the contract between the offline and online
//! passes: whatever the FlexLattice IR demands, the reshaping engine can
//! deliver on percolating hardware, and what the online pass reads off the
//! instruction stream is exactly what the IR asks for.

use oneperc_suite::circuit::{benchmarks, Circuit, ProgramGraph};
use oneperc_suite::compiler::{layer_requirement, CompilerConfig, Session};
use oneperc_suite::corpus::fuzz::FuzzOptions;
use oneperc_suite::corpus::{CorpusSpec, FAMILIES};
use oneperc_suite::hardware::HardwareConfig;
use oneperc_suite::ir::{InstructionInterpreter, IrLayerSummary, VirtualHardware};
use oneperc_suite::mapper::{Mapper, MapperConfig};
use oneperc_suite::percolation::{
    LayerRequirement, ReshapeConfig, ReshapeEngine, TemporalRequirement,
};

/// Drives the reshaping engine with the requirements the compiler reads off
/// a real program's instruction stream and checks that every layer is
/// eventually formed.
#[test]
fn reshaping_satisfies_every_ir_layer() {
    let program = ProgramGraph::from_circuit(&benchmarks::qaoa(4, 21));
    let mapping = Mapper::new(MapperConfig::new(VirtualHardware::square(3)))
        .map(&program)
        .expect("mapping succeeds");

    let hardware = HardwareConfig::new(36, 7, 0.8);
    let mut engine = ReshapeEngine::new(ReshapeConfig::new(hardware, 12, 3, 21));
    let mut requirement = LayerRequirement::none();
    for layer in 0..mapping.ir.layer_count() {
        layer_requirement(&mapping.instructions, layer, &mut requirement);
        let report = engine.advance_logical_layer(&requirement);
        assert!(report.formed, "a logical layer could not be formed");
    }
    let stats = engine.stats();
    assert_eq!(stats.logical_layers as usize, mapping.ir.layer_count());
    assert!(stats.pl_ratio() >= 1.0);
}

/// The requirement the IR's own summary states for a layer.
fn from_summary(summary: &IrLayerSummary) -> LayerRequirement {
    LayerRequirement {
        temporal_edges: summary
            .incoming_temporal
            .iter()
            .map(|&(coord, gap)| TemporalRequirement { coord, back_distance: gap })
            .collect(),
        stores: summary.stores,
        retrieves: summary.retrieves,
    }
}

/// Compiles `circuit` and checks, layer by layer, that the requirement the
/// online pass builds from the instruction stream equals the one the IR's
/// summaries state, and that replaying the stream retrieves every bundle
/// under the source key its record names.
fn assert_exact(label: &str, config: CompilerConfig, circuit: &Circuit) {
    let compiled = Session::new(config).compile(circuit).expect("offline pass succeeds");
    let (ir, stream) = (&compiled.mapping.ir, &compiled.mapping.instructions);
    let summaries = ir.layer_summaries();
    assert_eq!(summaries.len(), stream.layer_count(), "{label}: layer count");
    let mut requirement = LayerRequirement::none();
    for (layer, summary) in summaries.iter().enumerate() {
        layer_requirement(stream, layer, &mut requirement);
        let expected = from_summary(summary);
        let label = format!("{label}: layer {layer}");
        assert_eq!(requirement.temporal_edges, expected.temporal_edges, "{label} edges");
        assert_eq!(requirement.stores, expected.stores, "{label} stores");
        assert_eq!(requirement.retrieves, expected.retrieves, "{label} retrieves");
    }
    // A retrieval whose key was never stored, or was already retrieved, is
    // a memory underflow; every stored key is retrieved exactly once.
    let mut interpreter = InstructionInterpreter::new();
    interpreter
        .run(stream)
        .unwrap_or_else(|e| panic!("{label}: replay failed: {e}"));
    assert_eq!(interpreter.stored(), 0, "{label}: a stored bundle was never retrieved");
}

#[test]
fn stream_requirements_are_exact_on_the_fuzzer_corpus() {
    let base_seed = FuzzOptions::default().base_seed;
    let mut families = [false; FAMILIES.len()];
    for index in 0..40 {
        let spec = CorpusSpec::sample(base_seed, index);
        families[spec.family_index()] = true;
        let config = CompilerConfig::for_qubits(spec.qubits().max(2), 0.9, 0);
        assert_exact(&spec.to_token(), config, &spec.circuit(index));
    }
    assert_eq!(families, [true; FAMILIES.len()], "every corpus family is sampled");
}

#[test]
fn stream_requirements_are_exact_on_the_paper_benchmarks() {
    for bench in benchmarks::Benchmark::all() {
        for qubits in [4, 9] {
            let config = CompilerConfig::for_qubits(qubits, 0.75, 1);
            assert_exact(&format!("{bench}({qubits})"), config, &bench.circuit(qubits, 5));
        }
    }
}

/// The renormalized lattice the online pass promises is exactly as large as
/// the virtual hardware the offline pass assumed.
#[test]
fn renormalized_lattice_matches_virtual_hardware_size() {
    let hardware = HardwareConfig::new(48, 7, 0.85);
    let mut engine = ReshapeEngine::new(ReshapeConfig::new(hardware, 12, 4, 5));
    let report = engine.advance_logical_layer(&LayerRequirement::none());
    assert!(report.formed);
    let lattice = engine.last_logical_lattice().expect("a logical layer exists");
    assert!(lattice.node_count() >= 16, "4x4 virtual layer requires 16 coarse nodes");
    for i in 0..4 {
        for j in 0..4 {
            assert!(lattice.node_site(i, j).is_some(), "missing coarse node ({i}, {j})");
        }
    }
}

/// Merging factor propagates end to end: 4-qubit resource states consume
/// three raw RSLs per merged layer, 7-qubit resource states only one.
#[test]
fn raw_rsl_accounting_respects_resource_state_size() {
    for (size, expected_factor) in [(4usize, 3u64), (7, 1)] {
        let hardware = HardwareConfig::new(36, size, 0.9);
        let mut engine = ReshapeEngine::new(ReshapeConfig::new(hardware, 12, 3, 2));
        let report = engine.advance_logical_layer(&LayerRequirement::none());
        assert!(report.formed);
        assert_eq!(report.raw_rsl, expected_factor * report.merged_layers as u64);
    }
}
