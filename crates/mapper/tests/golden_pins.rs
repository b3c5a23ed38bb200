//! Golden pins for the offline pass's lowered output.
//!
//! Each case maps one corpus circuit with the default `MapperConfig` and
//! digests the `InstructionProgram`'s `Display` text together with every
//! `MapperStats` field. The digests were recorded with the hash-map mapper
//! and hash-map FlexLattice IR that preceded the flat-index rewrite, so a
//! drift in either the mapper or the IR lowering fails here even when a
//! reference implementation sharing the new IR agrees with it.
//!
//! If a pin fails, the mapping changed: that is a stream break for every
//! compiled program and every `deterministic()` report downstream. Restore
//! the old behaviour, or make the break deliberate and re-pin.

use oneperc_circuit::{ProgramGraph, StableHasher};
use oneperc_corpus::CorpusSpec;
use oneperc_ir::VirtualHardware;
use oneperc_mapper::{Mapper, MapperConfig, MapperStats};

/// The circuit seed the repository benchmark compiles its corpus specs
/// with.
const CIRCUIT_SEED: u64 = 0x0E1E_C0DE;

fn digest(spec: &str, side: usize) -> (u64, MapperStats) {
    let circuit = CorpusSpec::parse(spec)
        .expect("valid spec")
        .circuit(CIRCUIT_SEED);
    let program = ProgramGraph::from_circuit(&circuit);
    let result = Mapper::new(MapperConfig::new(VirtualHardware::square(side)))
        .map(&program)
        .expect("mapping should succeed");
    let s = result.stats;
    let mut h = StableHasher::new();
    h.write_bytes(result.instructions.to_string().as_bytes());
    for field in [
        s.layers,
        s.program_nodes,
        s.ancilla_nodes,
        s.spatial_edges,
        s.temporal_edges,
        s.cross_layer_edges,
        s.peak_live_nodes,
        s.peak_stored_nodes,
        s.refreshes,
        s.deferred_edges,
    ] {
        h.write_usize(field);
    }
    (h.finish(), s)
}

#[test]
fn rcachain_q9_r8_side3_is_pinned() {
    let (d, stats) = digest("rcachain:q9,r8", 3);
    assert_eq!(
        stats,
        MapperStats {
            layers: 2390,
            program_nodes: 2057,
            ancilla_nodes: 624,
            spatial_edges: 3184,
            temporal_edges: 4818,
            cross_layer_edges: 3037,
            peak_live_nodes: 13,
            peak_stored_nodes: 10,
            refreshes: 0,
            deferred_edges: 48,
        }
    );
    assert_eq!(
        d, 0x69b5_5814_4af5_4d72,
        "rcachain:q9,r8@side3 lowered output shifted: {stats:?}"
    );
}

#[test]
fn layered_w36_d60_side6_is_pinned() {
    let (d, stats) = digest("layered:w36,d60,e400", 6);
    assert_eq!(
        stats,
        MapperStats {
            layers: 671,
            program_nodes: 3165,
            ancilla_nodes: 2345,
            spatial_edges: 5899,
            temporal_edges: 5823,
            cross_layer_edges: 3552,
            peak_live_nodes: 48,
            peak_stored_nodes: 39,
            refreshes: 0,
            deferred_edges: 396,
        }
    );
    assert_eq!(
        d, 0x533d_6d96_dc38_690e,
        "layered:w36,d60,e400@side6 lowered output shifted: {stats:?}"
    );
}
