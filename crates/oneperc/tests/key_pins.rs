//! Golden pins for the content-addressed cache keys (ISSUE 9 satellite).
//!
//! Three layers of caching hang off these hashes: the service tier's
//! [`ProgramCache`](oneperc::service::ProgramCache) (keyed by
//! `program_key = H(fingerprint, structural_hash)`), the tuner's frontier
//! artifacts (keyed by `Circuit::structural_hash`, validated by a tune
//! key that folds in `CompilerConfig::fingerprint` per lattice point),
//! and any artifact files already on disk from *previous* builds. The
//! hashes are documented as process-independent and stable across
//! versions — so a refactor that shifts them silently invalidates every
//! stored artifact and splits fleet-shared caches. These pins make such a
//! shift a loud, deliberate decision: if one fails, either restore the
//! encoding or bump the relevant version tag *and* re-pin, accepting the
//! cache invalidation.
//!
//! (The FNV-1a primitive underneath has its own golden pin in
//! `oneperc-circuit`'s hash tests; these pins cover the composite
//! encodings layered on top.)

use oneperc::service::program_key;
use oneperc::CompilerConfig;
use oneperc_circuit::benchmarks;

#[test]
fn compiler_config_fingerprints_are_pinned() {
    let cases: [(&str, CompilerConfig, u64); 4] = [
        ("qaoa4-p090 preset", CompilerConfig::for_qubits(4, 0.9, 1), 0xba48_5c2b_4a0c_4141),
        ("qaoa25-p075 preset", CompilerConfig::for_qubits(25, 0.75, 1), 0xbd63_8a28_9ba8_30df),
        (
            "sensitivity 36/3 p=0.80",
            CompilerConfig::for_sensitivity(36, 3, 0.8, 1),
            0x6600_5880_8014_cd5a,
        ),
        (
            "every builder knob flipped",
            CompilerConfig::for_qubits(4, 0.75, 1)
                .with_refresh_period(Some(6))
                .with_renorm_workers(2),
            0xee23_1d65_c9f3_4c95,
        ),
    ];
    for (name, config, expected) in cases {
        assert_eq!(
            config.fingerprint(),
            expected,
            "fingerprint of {name} shifted — stored artifacts and shared caches \
             would be invalidated; bump the fingerprint version tag and re-pin \
             if the change is deliberate"
        );
    }
    // The seed stays excluded whatever the encoding does.
    let base = CompilerConfig::for_qubits(4, 0.9, 1);
    assert_eq!(base.with_seed(999).fingerprint(), 0xba48_5c2b_4a0c_4141);
}

#[test]
fn circuit_structural_hashes_are_pinned() {
    let cases: [(&str, u64); 5] = [
        ("qaoa(4, 1)", 0x3b6c_15ac_b11b_89d3),
        ("qaoa(4, 2)", 0xb188_d247_3a91_5cb6),
        ("qft(4)", 0x44a7_8a30_ac98_ad50),
        ("rca(4)", 0x8573_c1ef_e806_e6bd),
        ("vqe(4, 1)", 0x9f36_6064_85d6_b8ea),
    ];
    let circuits = [
        benchmarks::qaoa(4, 1),
        benchmarks::qaoa(4, 2),
        benchmarks::qft(4),
        benchmarks::rca(4),
        benchmarks::vqe(4, 1),
    ];
    for ((name, expected), circuit) in cases.iter().zip(&circuits) {
        assert_eq!(
            circuit.structural_hash(),
            *expected,
            "structural hash of {name} shifted — artifact files keyed by the old \
             hash would be orphaned; bump the hash version tag and re-pin if the \
             change is deliberate"
        );
    }
    // Distinct seeds of the same generator stay distinct circuits.
    assert_ne!(circuits[0].structural_hash(), circuits[1].structural_hash());
}

#[test]
fn program_cache_key_is_pinned() {
    let config = CompilerConfig::for_qubits(4, 0.9, 1);
    let circuit = benchmarks::qaoa(4, 1);
    assert_eq!(
        program_key(&config, &circuit),
        0x2718_945d_9e91_b112,
        "the ProgramCache key composition shifted"
    );
    // Seed-independence carries through the composite key.
    assert_eq!(
        program_key(&config.with_seed(77), &circuit),
        0x2718_945d_9e91_b112
    );
}
