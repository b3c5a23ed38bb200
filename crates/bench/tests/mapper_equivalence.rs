//! Equivalence harness for the flat-index offline mapper: `Mapper::map`
//! must produce exactly what the preserved hash-map mapper
//! (`oneperc_bench::reference_mapper`) produces — the same `MapperStats`,
//! instruction stream, IR statistics and per-layer summaries, or the same
//! error — across the corpus families, the paper's four benchmarks on
//! square and non-square hardware, both scheduling modes, refresh on and
//! off, and an exhausted layer budget. The lowering is additionally
//! checked against the reference's node-by-node `lower`.

use oneperc_bench::reference_mapper;
use oneperc_circuit::benchmarks::Benchmark;
use oneperc_circuit::{Circuit, ProgramGraph};
use oneperc_corpus::CorpusSpec;
use oneperc_ir::VirtualHardware;
use oneperc_mapper::{MapError, Mapper, MapperConfig};

/// The scheduling × refresh matrix, refresh off only when `refresh` is
/// false.
fn configs(hw: VirtualHardware, refresh: bool) -> Vec<(String, MapperConfig)> {
    let periods: &[Option<usize>] = if refresh { &[None, Some(5)] } else { &[None] };
    let mut out = Vec::new();
    for dynamic in [true, false] {
        for &refresh in periods {
            let config = MapperConfig::new(hw)
                .with_dynamic_scheduling(dynamic)
                .with_refresh_period(refresh);
            out.push((format!("dynamic={dynamic} refresh={refresh:?}"), config));
        }
    }
    out
}

fn assert_equivalent(label: &str, config: &MapperConfig, program: &ProgramGraph) {
    let flat = Mapper::new(*config).map(program);
    let reference = reference_mapper::map(config, program);
    match (flat, reference) {
        (Ok(flat), Ok(reference)) => {
            assert_eq!(flat.stats, reference.stats, "{label}: MapperStats");
            assert_eq!(flat.complete, reference.complete, "{label}: complete");
            assert_eq!(
                flat.instructions, reference.instructions,
                "{label}: instructions"
            );
            assert_eq!(flat.ir.stats(), reference.ir.stats(), "{label}: IR stats");
            assert_eq!(
                flat.ir.layer_summaries(),
                reference.ir.layer_summaries(),
                "{label}: layer summaries"
            );
            assert_eq!(
                flat.instructions.iter().collect::<Vec<_>>(),
                reference_mapper::lower(&flat.ir).as_slice(),
                "{label}: lowering differs from the node-by-node reference"
            );
        }
        (Err(flat), Err(reference)) => assert_eq!(flat, reference, "{label}: error"),
        (flat, reference) => panic!(
            "{label}: outcomes differ: flat {:?}, reference {:?}",
            flat.map(|r| r.stats),
            reference.map(|r| r.stats)
        ),
    }
}

fn assert_matrix(label: &str, circuit: &Circuit, hw: VirtualHardware, refresh: bool) {
    let program = ProgramGraph::from_circuit(circuit);
    for (mode, config) in configs(hw, refresh) {
        assert_equivalent(
            &format!("{label} @{}x{} {mode}", hw.width(), hw.height()),
            &config,
            &program,
        );
    }
}

#[test]
fn corpus_families_match_the_reference() {
    let specs = [
        "layered:w6,d8,e500",
        "layered:w9,d12,e800",
        "rev:w5,g30,s2",
        "rev:w8,g50,s1",
        "rcachain:q6,r2",
        "rcachain:q9,r1",
        "qftadder:b3",
        "qftadder:b4",
    ];
    for token in specs {
        let spec = CorpusSpec::parse(token).expect("valid spec");
        for seed in [1u64, 7, 42] {
            let circuit = spec.circuit(seed);
            let label = format!("{token} seed {seed}");
            assert_matrix(&label, &circuit, VirtualHardware::square(3), true);
        }
    }
}

#[test]
fn sampled_corpus_matches_the_reference() {
    for index in 0..24 {
        let spec = CorpusSpec::sample(0x5EED, index);
        let circuit = spec.circuit(index);
        let side = if spec.qubits() > 6 { 3 } else { 2 };
        let label = format!("{} seed {index}", spec.to_token());
        assert_matrix(&label, &circuit, VirtualHardware::square(side), true);
    }
}

/// The largest size runs without refresh: refresh rounds on 25-qubit
/// programs cost the hash-map reference seconds per case in debug builds,
/// and the smaller sizes already cover them.
#[test]
fn paper_benchmarks_match_the_reference() {
    for bench in Benchmark::all() {
        for n in [4usize, 9, 16, 25] {
            let circuit = bench.circuit(n, 7);
            for side in [2usize, 3, 5] {
                let hw = VirtualHardware::square(side);
                assert_matrix(&format!("{bench}({n})"), &circuit, hw, n < 25);
            }
        }
    }
}

#[test]
fn non_square_hardware_matches_the_reference() {
    for bench in Benchmark::all() {
        let circuit = bench.circuit(9, 3);
        for hw in [VirtualHardware::new(3, 5), VirtualHardware::new(5, 3)] {
            assert_matrix(&format!("{bench}(9)"), &circuit, hw, true);
        }
    }
}

#[test]
fn exhausted_layer_budget_matches_the_reference() {
    for bench in Benchmark::all() {
        let program = ProgramGraph::from_circuit(&bench.circuit(9, 7));
        for (mode, mut config) in configs(VirtualHardware::square(2), true) {
            config.max_layers = 2;
            let label = format!("{bench}(9) max_layers=2 {mode}");
            assert_eq!(
                Mapper::new(config)
                    .map(&program)
                    .map(|r| r.stats)
                    .unwrap_err(),
                MapError::LayerBudgetExhausted { limit: 2 },
                "{label}"
            );
            assert_equivalent(&label, &config, &program);
        }
    }
}

/// The shapes the repository benchmark compiles, at its own hardware
/// sides and circuit seed: a deep chain of long-lived nodes on a 3×3
/// layer, and a wide program on a 6×6 layer whose front holds dozens of
/// nodes at once.
#[test]
fn benchmark_shapes_match_the_reference() {
    for (token, side) in [("rcachain:q9,r8", 3), ("layered:w36,d60,e400", 6)] {
        let circuit = CorpusSpec::parse(token)
            .expect("valid spec")
            .circuit(0x0E1E_C0DE);
        assert_matrix(token, &circuit, VirtualHardware::square(side), true);
    }
}
