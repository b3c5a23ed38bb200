//! Criterion bench behind Fig. 15: offline mapping time as a function of
//! program size and virtual-hardware size, `Mapper::map` on the repository
//! benchmark's two shapes, the program-graph build on the same shapes, and
//! the lowering walk on its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oneperc_circuit::benchmarks;
use oneperc_circuit::ProgramGraph;
use oneperc_corpus::CorpusSpec;
use oneperc_ir::{InstructionProgram, VirtualHardware};
use oneperc_mapper::{Mapper, MapperConfig};

fn bench_program_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("offline_mapping_program_size");
    group.sample_size(10);
    for &qubits in &[4usize, 9, 16] {
        let program = ProgramGraph::from_circuit(&benchmarks::qft(qubits));
        group.bench_with_input(BenchmarkId::new("qft", qubits), &program, |b, program| {
            let mapper = Mapper::new(MapperConfig::new(VirtualHardware::square(4)));
            b.iter(|| std::hint::black_box(mapper.map(program).unwrap().stats.layers));
        });
    }
    group.finish();
}

fn bench_hardware_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("offline_mapping_hardware_size");
    group.sample_size(10);
    let program = ProgramGraph::from_circuit(&benchmarks::qaoa(16, 3));
    for &side in &[4usize, 6, 8] {
        group.bench_with_input(BenchmarkId::new("qaoa16", side), &side, |b, &side| {
            let mapper = Mapper::new(MapperConfig::new(VirtualHardware::square(side)));
            b.iter(|| std::hint::black_box(mapper.map(&program).unwrap().stats.layers));
        });
    }
    group.finish();
}

/// `Mapper::map` on the shapes the repository benchmark compiles, at its
/// hardware sides and circuit seed: a deep chain on a 3×3 layer and a wide
/// program on a 6×6 layer.
fn bench_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("map");
    group.sample_size(10);
    for (token, side) in [("rcachain:q9,r8", 3usize), ("layered:w36,d60,e400", 6)] {
        let circuit = CorpusSpec::parse(token).unwrap().circuit(0x0E1E_C0DE);
        let program = ProgramGraph::from_circuit(&circuit);
        let mapper = Mapper::new(MapperConfig::new(VirtualHardware::square(side)));
        group.bench_with_input(BenchmarkId::new(token, side), &program, |b, program| {
            b.iter(|| std::hint::black_box(mapper.map(program).unwrap().stats.layers));
        });
    }
    group.finish();
}

/// `ProgramGraph::from_circuit` (lowering the circuit, then the counting
/// and fill passes of the flat adjacency) on the repository benchmark's
/// two shapes.
fn bench_program_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("program_graph");
    group.sample_size(10);
    for token in ["rcachain:q9,r8", "layered:w36,d60,e400"] {
        let circuit = CorpusSpec::parse(token).unwrap().circuit(0x0E1E_C0DE);
        group.bench_with_input(BenchmarkId::from_parameter(token), &circuit, |b, circuit| {
            b.iter(|| std::hint::black_box(ProgramGraph::from_circuit(circuit).edge_count()));
        });
    }
    group.finish();
}

/// `InstructionProgram::lower` alone (validation, statistics and the
/// instruction stream in one walk) on a finished IR.
fn bench_lower(c: &mut Criterion) {
    let mut group = c.benchmark_group("lower");
    group.sample_size(10);
    let circuit = CorpusSpec::parse("rcachain:q9,r8").unwrap().circuit(0);
    let mapping = Mapper::new(MapperConfig::new(VirtualHardware::square(3)))
        .map(&ProgramGraph::from_circuit(&circuit))
        .unwrap();
    group.bench_with_input(BenchmarkId::new("rcachain:q9,r8", 3), &mapping.ir, |b, ir| {
        b.iter(|| std::hint::black_box(InstructionProgram::lower(ir).unwrap().len()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_program_size,
    bench_hardware_size,
    bench_map,
    bench_program_graph,
    bench_lower
);
criterion_main!(benches);
