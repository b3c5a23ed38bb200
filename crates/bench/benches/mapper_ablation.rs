//! Ablation benches for two offline-mapping design choices: dynamic
//! versus static scheduling and the incomplete-node occupancy limit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oneperc_circuit::{benchmarks, ProgramGraph};
use oneperc_ir::VirtualHardware;
use oneperc_mapper::{Mapper, MapperConfig};

fn bench_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapper_scheduling");
    group.sample_size(10);
    let program = ProgramGraph::from_circuit(&benchmarks::qft(9));
    for (label, dynamic) in [("dynamic", true), ("static", false)] {
        group.bench_with_input(BenchmarkId::new(label, 9), &dynamic, |b, &dynamic| {
            let config = MapperConfig::new(VirtualHardware::square(3))
                .with_dynamic_scheduling(dynamic);
            let mapper = Mapper::new(config);
            b.iter(|| std::hint::black_box(mapper.map(&program).unwrap().stats.layers));
        });
    }
    group.finish();
}

fn bench_occupancy(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapper_occupancy");
    group.sample_size(10);
    let program = ProgramGraph::from_circuit(&benchmarks::vqe(9, 2));
    for &limit in &[0.25f64, 0.5, 0.75] {
        group.bench_with_input(
            BenchmarkId::new("vqe9", format!("{limit:.2}")),
            &limit,
            |b, &limit| {
                let config =
                    MapperConfig::new(VirtualHardware::square(4)).with_occupancy_limit(limit);
                let mapper = Mapper::new(config);
                b.iter(|| std::hint::black_box(mapper.map(&program).unwrap().stats.layers));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scheduling, bench_occupancy);
criterion_main!(benches);
