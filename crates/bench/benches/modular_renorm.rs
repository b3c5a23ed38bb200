//! Criterion bench behind Fig. 14(b) and the Fig. 13(c) ablation: modular
//! renormalization (every module in one thread, then the join) versus
//! non-modular 2D renormalization of the same random layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oneperc_hardware::{FusionEngine, HardwareConfig};
use oneperc_percolation::{renormalize, ModularConfig, ModularRenormalizer};

fn bench_modular_renorm(c: &mut Criterion) {
    let rsl = 96;
    let node_size = 6;
    let mut engine = FusionEngine::new(HardwareConfig::new(rsl, 7, 0.75), 11);
    let layer = engine.generate_layer();

    let mut group = c.benchmark_group("modular_renorm");
    group.sample_size(10);
    group.bench_function("non_modular", |b| {
        b.iter(|| std::hint::black_box(renormalize(&layer, node_size).node_count()))
    });
    for &modules_per_side in &[2usize, 3, 4] {
        group.bench_with_input(
            BenchmarkId::new("modular_sequential", modules_per_side * modules_per_side),
            &modules_per_side,
            |b, &g| {
                let mut renormalizer =
                    ModularRenormalizer::new(ModularConfig::new(g, 7, node_size));
                b.iter(|| std::hint::black_box(renormalizer.run(&layer).joined_nodes));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_modular_renorm);
criterion_main!(benches);
