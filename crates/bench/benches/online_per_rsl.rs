//! Criterion bench behind Fig. 14(a): online processing cost of a single
//! resource-state layer as the RSL grows, plus the `flat_vs_hash` A/B group
//! comparing the flat-grid renormalizer against the preserved hash-based
//! baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oneperc_bench::baseline::hash_renormalize;
use oneperc_hardware::{FusionEngine, HardwareConfig, PhysicalLayer};
use oneperc_percolation::{renormalize, Renormalizer};

fn layers_for(rsl: usize, count: u64) -> Vec<PhysicalLayer> {
    (0..count)
        .map(|seed| {
            let mut engine = FusionEngine::new(HardwareConfig::new(rsl, 7, 0.75), seed);
            engine.generate_layer()
        })
        .collect()
}

/// Per-RSL online renormalization latency (pre-generated layers, scratch
/// reused across calls — the steady state of the online loop).
fn bench_online_per_rsl(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_per_rsl");
    group.sample_size(10);
    for &rsl in &[24usize, 40, 48, 96] {
        let node_size = rsl / 4;
        let layers = layers_for(rsl, 8);
        group.bench_with_input(BenchmarkId::new("renormalize", rsl), &rsl, |b, _| {
            let mut renormalizer = Renormalizer::new();
            let mut i = 0usize;
            b.iter(|| {
                let layer = &layers[i % layers.len()];
                i += 1;
                std::hint::black_box(renormalizer.renormalize(layer, node_size).node_count())
            });
        });
        group.bench_with_input(
            BenchmarkId::new("generate_and_renormalize", rsl),
            &rsl,
            |b, &rsl| {
                let mut engine = FusionEngine::new(HardwareConfig::new(rsl, 7, 0.75), 7);
                let mut renormalizer = Renormalizer::new();
                let mut layer = PhysicalLayer::blank(rsl, rsl);
                b.iter(|| {
                    engine.generate_layer_into(&mut layer);
                    std::hint::black_box(renormalizer.renormalize(&layer, node_size).node_count())
                });
            },
        );
    }
    group.finish();
}

/// A/B: dense flat-index engine vs. the hash-based baseline it replaced.
fn bench_flat_vs_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("flat_vs_hash");
    group.sample_size(10);
    for &rsl in &[24usize, 40, 96] {
        let node_size = rsl / 4;
        let layers = layers_for(rsl, 8);
        group.bench_with_input(BenchmarkId::new("flat", rsl), &rsl, |b, _| {
            let mut renormalizer = Renormalizer::new();
            let mut i = 0usize;
            b.iter(|| {
                let layer = &layers[i % layers.len()];
                i += 1;
                std::hint::black_box(renormalizer.renormalize(layer, node_size).node_count())
            });
        });
        group.bench_with_input(BenchmarkId::new("flat_oneoff", rsl), &rsl, |b, _| {
            // One-off calls pay the scratch allocation per layer; this is
            // what `renormalize()` free-function users get.
            let mut i = 0usize;
            b.iter(|| {
                let layer = &layers[i % layers.len()];
                i += 1;
                std::hint::black_box(renormalize(layer, node_size).node_count())
            });
        });
        group.bench_with_input(BenchmarkId::new("hash", rsl), &rsl, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let layer = &layers[i % layers.len()];
                i += 1;
                std::hint::black_box(hash_renormalize(layer, node_size).node_count())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_online_per_rsl, bench_flat_vs_hash);
criterion_main!(benches);
