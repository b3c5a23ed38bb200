//! Criterion bench behind Fig. 14(a): online processing cost of a single
//! resource-state layer as the RSL grows — full renormalization beside the
//! path-free `spans_target` verdict the reshaping engine runs — and layer
//! generation alone for merged 4-qubit states (m = 3) and unmerged 7-qubit
//! states (m = 1, the one-outcome merge law), at the Table-1 preset and at
//! the `fleet-mixed` tenants' shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oneperc_hardware::{FusionEngine, HardwareConfig, PhysicalLayer};
use oneperc_percolation::Renormalizer;

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
        // The reshaping engine's per-layer verdict: the same bands' gate,
        // no path extraction.
        group.bench_with_input(BenchmarkId::new("spans_target", rsl), &rsl, |b, _| {
            let mut renormalizer = Renormalizer::new();
            let mut i = 0usize;
            b.iter(|| {
                let layer = &layers[i % layers.len()];
                i += 1;
                std::hint::black_box(renormalizer.spans_target(layer, node_size, 4))
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

/// Steady-state generation of one layer: 4-qubit states merged three at a
/// time (an 8-outcome merge law) and 7-qubit states (m = 1, where merging
/// draws nothing and the four bond outcome planes are all the draws).
/// L = 120 at p = 0.75 is the Table-1 preset; L = 36 at p = 0.9 is the
/// shape of the two `fleet-mixed` tenants.
fn bench_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate");
    group.sample_size(10);
    for (rsl, p, label) in [(120usize, 0.75, ""), (36, 0.9, "_p0.9")] {
        for &size in &[4usize, 7] {
            let id = BenchmarkId::new(format!("{size}q{label}"), rsl);
            group.bench_with_input(id, &rsl, |b, &rsl| {
                let mut engine = FusionEngine::new(HardwareConfig::new(rsl, size, p), 7);
                let mut layer = PhysicalLayer::blank(rsl, rsl);
                b.iter(|| {
                    engine.generate_layer_into(&mut layer);
                    std::hint::black_box(layer.fusions_attempted)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_online_per_rsl, bench_generate);
criterion_main!(benches);
