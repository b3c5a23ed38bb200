//! Study of the online pass in isolation: how the fusion success
//! probability and the average node size drive the 2D renormalization
//! success rate, and what the modular variant trades for its latency win.
//!
//! Run with `cargo run --release --example percolation_study`.

use std::time::Instant;

use oneperc_suite::hardware::{FusionEngine, HardwareConfig};
use oneperc_suite::percolation::{renormalize, ModularConfig, ModularRenormalizer};

fn main() {
    let rsl = 96;
    let trials = 8;

    // Renormalization success rate vs node size (the Fig. 16 experiment at
    // reduced scale).
    println!("renormalization success rate on a {rsl}x{rsl} RSL ({trials} trials):");
    println!("{:>10} {:>8} {:>8} {:>8}", "node size", "p=0.66", "p=0.72", "p=0.78");
    for node_size in [4usize, 8, 12, 16, 24] {
        print!("{node_size:>10}");
        for p in [0.66, 0.72, 0.78] {
            let mut ok = 0;
            for t in 0..trials {
                let mut engine = FusionEngine::new(HardwareConfig::new(rsl, 7, p), t);
                let layer = engine.generate_layer();
                if renormalize(&layer, node_size).is_success() {
                    ok += 1;
                }
            }
            print!(" {:>8.2}", ok as f64 / trials as f64);
        }
        println!();
    }

    // Modular renormalization: latency vs joined-node overhead.
    println!("\nmodular renormalization of one {rsl}x{rsl} layer (p = 0.75, node size 6, MI ratio 7):");
    let mut engine = FusionEngine::new(HardwareConfig::new(rsl, 7, 0.75), 99);
    let layer = engine.generate_layer();

    // Read-only percolation statistics through the CSR snapshot.
    let csr = layer.to_csr();
    println!(
        "  layer graph: {} bonds, {} components, giant component covers {:.0}% of sites",
        csr.edge_count(),
        csr.component_count(),
        100.0 * csr.largest_component_size() as f64 / layer.site_count() as f64
    );

    let start = Instant::now();
    let non_modular = renormalize(&layer, 6).node_count();
    let t_non_modular = start.elapsed();
    println!(
        "  non-modular: {non_modular} coarse nodes in {:.1} ms",
        t_non_modular.as_secs_f64() * 1e3
    );

    for modules_per_side in [2usize, 3] {
        let config = ModularConfig::new(modules_per_side, 7, 6);
        let outcome = ModularRenormalizer::new(config).run(&layer);
        println!(
            "  {} modules:   {} coarse nodes ({:.0}% of the non-modular yield)",
            modules_per_side * modules_per_side,
            outcome.joined_nodes,
            100.0 * outcome.joined_nodes as f64 / non_modular.max(1) as f64
        );
    }
    println!("\nthe modular pass trades a fraction of the renormalized nodes for latency: with one");
    println!("processor per module, a layer takes as long as its slowest module (fig14, panel b).");
}
