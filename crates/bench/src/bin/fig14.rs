//! Fig. 14: online processing time per RSL — (a) vs program size, (b) vs
//! RSL size for modular / non-modular renormalization.
//!
//! The paper's settings: 7-qubit resource states, 96x96 RSL and average
//! node size 24 for (a); p = 0.75 and MI ratio 7 for both panels. Reduced
//! defaults shrink the RSL sweep of panel (b).
//!
//! Panel (b)'s modular columns follow the paper's premise of one processor
//! per module: each is the slowest module's warm
//! `Renormalizer::renormalize_region` time over the regions of
//! `ModularConfig::regions`. The joining step that follows is not timed.
//! Every panel (b) time is the best of five warm runs, which drops
//! preemption on a shared host.

use std::time::Instant;

use oneperc::CompilerConfig;
use oneperc_bench::{run_oneperc_with_config, ExperimentArgs};
use oneperc_circuit::benchmarks::Benchmark;
use oneperc_hardware::{FusionEngine, HardwareConfig};
use oneperc_percolation::{ModularConfig, Renormalizer};

/// Best of five timed runs of `run`; the caller warms it first.
fn best_of_five(mut run: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let args = ExperimentArgs::from_env("fig14");
    let mut rows = Vec::new();

    // ---- (a) online seconds per RSL vs program size ----
    let rsl = if args.full { 96 } else { 48 };
    let node_size = rsl / 4; // 24 in the paper's setting
    let program_sizes: Vec<usize> = if args.full { vec![4, 9, 16, 25, 36] } else { vec![4, 9, 16] };
    println!("Fig 14(a): online seconds per RSL vs program size ({rsl}x{rsl} RSL, node size {node_size}, p = 0.75)");
    println!("{:<12} {:>8} {:>14}", "benchmark", "qubits", "s / RSL");
    for bench in Benchmark::all() {
        for &qubits in &program_sizes {
            let side = (qubits as f64).sqrt().ceil() as usize;
            let config = CompilerConfig::for_sensitivity(rsl, side.min(rsl / node_size).max(1), 0.75, args.seed);
            let report = run_oneperc_with_config(bench, qubits, config, args.seed);
            let per_rsl = report.online_seconds_per_layer();
            println!("{:<12} {:>8} {:>14.5}", bench.name(), qubits, per_rsl);
            rows.push(format!("a,{bench},{qubits},{rsl},1,{per_rsl:.6}"));
        }
    }

    // ---- (b) seconds per RSL vs RSL size, modular vs non-modular ----
    let rsl_sizes: Vec<usize> = if args.full {
        vec![96, 144, 192, 240]
    } else {
        vec![64, 96, 128]
    };
    let node_size = 24usize.min(rsl_sizes[0] / 2);
    let mi_ratio = 7;
    println!("\nFig 14(b): renormalization µs per RSL vs RSL size (node size {node_size}, MI ratio {mi_ratio}, p = 0.75)");
    println!("modular columns: the slowest module, one processor per module; joining not timed");
    println!("{:>6} {:>12} {:>12} {:>12} {:>12}", "N", "non-modular", "4 modules", "9 modules", "16 modules");
    for &n in &rsl_sizes {
        let mut engine = FusionEngine::new(HardwareConfig::new(n, 7, 0.75), args.seed);
        let layer = engine.generate_layer();

        // Both sides are warmed outside the timed window: the online pass
        // keeps its renormalizer scratch alive across the RSL stream, so
        // per-layer latency excludes scratch allocation on either path.
        let mut plain = Renormalizer::new();
        let _ = plain.renormalize(&layer, node_size);
        let non_modular = best_of_five(|| {
            plain.renormalize(&layer, node_size);
        });
        rows.push(format!("b,,,{n},1,{non_modular:.9}"));

        let mut timings = Vec::new();
        for &g in &[2usize, 3, 4] {
            // One processor per module: a layer takes as long as its
            // slowest module, each timed warm. The node size never exceeds
            // a module side, so it is the one the modular renormalizer
            // uses inside each module.
            let config = ModularConfig::new(g, mi_ratio, node_size.min(n / (g * 2).max(1)).max(2));
            let node = config.node_size;
            let mut t = 0.0f64;
            for r in config.regions(n, n) {
                let mut module = || {
                    plain.renormalize_region(&layer, r.origin, r.width, r.height, node);
                };
                module();
                t = t.max(best_of_five(module));
            }
            timings.push(t);
            rows.push(format!("b,,,{n},{},{t:.9}", g * g));
        }
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            n,
            non_modular * 1e6,
            timings[0] * 1e6,
            timings[1] * 1e6,
            timings[2] * 1e6
        );
    }

    let path = args.write_csv(
        "fig14.csv",
        "panel,benchmark,qubits,rsl_size,modules,seconds_per_rsl",
        &rows,
    );
    println!("\nwrote {}", path.display());
}
