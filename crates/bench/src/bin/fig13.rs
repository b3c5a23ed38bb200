//! Fig. 13: scalability and parallelism of OnePerc with 7-qubit resource
//! states — (a) suitable average node size vs RSL size, (b) PL ratio vs
//! program size, (c) renormalized size vs number of modules / MI ratio.

use oneperc::CompilerConfig;
use oneperc_bench::{renorm_success_rate, run_oneperc_with_config, ExperimentArgs};
use oneperc_circuit::benchmarks::Benchmark;
use oneperc_hardware::{FusionEngine, HardwareConfig};
use oneperc_percolation::{renormalize, ModularConfig, ModularRenormalizer, Renormalizer};

/// Smallest average node size whose renormalization success rate reaches
/// (approximately) one — the quantity plotted in Fig. 13(a).
fn suitable_node_size(n: usize, p: f64, trials: u64, seed: u64) -> usize {
    let mut candidate = 2;
    while candidate <= n / 2 {
        if renorm_success_rate(n, p, candidate, trials, seed) >= 0.99 {
            return candidate;
        }
        candidate += 2;
    }
    n / 2
}

fn main() {
    let args = ExperimentArgs::from_env("fig13");
    let mut rows = Vec::new();

    // ---- (a) suitable average node size vs RSL size ----
    let rsl_sizes: Vec<usize> = if args.full {
        vec![50, 100, 150, 200, 250, 300]
    } else {
        vec![48, 96, 144]
    };
    let trials: u64 = if args.full { 20 } else { 8 };
    println!("Fig 13(a): suitable average node size vs RSL size");
    println!("{:>6} {:>6} {:>12}", "p", "N", "node size");
    for &p in &[0.66, 0.72, 0.78] {
        for &n in &rsl_sizes {
            let node = suitable_node_size(n, p, trials, args.seed);
            println!("{:>6.2} {:>6} {:>12}", p, n, node);
            rows.push(format!("a,{p},{n},,,,suitable_node_size,{node}"));
        }
    }

    // ---- (b) PL ratio vs program size ----
    let program_sizes: Vec<usize> = if args.full { vec![4, 9, 16, 25, 36] } else { vec![4, 9, 16] };
    println!("\nFig 13(b): PL ratio (merged layers per logical layer) vs program size");
    println!("{:<12} {:>8} {:>10}", "benchmark", "qubits", "PL ratio");
    for bench in Benchmark::all() {
        for &qubits in &program_sizes {
            let side = (qubits as f64).sqrt().ceil() as usize;
            let rsl = side * 12;
            let config = CompilerConfig::for_sensitivity(rsl, side, 0.75, args.seed);
            let report = run_oneperc_with_config(bench, qubits, config, args.seed);
            println!("{:<12} {:>8} {:>10.2}", bench.name(), qubits, report.pl_ratio());
            rows.push(format!("b,0.75,{rsl},12,{bench}-{qubits},,pl_ratio,{:.4}", report.pl_ratio()));
        }
    }

    // ---- (c) renormalized size vs number of modules and MI ratio ----
    let rsl = if args.full { 200 } else { 144 };
    let node_size = 6;
    let mut engine = FusionEngine::new(HardwareConfig::new(rsl, 7, 0.75), args.seed);
    let layer = engine.generate_layer();
    println!("\nFig 13(c): renormalized size vs number of modules ({rsl}x{rsl} RSL, p = 0.75)");

    let unlimited = renormalize(&layer, node_size).node_count();
    println!("{:<28} {:>10}", "non-modular (unlimited time)", unlimited);
    rows.push(format!("c,0.75,{rsl},{node_size},,,unlimited,{unlimited}"));

    for &modules_per_side in &[2usize, 3, 4] {
        let modules = modules_per_side * modules_per_side;
        // Non-modular renormalization restricted to the time budget of the
        // modular run: it can only process a 1/sqrt(modules) portion of the
        // layer side in the same time (complexity O(area)).
        let restricted_side = rsl / modules_per_side;
        let restricted = Renormalizer::new()
            .renormalize_region(&layer, (0, 0), restricted_side, restricted_side, node_size)
            .node_count();
        println!("{:<28} {:>10}  (modules = {modules})", "non-modular (restricted time)", restricted);
        rows.push(format!("c,0.75,{rsl},{node_size},{modules},,restricted,{restricted}"));

        for &mi_ratio in &[2usize, 4, 7, 14, 19] {
            let config = ModularConfig::new(modules_per_side, mi_ratio, node_size);
            let outcome = ModularRenormalizer::new(config).run(&layer);
            println!(
                "modules = {modules:>2}, MI ratio = {mi_ratio:>2}      {:>10}",
                outcome.joined_nodes
            );
            rows.push(format!(
                "c,0.75,{rsl},{node_size},{modules},{mi_ratio},modular,{}",
                outcome.joined_nodes
            ));
        }
    }

    let path = args.write_csv(
        "fig13.csv",
        "panel,p,rsl_size,node_size,modules_or_benchmark,mi_ratio,mode,value",
        &rows,
    );
    println!("wrote {}", path.display());
}
