//! Table 2: `#RSL` and `#fusion` of OnePerc versus the OneQ baseline.
//!
//! Reduced run (default): 4- and 9-qubit benchmarks, OneQ capped at 10^5
//! RSLs. `--full` switches to the paper's benchmark sizes (4/9/25 qubits at
//! p = 0.90, 4/25/64 at p = 0.75) and the 10^6 cap; expect hours of CPU
//! time, as with the original artifact.
//!
//! A OneQ run cut at the cap prints its cells as lower bounds (`≥ n`): the
//! RSLs and fusions it charged before the cut, and the improvement ratios
//! built from them. A capped ratio below 1 bounds nothing useful, so it
//! prints as `inconclusive (cap)`. The CSV keeps the raw counts and the
//! `oneq_saturated` flag.

use oneperc_bench::{format_capped, format_capped_ratio, run_oneperc, run_oneq, ExperimentArgs};
use oneperc_circuit::benchmarks::Benchmark;

fn main() {
    let args = ExperimentArgs::from_env("table2");
    let cap: u64 = if args.full { 1_000_000 } else { 100_000 };

    let settings: Vec<(f64, Vec<usize>)> = if args.full {
        vec![(0.90, vec![4, 9, 25]), (0.75, vec![4, 25, 64])]
    } else {
        vec![(0.90, vec![4, 9]), (0.75, vec![4, 9])]
    };

    println!("Table 2: OnePerc vs OneQ (repeat-until-success), OneQ capped at {cap} RSLs");
    println!(
        "{:<6} {:<10} {:>12} {:>12} {:>18} {:>14} {:>14} {:>18}",
        "p", "benchmark", "OneQ #RSL", "OnePerc#RSL", "improv", "OneQ #fusion", "OnePerc#fus", "improv"
    );

    let mut rows = Vec::new();
    for (p, qubit_list) in &settings {
        for &qubits in qubit_list {
            for bench in Benchmark::all() {
                let baseline = run_oneq(bench, qubits, *p, cap, args.seed);
                let ours = run_oneperc(bench, qubits, *p, None, args.seed);
                let rsl_improv = baseline.rsl_consumed as f64 / ours.rsl_consumed.max(1) as f64;
                let fusion_improv = baseline.fusions as f64 / ours.fusions.max(1) as f64;
                println!(
                    "{:<6.2} {:<10} {:>12} {:>12} {:>18} {:>14} {:>14} {:>18}",
                    p,
                    format!("{bench}-{qubits}"),
                    format_capped(baseline.rsl_consumed, baseline.saturated),
                    ours.rsl_consumed,
                    format_capped_ratio(rsl_improv, baseline.saturated),
                    format_capped(baseline.fusions, baseline.saturated),
                    ours.fusions,
                    format_capped_ratio(fusion_improv, baseline.saturated),
                );
                rows.push(format!(
                    "{p},{bench},{qubits},{},{},{},{:.4},{},{},{:.4}",
                    baseline.rsl_consumed,
                    baseline.saturated,
                    ours.rsl_consumed,
                    rsl_improv,
                    baseline.fusions,
                    ours.fusions,
                    fusion_improv
                ));
            }
        }
    }

    let path = args.write_csv(
        "table2.csv",
        "p,benchmark,qubits,oneq_rsl,oneq_saturated,oneperc_rsl,rsl_improvement,oneq_fusions,oneperc_fusions,fusion_improvement",
        &rows,
    );
    println!("\nwrote {}", path.display());
}
