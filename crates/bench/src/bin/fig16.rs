//! Fig. 16: 2D renormalization success rate vs average node size, for fusion
//! success probabilities 0.66–0.78 (200x200 RSL in the paper).

use oneperc_bench::{renorm_success_rate, ExperimentArgs};

fn main() {
    let args = ExperimentArgs::from_env("fig16");
    let rsl = if args.full { 200 } else { 96 };
    let trials: u64 = if args.full { 30 } else { 10 };
    let node_sizes: Vec<usize> = if args.full {
        vec![2, 4, 6, 8, 10, 14, 18, 24, 32, 40, 50, 60]
    } else {
        vec![2, 4, 6, 8, 12, 16, 24, 32]
    };
    let probabilities = [0.66, 0.69, 0.72, 0.75, 0.78];

    println!("Fig 16: renormalization success rate vs average node size ({rsl}x{rsl} RSL, {trials} trials)");
    print!("{:>10}", "node size");
    for p in probabilities {
        print!(" {:>8.2}", p);
    }
    println!();

    let mut rows = Vec::new();
    for &node_size in &node_sizes {
        print!("{:>10}", node_size);
        for &p in &probabilities {
            let rate = renorm_success_rate(rsl, p, node_size, trials, args.seed);
            print!(" {:>8.2}", rate);
            rows.push(format!("{p},{rsl},{node_size},{rate:.4}"));
        }
        println!();
    }

    let path = args.write_csv(
        "fig16.csv",
        "fusion_success_prob,rsl_size,node_size,renormalization_success_rate",
        &rows,
    );
    println!("\nwrote {}", path.display());
}
