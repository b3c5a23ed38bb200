//! Shared utilities for the experiment harness.
//!
//! Every table and figure of the paper's evaluation has a dedicated binary
//! in `src/bin/`. This library holds the pieces they share: command-line
//! handling, CSV output, the standard way of running OnePerc and the OneQ
//! baseline on a benchmark, and the renormalization success estimate.
//!
//! Default experiment sizes are reduced so every binary finishes on a
//! laptop in seconds to a couple of minutes; pass `--full` to use the
//! paper's sizes (hours of CPU time, exactly like the original artifact).
//!
//! # Experiment index
//!
//! | Binary | Paper result |
//! |---|---|
//! | `table2` | Table 2: `#RSL` and `#fusion`, OnePerc vs OneQ |
//! | `table3` | Table 3: `#RSL` with and without refresh under a RAM budget |
//! | `fig12` | Fig. 12: `#RSL` vs resource-state size, RSL size and fusion probability |
//! | `fig13` | Fig. 13: suitable node size, PL ratio, modular renormalized size |
//! | `fig14` | Fig. 14: online time per RSL vs program size and RSL size |
//! | `fig15` | Fig. 15: offline compile time vs program and virtual-hardware size |
//! | `fig16` | Fig. 16: renormalization success rate vs average node size |
//!
//! | Criterion bench | Measures |
//! |---|---|
//! | `online_per_rsl` | per-RSL renormalize, `spans_target` and generate + renormalize (Fig. 14(a)); generation alone for merged 4-qubit and unmerged 7-qubit states, at L = 120 (p = 0.75) and L = 36 (p = 0.9) |
//! | `modular_renorm` | modular vs non-modular renormalization of one layer (Figs. 13(c), 14(b)) |
//! | `offline_mapping` | mapping time vs program size and virtual-hardware size (Fig. 15) |
//! | `mapper_ablation` | dynamic vs static scheduling and the incomplete-node occupancy limit |
//! | `baseline_retry` | OneQ repeat-until-success simulation cost vs fusion probability (Table 2) |
//!
//! # References
//!
//! One preserved reference pins each contract of the production pipeline:
//!
//! - generation stream: [`dense::DenseReferenceEngine`], which decodes the
//!   engine's RNG words one site at a time by scalar comparisons, site for
//!   site, in `tests/layer_equivalence.rs`;
//! - generation law: [`dense::DenseScalarEngine`], the per-attempt
//!   generator, by per-layer z tests in `tests/generation_law.rs` (beside
//!   chi-square tests of the merge law against the per-attempt automaton
//!   and of the threshold draws against the enumerated law);
//! - lattices and modular joins: [`dense::ScalarRenormalizer`] and
//!   [`dense::scalar_modular_outcome`], in `tests/layer_equivalence.rs`;
//! - offline mapper: [`reference_mapper`], in `tests/mapper_equivalence.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod reference_mapper;

use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use oneperc::{CompilerConfig, ExecutionReport, Session};
use oneperc_circuit::benchmarks::Benchmark;
use oneperc_hardware::{FusionEngine, HardwareConfig};
use oneperc_oneq::{OneqCompiler, OneqConfig, OneqReport};
use oneperc_percolation::renormalize;

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct ExperimentArgs {
    /// Use the paper's full experiment sizes instead of the reduced
    /// defaults.
    pub full: bool,
    /// Directory CSV results are written to.
    pub out_dir: PathBuf,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        ExperimentArgs { full: false, out_dir: PathBuf::from("results"), seed: 2024 }
    }
}

impl ExperimentArgs {
    /// Parses `--full`, `--out <dir>` and `--seed <n>` from the process
    /// arguments. Unknown arguments cause a help message and exit.
    pub fn from_env(experiment: &str) -> Self {
        let mut args = ExperimentArgs::default();
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => args.full = true,
                "--out" => {
                    args.out_dir = PathBuf::from(iter.next().unwrap_or_else(|| {
                        eprintln!("--out needs a directory");
                        std::process::exit(2);
                    }));
                }
                "--seed" => {
                    args.seed = iter
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| {
                            eprintln!("--seed needs an integer");
                            std::process::exit(2);
                        });
                }
                "--help" | "-h" => {
                    println!(
                        "{experiment}: reproduces the corresponding table/figure of the OnePerc paper.\n\
                         options: --full (paper-sized run), --out <dir> (default: results/), --seed <n>"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument: {other} (try --help)");
                    std::process::exit(2);
                }
            }
        }
        args
    }

    /// Writes a CSV file (header plus rows) into the output directory and
    /// returns its path.
    pub fn write_csv(&self, name: &str, header: &str, rows: &[String]) -> PathBuf {
        fs::create_dir_all(&self.out_dir).expect("create results directory");
        let path = self.out_dir.join(name);
        let mut contents = String::from(header);
        contents.push('\n');
        for row in rows {
            contents.push_str(row);
            contents.push('\n');
        }
        fs::write(&path, contents).expect("write csv");
        path
    }
}

/// Runs OnePerc end to end on a benchmark with the Table 1 sizing for the
/// given qubit count and fusion success probability.
pub fn run_oneperc(
    bench: Benchmark,
    qubits: usize,
    fusion_success_prob: f64,
    refresh: Option<usize>,
    seed: u64,
) -> ExecutionReport {
    let config = CompilerConfig::for_qubits(qubits, fusion_success_prob, seed)
        .with_refresh_period(refresh);
    run_oneperc_with_config(bench, qubits, config, seed)
}

/// Runs OnePerc end to end with an explicit configuration.
pub fn run_oneperc_with_config(
    bench: Benchmark,
    qubits: usize,
    config: CompilerConfig,
    seed: u64,
) -> ExecutionReport {
    let circuit = bench.circuit(qubits, seed);
    let session = Session::new(config);
    let compiled = session
        .compile(&circuit)
        .unwrap_or_else(|e| panic!("OnePerc failed on {bench}-{qubits}: {e}"));
    session.execute_shared(Arc::new(compiled), config.seed).into_report()
}

/// Runs the OneQ baseline on a benchmark with the paper's repeat-until-
/// success strategy and `10^6`-RSL cap (a smaller cap is used for reduced
/// runs).
pub fn run_oneq(
    bench: Benchmark,
    qubits: usize,
    fusion_success_prob: f64,
    rsl_cap: u64,
    seed: u64,
) -> OneqReport {
    let circuit = bench.circuit(qubits, seed);
    // OneQ maps each program slice onto the physical RSL directly, so its
    // per-layer lattice is considerably larger than OnePerc's virtual
    // hardware; twice the program side keeps the plan shallow while the
    // repeat-until-success execution stays the bottleneck.
    let side = 2 * (qubits as f64).sqrt().ceil() as usize;
    let config = OneqConfig::new(side.max(2), fusion_success_prob, seed).with_rsl_cap(rsl_cap);
    OneqCompiler::new(config)
        .run(&circuit)
        .unwrap_or_else(|e| panic!("OneQ failed on {bench}-{qubits}: {e}"))
}

/// Fraction of `trials` random `n x n` layers (7-qubit resource states,
/// fusion probability `p`, seeds `seed..seed + trials`) whose
/// renormalization to `node_size` realizes every coarse node: the
/// success rate of Figs. 13(a) and 16.
pub fn renorm_success_rate(n: usize, p: f64, node_size: usize, trials: u64, seed: u64) -> f64 {
    let ok = (0..trials)
        .filter(|&t| {
            let layer = FusionEngine::new(HardwareConfig::new(n, 7, p), seed + t).generate_layer();
            renormalize(&layer, node_size).is_success()
        })
        .count();
    ok as f64 / trials as f64
}

/// Formats a Table 2 cell of the OneQ baseline: the plain value for a run
/// that finished, `"≥ value"` for one cut at the RSL cap. A saturated run
/// stops after charging `value` in the cell's own unit (RSLs, fusions or
/// an improvement ratio built from them), so the true figure is at least
/// that.
pub fn format_capped(value: impl fmt::Display, saturated: bool) -> String {
    if saturated {
        format!("≥ {value}")
    } else {
        value.to_string()
    }
}

/// Formats a Table 2 improvement ratio (OneQ over OnePerc) to two
/// decimals. A saturated OneQ run makes the ratio a lower bound, and a
/// lower bound below 1 supports neither side of the comparison, so such a
/// cell reads `"inconclusive (cap)"`; a saturated ratio of at least 1
/// reads `"≥ ratio"`.
pub fn format_capped_ratio(ratio: f64, saturated: bool) -> String {
    if saturated && ratio < 1.0 {
        "inconclusive (cap)".to_string()
    } else {
        format_capped(format!("{ratio:.2}"), saturated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_formatting() {
        assert_eq!(format_capped(123, false), "123");
        // A saturated cell keeps its own unit: fusions charged, not the
        // RSL cap.
        assert_eq!(format_capped(7_000, true), "≥ 7000");
        assert_eq!(format_capped(format!("{:.2}", 12.345), true), "≥ 12.35");
    }

    #[test]
    fn capped_ratios_below_one_are_inconclusive() {
        assert_eq!(format_capped_ratio(0.49, false), "0.49");
        assert_eq!(format_capped_ratio(0.49, true), "inconclusive (cap)");
        assert_eq!(format_capped_ratio(12.345, true), "≥ 12.35");
        assert_eq!(format_capped_ratio(1.0, true), "≥ 1.00");
    }

    #[test]
    fn csv_writing_roundtrip() {
        let out_dir = std::env::temp_dir()
            .join(format!("oneperc-bench-test-{}", std::process::id()));
        let args = ExperimentArgs { out_dir: out_dir.clone(), ..ExperimentArgs::default() };
        let path = args.write_csv("t.csv", "a,b", &["1,2".to_string()]);
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_dir_all(&out_dir).unwrap();
        assert!(text.starts_with("a,b\n1,2\n"));
    }

    #[test]
    fn oneperc_and_oneq_run_on_a_tiny_benchmark() {
        let report = run_oneperc(Benchmark::Vqe, 4, 0.9, None, 3);
        assert!(report.rsl_consumed > 0);
        let baseline = run_oneq(Benchmark::Vqe, 4, 0.9, 50_000, 3);
        assert!(baseline.rsl_consumed > 0);
    }
}
