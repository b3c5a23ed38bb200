//! The OnePerc benchmark: end-to-end metrics from an untraced run and
//! per-layer metrics from a separate traced run, over three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1-online --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run checks its outputs: each timed execution must be complete,
//! internally consistent, and byte-identical (`deterministic()` view) to
//! the same `(circuit, seed)` on a cold reference session, and every
//! compile must reproduce the first. The last stdout line is the result
//! object; the line before it is the provenance header (host, load, commit,
//! seed, raw samples behind each median, notes on how metrics are derived).
//! Traced runs also write a per-logical-layer JSONL trace under `out/`.
//!
//! The end-to-end timings are seconds at a reference host speed: a fixed
//! calibration kernel is timed between the timed operations and each
//! timing is scaled by the kernel's reference time over its time around it
//! (see [`host`]), so a shared host's slow periods largely cancel while a
//! change to the stack does not. The circuits are fixed (see
//! [`common::CIRCUIT_SEED`]); `--seed` draws execution seeds and job mixes.

pub mod common;
pub mod fleet;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod offline;
pub mod stats;
pub mod table1;

use std::path::PathBuf;

use common::{Ctx, RunOutcome};
use json::Value;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["table1-online", "offline-scale", "fleet-mixed"];

/// Parses the command line (without the program name).
///
/// # Errors
///
/// Describes the first malformed or missing argument.
pub fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        smoke: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            ctx.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => ctx.workload = value.clone(),
            "--seed" => ctx.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                ctx.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(ctx.seconds > 0.0 && ctx.seconds.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
            }
            "--trace" => {
                ctx.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => ctx.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(ctx)
}

/// Runs one workload and returns the provenance header and the result
/// line.
///
/// # Errors
///
/// A workload that cannot run at all (bad input, a metric it failed to
/// record) is an error; failed operations are counted in the result.
pub fn run(ctx: &Ctx) -> Result<(Value, Value), String> {
    let load_start = stats::load_average();
    let outcome: RunOutcome = match ctx.workload.as_str() {
        "table1-online" => table1::run(ctx)?,
        "offline-scale" => offline::run(ctx)?,
        "fleet-mixed" => fleet::run(ctx)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let metrics = outcome.rec.metrics_json(metrics::catalogue(ctx.traced))?;
    let failed = outcome.failures.len() as u64;

    let mut result = Value::obj();
    result.push("correct", failed == 0);
    result.push("attempted", outcome.attempted);
    result.push("failed", failed.min(outcome.attempted));
    result.push("metrics", metrics);

    let (samples, notes) = outcome.rec.into_parts();
    let load = |l: Option<f64>| l.map_or(Value::Null, Value::Num);
    let mut host = Value::obj();
    host.push("nproc", stats::nproc());
    host.push("load_start", load(load_start));
    host.push("load_end", load(stats::load_average()));
    host.push("commit", stats::git_commit());
    let mut header = Value::obj();
    header.push("workload", ctx.workload.as_str());
    header.push("seed", ctx.seed);
    header.push("seconds", ctx.seconds);
    header.push("trace", ctx.traced);
    header.push("smoke", ctx.smoke);
    header.push("host", host);
    header.push(
        "failures",
        Value::Arr(outcome.failures.into_iter().map(Value::Str).collect()),
    );
    header.push("samples", samples);
    header.push("notes", notes);
    Ok((header, result))
}
