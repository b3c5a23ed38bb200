//! Command-line front end of the cross-path determinism fuzzer.
//!
//! ```text
//! fuzz-determinism [--circuits N] [--base-seed S] [--exec-seeds K] [--no-shrink] [--quiet]
//! ```
//!
//! Sweeps `N` sampled corpus circuits through the full
//! warm/cold × 0/2 renormalization workers × cached/uncached × 1/2/4-lane
//! matrix and exits non-zero on the first byte-identity divergence,
//! printing the minimized spec and a replay token. Set `ONEPERC_FUZZ_REPLAY` to such a
//! token to re-check exactly one circuit instead of sampling.
//!
//! Normally invoked as `cargo xtask fuzz-determinism` (which builds it in
//! release mode and forwards the flags verbatim).

use std::process::ExitCode;

use oneperc_corpus::fuzz::{run_fuzz, run_replay, FuzzOptions, Replay, REPLAY_ENV};

const USAGE: &str = "usage: fuzz-determinism [--circuits N] [--base-seed S] \
                     [--exec-seeds K] [--no-shrink] [--quiet]";

fn parse_options() -> Result<FuzzOptions, String> {
    let mut options = FuzzOptions { progress: true, ..FuzzOptions::default() };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--circuits" => {
                options.circuits = value("--circuits")?
                    .parse()
                    .map_err(|_| "--circuits takes an integer".to_string())?;
            }
            "--base-seed" => {
                options.base_seed = value("--base-seed")?
                    .parse()
                    .map_err(|_| "--base-seed takes an integer".to_string())?;
            }
            "--exec-seeds" => {
                options.exec_seeds = value("--exec-seeds")?
                    .parse()
                    .map_err(|_| "--exec-seeds takes an integer".to_string())?;
                if options.exec_seeds == 0 {
                    return Err("--exec-seeds must be at least 1".to_string());
                }
            }
            "--no-shrink" => options.shrink = false,
            "--quiet" => options.progress = false,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let replay = match Replay::from_env() {
        Ok(replay) => replay,
        Err(message) => {
            eprintln!("{REPLAY_ENV}: {message}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &replay {
        Some(replay) => {
            println!(
                "replaying {} (circuit seed {}, exec seeds {:?})",
                replay.spec, replay.circuit_seed, replay.exec_seeds
            );
            run_replay(replay, &options)
        }
        None => run_fuzz(&options),
    };
    match result {
        Ok(stats) => {
            println!("determinism fuzz clean: {stats}");
            ExitCode::SUCCESS
        }
        Err(divergence) => {
            eprintln!("{divergence}");
            ExitCode::FAILURE
        }
    }
}
