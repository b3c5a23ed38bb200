//! Command-line entry point; see the library docs for what a run does.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match oneperc_perfbench::parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]",
                oneperc_perfbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match oneperc_perfbench::run(&ctx) {
        Ok((header, result)) => {
            println!("{header}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
