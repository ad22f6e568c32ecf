//! `perfbench --workload W --seed N --seconds S --trace 0|1`: runs one
//! workload against an in-process MaxRS server and prints a human-readable
//! report followed by one JSON result line.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match mrs_perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match mrs_perfbench::run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.json_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: a served answer or a trace check was wrong");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
