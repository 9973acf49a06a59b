//! The benchmark's command line. Usage:
//!
//! ```text
//! katara-perfbench --workload <batch-fuzzy|batch-covered|serve-mixed>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Progress goes to standard error; the last line of standard output is
//! the result object. Exits 0 once a result is printed, 2 on bad usage.

use std::path::PathBuf;
use std::process::ExitCode;

use katara_perfbench::inputs::{Inputs, Scale, Workload};
use katara_perfbench::metrics::{END_TO_END, PER_LAYER};
use katara_perfbench::{batch, serve};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch space (the daemon's journal) lives inside the working
    // directory and is removed before exit.
    let tmp = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&tmp);
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }

    let gen_start = std::time::Instant::now();
    let inputs = Inputs::generate(args.workload, args.seed, Scale::Yago);
    eprintln!(
        "perfbench: {} seed {} inputs generated in {:.1} s ({} KB bytes)",
        args.workload.name(),
        args.seed,
        gen_start.elapsed().as_secs_f64(),
        inputs.kb_text.len()
    );
    let mut result = match args.workload {
        Workload::BatchFuzzy | Workload::BatchCovered => {
            batch::run(&inputs, args.seconds, args.trace, &tmp)
        }
        Workload::ServeMixed => serve::run(&inputs, args.trace, &tmp),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    let line = result.to_json(if args.trace { PER_LAYER } else { END_TO_END });
    println!("{line}");
    ExitCode::SUCCESS
}
