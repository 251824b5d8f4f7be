//! The tamp machine-time benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-hot|serve-replan|wide-pooled|meter-fat65k|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric with its unit, then, as the last line
//! of standard output, one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of the traced run (`--trace 1`). See `LAYERS.md` for what
//! each metric measures and which workload exposes which layer.

mod meter;
mod report;
mod serve;
mod trace;

#[cfg(test)]
mod tests;

use std::process::ExitCode;

use report::{json_line, Report};

/// Every workload, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = ["serve-hot", "serve-replan", "wide-pooled", "meter-fat65k"];

pub fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Option<Report> {
    Some(match name {
        "serve-hot" => serve::run(&serve::SERVE_HOT, seed, seconds, traced),
        "serve-replan" => serve::run(&serve::SERVE_REPLAN, seed, seconds, traced),
        "wide-pooled" => serve::run(&serve::WIDE_POOLED, seed, seconds, traced),
        "meter-fat65k" => meter::run(&meter::METER_FAT65K, seed, seconds, traced),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    println!(
        "perfbench seed={} seconds={} trace={} threads={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let reports: Vec<Report> = names
        .iter()
        .map(|n| {
            let r = run_workload(n, args.seed, args.seconds, args.trace)
                .expect("workload names are validated");
            print!("{}", r.render(args.trace));
            r
        })
        .collect();
    let line = match reports.as_slice() {
        [one] => one.json(args.trace),
        many => {
            // `all`: one object, metrics keyed `<workload>/<metric>`.
            let keyed = many.iter().flat_map(|r| {
                let list = if args.trace {
                    &r.per_layer
                } else {
                    &r.end_to_end
                };
                list.iter()
                    .map(move |m| (format!("{}/{}", r.workload, m.name), m))
            });
            json_line(
                many.iter().all(Report::correct),
                many.iter().map(|r| r.attempted).sum(),
                many.iter().map(|r| r.failed).sum(),
                keyed,
            )
        }
    };
    println!("{line}");
    ExitCode::SUCCESS
}
