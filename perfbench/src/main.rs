//! `tapas-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exit 0 after a completed run, 1 when set-up fails or the workload's
//! inputs differ from the recorded ones, 2 on a bad command line.

use std::path::PathBuf;
use std::process::ExitCode;

use tapas_perfbench::work::{Scale, Workload};
use tapas_perfbench::{run, Options};

const USAGE: &str =
    "usage: tapas-perfbench --workload <busy_kernels|spawn_chain|hls_compile|dse_sweep> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::BusyKernels,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::FULL,
        trace_dir: Some(PathBuf::from("perfbench/out")),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
