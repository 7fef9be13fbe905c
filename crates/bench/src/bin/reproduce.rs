//! Regenerate the paper's tables and figures, and run the harness
//! experiments.
//!
//! ```text
//! cargo run --release -p tapas-bench --bin reproduce [experiment] [flags]
//! ```
//!
//! Every `experiment` comes from the [`tapas_bench::experiment`] registry
//! (`reproduce --list` prints them): the paper sections `table2`,
//! `spawn`, `fig13`, `table3`, `fig14`, `fig15`, `fig16`, `table4`,
//! `fig17`, `table5`, `grain_ablation`, `mem_ablation` and
//! `elision_ablation`, then `lint`, `profile`, `faults`, `stress`, `tune`,
//! `analyze`, `differential`, `chaos`, `fuzzsim`, and `all` (default),
//! which runs the paper sections, `profile`, `faults` and `lint` as one
//! sweep. Each decomposes into independent deterministic cells drained by
//! worker threads of the `tapas-exec` sweep executor. Pass `--json
//! <path>` to also dump the raw rows (the dump carries a
//! `schema_version` field; `all` keys each section by its name).
//!
//! Two subcommands read dumps instead of running cells: `check-json
//! <path>` validates one (well-formed JSON with the current schema
//! version), and `golden-diff <golden> <fresh>` requires every value of
//! the golden dump to be equal in the fresh one, printing the first
//! differing path (`fig15[3].speedup: 3.91 -> 3.87`) and exiting 1 when
//! one is not.
//!
//! Scheduling flags:
//!
//! - `--jobs <N>` worker threads (default: one per core)
//! - `--retries <N>` retries per failing cell (default 1, cap 32)
//! - `--timeout-ms <MS>` per-attempt watchdog (default 10 minutes)
//! - `--snapshot-every <N>` engine-snapshot interval in simulated cycles
//!   for resumable cells (`chaos`): each cell gets a stable snapshot file
//!   under `target/sweep/`, so a killed or timed-out attempt resumes
//!   mid-simulation on retry instead of from scratch
//!
//! Degenerate values (`--jobs 0`, `--timeout-ms 0`, `--retries` above the
//! cap, `--snapshot-every 0`) are rejected up front with a typed error
//! rather than silently clamped or silently disabling the feature.
//!
//! - `--checkpoint <path>` journal location (default
//!   `target/sweep/<experiment>.checkpoint.jsonl`)
//! - `--no-checkpoint` disables journaling
//! - `--resume` replays succeeded cells from the journal and re-runs
//!   only what's missing or failed
//! - `--inject <spec>` test-only fault injection (`panic:<cell>`,
//!   `timeout:<cell>`, `flaky:<cell>:<n>`); repeatable
//!
//! `fuzzsim` generates seeded random task-graph programs and checks each
//! against the interpreter golden model across sampled feature configs.
//! Its extra flags: `--seeds <N>` sets the campaign size (default 8),
//! and `--repro "<line>"` replays a minimized one-line repro string from
//! a failure report instead of running the campaign (a line whose
//! configuration the builder refuses, such as an out-of-limit `ntasks`,
//! exits 2 before anything is built).
//!
//! The sweep summary and checkpoint notes go to **stderr**; stdout
//! carries exactly the experiment's tables, so piped output is identical
//! across `--jobs` values and across interrupted-then-resumed runs. Any
//! failed or unattempted cell maps to a non-zero exit, and so does a
//! silently wrong fault row, in `faults` and in `all` alike.

use std::time::Duration;
use tapas_bench::experiment::{self, encode_value};
use tapas_bench::experiments::JSON_SCHEMA_VERSION;
use tapas_bench::json::{self, JsonValue};
use tapas_exec as exec;

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

struct Flags {
    json_path: Option<String>,
    jobs: Option<usize>,
    retries: Option<u32>,
    timeout_ms: Option<u64>,
    snapshot_every: Option<u64>,
    checkpoint: Option<String>,
    no_checkpoint: bool,
    resume: bool,
    halt_after: Option<usize>,
    inject: exec::Inject,
    list: bool,
    seeds: Option<usize>,
    repro: Option<String>,
}

fn parse_args() -> (Vec<String>, Flags) {
    let mut positional: Vec<String> = Vec::new();
    let mut flags = Flags {
        json_path: None,
        jobs: None,
        retries: None,
        timeout_ms: None,
        snapshot_every: None,
        checkpoint: None,
        no_checkpoint: false,
        resume: false,
        halt_after: None,
        inject: exec::Inject::default(),
        list: false,
        seeds: None,
        repro: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| usage_exit(&format!("reproduce: {a} wants {what}")))
        };
        match a.as_str() {
            "--json" => flags.json_path = Some(value("a path")),
            "--jobs" => {
                flags.jobs = Some(
                    value("a worker count")
                        .parse()
                        .unwrap_or_else(|_| usage_exit("reproduce: --jobs wants a number")),
                );
            }
            "--retries" => {
                flags.retries = Some(
                    value("a retry count")
                        .parse()
                        .unwrap_or_else(|_| usage_exit("reproduce: --retries wants a number")),
                );
            }
            "--timeout-ms" => {
                flags.timeout_ms = Some(
                    value("milliseconds")
                        .parse()
                        .unwrap_or_else(|_| usage_exit("reproduce: --timeout-ms wants a number")),
                );
            }
            "--snapshot-every" => {
                flags.snapshot_every =
                    Some(value("a cycle count").parse().unwrap_or_else(|_| {
                        usage_exit("reproduce: --snapshot-every wants a number")
                    }));
            }
            "--checkpoint" => flags.checkpoint = Some(value("a path")),
            "--no-checkpoint" => flags.no_checkpoint = true,
            "--resume" => flags.resume = true,
            "--halt-after" => {
                flags.halt_after = Some(
                    value("a cell count")
                        .parse()
                        .unwrap_or_else(|_| usage_exit("reproduce: --halt-after wants a number")),
                );
            }
            "--inject" => {
                let spec = value("a spec");
                flags
                    .inject
                    .parse_spec(&spec)
                    .unwrap_or_else(|e| usage_exit(&format!("reproduce: {e}")));
            }
            "--seeds" => {
                let n: usize = value("a seed count")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("reproduce: --seeds wants a number"));
                if n == 0 {
                    usage_exit(
                        "reproduce: --seeds 0: a fuzzing campaign needs at least one \
                         generated program; omit the flag for the default",
                    );
                }
                flags.seeds = Some(n);
            }
            "--repro" => flags.repro = Some(value("a one-line repro string")),
            "--list" => flags.list = true,
            other if other.starts_with("--") => {
                usage_exit(&format!("reproduce: unknown flag `{other}`"));
            }
            _ => positional.push(a),
        }
    }
    (positional, flags)
}

fn main() {
    let (positional, flags) = parse_args();
    if flags.list {
        for e in experiment::registry() {
            println!("{:<16} v{:<3} {}", e.name, JSON_SCHEMA_VERSION, e.summary);
        }
        return;
    }
    let which = positional.first().map(String::as_str).unwrap_or("all").to_string();

    // Replaying a minimized repro line (from any differential, chaos or
    // fuzzsim failure) skips the campaign entirely: rebuild the program
    // the line names and check exactly the sample it names.
    if let Some(line) = &flags.repro {
        if which != "fuzzsim" {
            usage_exit("reproduce: --repro is a fuzzsim flag (reproduce fuzzsim --repro \"...\")");
        }
        match tapas_integration::replay_repro(line) {
            Ok(()) => {
                println!("repro: clean (no divergence)");
                return;
            }
            Err(tapas_integration::ReplayError::Config(e)) => usage_exit(&format!("repro: {e}")),
            Err(e) => {
                eprintln!("repro: {e}");
                std::process::exit(1);
            }
        }
    }

    match (which.as_str(), positional.get(1), positional.get(2)) {
        ("check-json", Some(path), _) => check_json(path),
        ("check-json", ..) => usage_exit("usage: reproduce check-json <path>"),
        ("golden-diff", Some(golden), Some(fresh)) => golden_diff(golden, fresh),
        ("golden-diff", ..) => {
            usage_exit("usage: reproduce golden-diff <golden.json> <fresh.json>")
        }
        _ => match experiment::find(&which) {
            Some(e) => run_experiment(e, &flags),
            None => {
                let names: Vec<&str> = experiment::registry().iter().map(|e| e.name).collect();
                usage_exit(&format!(
                    "unknown experiment `{which}`\nexpected one of: {}, check-json, golden-diff",
                    names.join(", ")
                ));
            }
        },
    }
}

/// Run one registry experiment through the sweep executor with the CLI's
/// scheduling flags, journaling to the checkpoint unless disabled.
fn run_experiment(e: &experiment::Experiment, flags: &Flags) {
    exec::install_quiet_panic_hook();
    let mut policy = exec::Policy::default_parallel();
    if let Some(jobs) = flags.jobs {
        policy.jobs = jobs;
    }
    if let Some(retries) = flags.retries {
        policy.max_attempts = retries.saturating_add(1);
    }
    if let Some(ms) = flags.timeout_ms {
        policy.timeout = Some(Duration::from_millis(ms));
    }
    policy.snapshot_every = flags.snapshot_every;
    policy.halt_after = flags.halt_after;
    policy.inject = flags.inject.clone();
    // Reject degenerate flag values up front, before any cell runs.
    if let Err(e) = policy.validate() {
        usage_exit(&format!("reproduce: {e}"));
    }

    let path = flags
        .checkpoint
        .clone()
        .unwrap_or_else(|| format!("target/sweep/{}.checkpoint.jsonl", e.name));
    let journal = if flags.no_checkpoint {
        None
    } else if flags.resume {
        match exec::Journal::resume(std::path::Path::new(&path), experiment::codec()) {
            Ok(j) => Some(j),
            Err(err) => {
                eprintln!("reproduce: cannot resume from {path}: {err}");
                std::process::exit(2);
            }
        }
    } else {
        match exec::Journal::create(std::path::Path::new(&path), experiment::codec()) {
            Ok(j) => Some(j),
            Err(err) => {
                eprintln!("reproduce: cannot write checkpoint {path}: {err}; running without");
                None
            }
        }
    };
    if let Some(j) = &journal {
        for note in j.notes() {
            eprintln!("checkpoint: {note}");
        }
        if flags.resume {
            eprintln!("checkpoint: {} cell(s) replayable from {path}", j.prior_count());
        }
    }

    let opts = experiment::RunOpts { seeds: flags.seeds };
    let (report, sweep) = e.run_sharded_with(&opts, &policy, journal.as_ref());
    print!("{}", report.text);
    if let Some(p) = &flags.json_path {
        std::fs::write(p, &report.json).expect("write json");
        println!("\nraw rows written to {p}");
    }
    eprintln!("sweep: {}", sweep.summary());
    if let Some(reason) = &report.failure {
        eprintln!("{}: {reason}", e.name);
        std::process::exit(1);
    }
}

/// Read and parse a `--json` dump, or exit 1 naming the command.
fn load(cmd: &str, path: &str) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{cmd}: cannot read {path}: {e}");
        std::process::exit(1);
    });
    json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{cmd}: {path} is not valid JSON: {e}");
        std::process::exit(1);
    })
}

/// Validate a `reproduce --json` dump: parses as JSON and carries the
/// current schema version.
fn check_json(path: &str) {
    let doc = load("check-json", path);
    match doc.get("schema_version").and_then(JsonValue::as_f64) {
        Some(v) if v == JSON_SCHEMA_VERSION as f64 => {
            println!("{path}: valid, schema version {JSON_SCHEMA_VERSION}");
        }
        Some(v) => {
            eprintln!("check-json: {path} has schema version {v}, expected {JSON_SCHEMA_VERSION}");
            std::process::exit(1);
        }
        None => {
            eprintln!("check-json: {path} lacks a numeric top-level `schema_version`");
            std::process::exit(1);
        }
    }
}

/// Gate a fresh dump on a golden one: every value the golden holds must
/// be in the fresh dump and equal. The first differing path is printed
/// and exits 1; members only the fresh dump has are noted on stderr, so
/// a new section does not fail the gate until the golden pins it.
fn golden_diff(golden: &str, fresh: &str) {
    let mut added = Vec::new();
    let diff =
        first_diff(&load("golden-diff", golden), &load("golden-diff", fresh), "", &mut added);
    for path in added {
        eprintln!("golden-diff: note: `{path}` is not in {golden}");
    }
    match diff {
        Some(line) => {
            println!("{line}");
            std::process::exit(1);
        }
        None => println!("golden-diff: {fresh} matches {golden}"),
    }
}

/// The first path, in golden document order, where `fresh` departs from
/// `golden`; members only `fresh` has are collected into `added`.
fn first_diff(
    golden: &JsonValue,
    fresh: &JsonValue,
    path: &str,
    added: &mut Vec<String>,
) -> Option<String> {
    let member =
        |key: &str| if path.is_empty() { key.to_string() } else { format!("{path}.{key}") };
    match (golden, fresh) {
        (JsonValue::Obj(want), JsonValue::Obj(got)) => {
            added.extend(
                got.iter().filter(|(k, _)| golden.get(k).is_none()).map(|(k, _)| member(k)),
            );
            want.iter().find_map(|(key, w)| match fresh.get(key) {
                Some(g) => first_diff(w, g, &member(key), added),
                None => Some(format!("{}: {} -> (missing)", member(key), encode_value(w))),
            })
        }
        (JsonValue::Arr(want), JsonValue::Arr(got)) => {
            let row = want
                .iter()
                .zip(got)
                .enumerate()
                .find_map(|(i, (w, g))| first_diff(w, g, &format!("{path}[{i}]"), added));
            row.or_else(|| {
                (want.len() != got.len())
                    .then(|| format!("{path}: {} rows -> {} rows", want.len(), got.len()))
            })
        }
        _ => (golden != fresh)
            .then(|| format!("{path}: {} -> {}", encode_value(golden), encode_value(fresh))),
    }
}
