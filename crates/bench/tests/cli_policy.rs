//! Negative tests for the `reproduce` CLI's degenerate-flag paths.
//!
//! The sweep executor's `Policy::validate` rejects values that would
//! silently disable or break the machinery (`--jobs 0`, `--timeout-ms 0`,
//! absurd retry budgets, `--snapshot-every 0`); `reproduce` must surface
//! each as a usage error — exit code 2 with the documented message —
//! *before* any cell runs. These paths were previously only validated by
//! hand; this locks the exit code and the exact wording the docs promise.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce")).args(args).output().expect("spawn reproduce")
}

fn assert_usage_error(args: &[&str], expect_stderr: &str) {
    let out = reproduce(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?}: expected exit 2, got {:?}; stderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(expect_stderr),
        "{args:?}: stderr missing documented message\n  want: {expect_stderr}\n  got: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?}: a rejected policy must not run any cell (stdout non-empty)"
    );
}

#[test]
fn zero_jobs_is_rejected_up_front() {
    assert_usage_error(
        &["profile", "--jobs", "0"],
        "--jobs 0: at least one worker is required to drain the sweep",
    );
}

#[test]
fn zero_timeout_is_rejected_up_front() {
    assert_usage_error(
        &["profile", "--timeout-ms", "0"],
        "--timeout-ms 0: a zero watchdog would kill every attempt at birth; \
         omit the flag to keep the default",
    );
}

#[test]
fn absurd_retries_are_rejected_up_front() {
    assert_usage_error(
        &["profile", "--retries", "33"],
        "--retries 33: retry budgets above 32 are a typo, not a policy \
         (exponential backoff overflows long before that)",
    );
}

#[test]
fn zero_snapshot_interval_is_rejected_up_front() {
    assert_usage_error(
        &["chaos", "--snapshot-every", "0"],
        "--snapshot-every 0: a zero-cycle snapshot interval would snapshot every \
         engine iteration; omit the flag to disable snapshotting",
    );
}

#[test]
fn zero_seeds_is_rejected_up_front() {
    assert_usage_error(
        &["fuzzsim", "--seeds", "0"],
        "--seeds 0: a fuzzing campaign needs at least one generated program",
    );
}

#[test]
fn repro_flag_requires_fuzzsim() {
    assert_usage_error(&["profile", "--repro", "seed=0x1"], "--repro is a fuzzsim flag");
}

#[test]
fn malformed_repro_line_exits_nonzero() {
    let out = reproduce(&["fuzzsim", "--repro", "seed=0x1 bogus=3"]);
    assert_eq!(out.status.code(), Some(1), "malformed repro line must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown key"));
}

#[test]
fn out_of_limit_repro_line_is_a_usage_error() {
    // A repro line is outside input: an absurd queue depth is refused by
    // the configuration's limits before any accelerator is elaborated.
    assert_usage_error(
        &[
            "fuzzsim",
            "--repro",
            "seed=0x0 steal=off banks=1 tiles=1 ntasks=1099511627776 admission=false \
             engine=event faults=off kill=off profile=off",
        ],
        "repro: config: ntasks = 1099511627776 is above the limit of 65536",
    );
}

#[test]
fn clean_repro_line_replays_and_reports_clean() {
    // A baseline config for seed 0 must pass on a healthy engine, and so
    // must a suite workload's line (as a differential or chaos failure
    // prints it) — and the replay path prints its verdict on stdout for
    // scripting.
    for line in [
        "seed=0x0 steal=off banks=1 tiles=1 ntasks=256 admission=false \
         engine=event faults=off kill=off profile=off",
        "workload=fib steal=2 banks=4 tiles=2 ntasks=4 admission=true \
         engine=event faults=off kill=0x2a profile=summary",
    ] {
        let out = reproduce(&["fuzzsim", "--repro", line]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "clean repro must exit 0; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("repro: clean"), "stdout: {stdout}");
    }
}

#[test]
fn retired_and_unknown_subcommands_exit_2_listing_every_experiment() {
    for retired in ["bench", "bench-compare", "grain"] {
        let out = reproduce(&[retired]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{retired}: stderr: {stderr}");
        assert!(out.stdout.is_empty(), "{retired}: nothing runs");
        assert!(stderr.contains(&format!("unknown experiment `{retired}`")), "{stderr}");
        for e in tapas_bench::experiment::registry() {
            assert!(stderr.contains(e.name), "{retired}: help omits `{}`: {stderr}", e.name);
        }
    }
}

#[test]
fn a_paper_section_dumps_json_that_check_json_accepts() {
    let path = std::env::temp_dir().join(format!("tapas-cli-table2-{}.json", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    let out = reproduce(&["table2", "--no-checkpoint", "--json", path]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table II: benchmark properties"));
    let check = reproduce(&["check-json", path]);
    assert_eq!(check.status.code(), Some(0), "{}", String::from_utf8_lossy(&check.stderr));
    let _ = std::fs::remove_file(path);
}

#[test]
fn list_shows_the_paper_sections() {
    let out = reproduce(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for section in [
        "table2",
        "spawn",
        "fig13",
        "table3",
        "fig14",
        "fig15",
        "fig16",
        "table4",
        "fig17",
        "table5",
        "grain_ablation",
        "mem_ablation",
        "elision_ablation",
        "lint",
        "all",
    ] {
        assert!(stdout.lines().any(|l| l.starts_with(&format!("{section} "))), "{stdout}");
    }
}
