//! Acceptance tests for the sharded sweep executor driving the real
//! experiment registry: the aggregated report must be byte-identical
//! across worker counts and across interrupted-then-resumed runs, and
//! injected faults must be isolated and reported instead of crashing the
//! harness.
//!
//! The `profile` experiment is the workhorse here: seven deterministic
//! cells, the cheapest registry entry that still runs real simulations.

use std::time::Duration;
use tapas_bench::experiment;
use tapas_exec as exec;

fn profile() -> &'static experiment::Experiment {
    experiment::find("profile").expect("profile is registered")
}

/// A parallel policy without watchdog/retry noise: `jobs` workers, one
/// attempt, so any behavioral difference is down to scheduling alone.
fn jobs_policy(jobs: usize) -> exec::Policy {
    exec::Policy { jobs, ..exec::Policy::serial() }
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tapas-executor-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn report_is_byte_identical_across_jobs() {
    let e = profile();
    let (serial, sweep1) = e.run_sharded(&jobs_policy(1), None);
    assert!(sweep1.complete_ok(), "clean run: {}", sweep1.summary());
    assert!(serial.failure.is_none());
    for jobs in [2usize, 4] {
        let (parallel, sweep) = e.run_sharded(&jobs_policy(jobs), None);
        assert!(sweep.complete_ok(), "jobs={jobs}: {}", sweep.summary());
        assert_eq!(serial.json, parallel.json, "JSON drifted at jobs={jobs}");
        assert_eq!(serial.text, parallel.text, "text drifted at jobs={jobs}");
    }
}

#[test]
fn interrupted_run_resumes_to_the_clean_report() {
    let e = profile();
    let (clean, _) = e.run_sharded(&jobs_policy(1), None);

    let path = tmp_path("resume.jsonl");
    // First run is killed after three cells (the halt_after test hook
    // stands in for SIGKILL: the journal simply stops growing).
    let journal = exec::Journal::create(&path, experiment::codec()).expect("create journal");
    let halted = exec::Policy { halt_after: Some(3), ..jobs_policy(2) };
    let (partial, sweep) = e.run_sharded(&halted, Some(&journal));
    assert!(!sweep.complete_ok());
    assert!(sweep.skipped > 0, "the interruption must leave cells unattempted");
    assert!(partial.failure.is_some(), "an incomplete sweep must be a failure");
    drop(journal);

    // Resume: replay the journaled successes, run only the rest.
    let journal = exec::Journal::resume(&path, experiment::codec()).expect("resume journal");
    assert!(journal.prior_count() >= 3);
    assert!(journal.notes().is_empty(), "a cleanly halted journal has no torn lines");
    let (resumed, sweep) = e.run_sharded(&jobs_policy(2), Some(&journal));
    assert!(sweep.complete_ok(), "{}", sweep.summary());
    assert!(sweep.resumed() >= 3, "resumed cells must come from the journal");
    assert_eq!(clean.json, resumed.json, "resumed JSON must match a clean run");
    assert_eq!(clean.text, resumed.text, "resumed text must match a clean run");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn injected_faults_are_isolated_and_reported() {
    let e = profile();
    let mut policy = jobs_policy(2);
    policy.max_attempts = 2;
    policy.backoff = Duration::from_millis(1);
    policy.inject.parse_spec("panic:profile/saxpy").unwrap();
    policy.inject.parse_spec("flaky:profile/fib:1").unwrap();

    let (report, sweep) = e.run_sharded(&policy, None);
    assert!(!sweep.complete_ok());
    let by_id = |id: &str| sweep.records.iter().find(|r| r.id == id).expect("record exists");
    let panicked = by_id("profile/saxpy");
    assert_eq!(panicked.status, exec::CellStatus::Panicked);
    assert!(panicked.payload.is_none());
    let retried = by_id("profile/fib");
    assert_eq!(retried.status, exec::CellStatus::Retried);
    assert_eq!(retried.attempts, 2);
    assert!(retried.payload.is_some());
    // Everything else is untouched by the neighbors' failures.
    assert_eq!(sweep.count(exec::CellStatus::Ok), sweep.records.len() - 2);
    let failure = report.failure.as_deref().expect("failed sweep maps to a failure");
    assert!(failure.contains("profile/saxpy panicked"), "got: {failure}");
    // The report still renders the six surviving benchmarks.
    assert!(report.text.contains("fib"));
    let doc = tapas_bench::json::parse(&report.json).expect("failed sweep still dumps valid JSON");
    let rows = doc.get("rows").and_then(tapas_bench::json::JsonValue::as_array).unwrap();
    assert_eq!(rows.len(), sweep.records.len() - 1, "only the panicked cell's row is missing");
}

#[test]
fn quarantine_after_exhausted_retries_names_the_error() {
    let e = profile();
    let mut policy = jobs_policy(1);
    policy.max_attempts = 2;
    policy.backoff = Duration::from_millis(1);
    // Two transient failures against two attempts: the cell must end up
    // quarantined, not retried-to-success.
    policy.inject.parse_spec("flaky:profile/dedup:2").unwrap();
    let (report, sweep) = e.run_sharded(&policy, None);
    let rec = sweep.records.iter().find(|r| r.id == "profile/dedup").unwrap();
    assert_eq!(rec.status, exec::CellStatus::Quarantined);
    assert_eq!(rec.attempts, 2);
    assert!(report.failure.as_deref().unwrap().contains("profile/dedup quarantined"));
}

#[test]
fn checkpoint_survives_a_garbage_tail() {
    let e = profile();
    let path = tmp_path("torn.jsonl");
    let journal = exec::Journal::create(&path, experiment::codec()).expect("create journal");
    let halted = exec::Policy { halt_after: Some(2), ..jobs_policy(1) };
    let _ = e.run_sharded(&halted, Some(&journal));
    drop(journal);
    // A record from the pre-registry journal format (its payload wrapped
    // as `{kind, data}`), then a crash mid-append: a torn, half-written
    // JSON line.
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
    f.write_all(
        b"{\"schema_version\":1,\"cell\":\"profile/fib\",\"status\":\"ok\",\"attempts\":1,\
          \"detail\":\"\",\"payload\":{\"kind\":\"profile\",\"data\":{}}}\n",
    )
    .unwrap();
    f.write_all(b"{\"schema_version\":2,\"cell\":\"profile/tr").unwrap();
    drop(f);

    let journal = exec::Journal::resume(&path, experiment::codec()).expect("resume survives");
    assert_eq!(journal.prior_count(), 2);
    assert_eq!(journal.notes().len(), 2, "the old-format and torn lines are notes, not errors");
    assert!(journal.notes()[0].contains("journal schema Some(1)"), "{:?}", journal.notes());
    let (resumed, sweep) = e.run_sharded(&jobs_policy(1), Some(&journal));
    assert!(sweep.complete_ok(), "{}", sweep.summary());
    assert!(resumed.failure.is_none());
    let _ = std::fs::remove_file(&path);
}
