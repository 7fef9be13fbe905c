//! Acceptance tests for the cycle-attribution profiler as surfaced
//! through the bench harness: the accounting invariant on every
//! benchmark, the bottleneck verdicts the paper's intuition predicts, a
//! well-formed deterministic Chrome trace, and versioned JSON dumps.

use std::sync::OnceLock;
use tapas::ProfileLevel;
use tapas_bench::experiment::{find, ExperimentReport};
use tapas_bench::experiments::{ProfileRow, JSON_SCHEMA_VERSION};
use tapas_bench::json::{self, JsonValue};
use tapas_bench::{ntasks_for, simulate_profiled, simulate_traced};
use tapas_workloads::suite_small;

/// The profile experiment, run once for every test in this file.
fn profile() -> &'static ExperimentReport {
    static REPORT: OnceLock<ExperimentReport> = OnceLock::new();
    REPORT.get_or_init(|| find("profile").expect("profile is registered").run())
}

#[test]
fn attribution_invariant_holds_on_every_benchmark() {
    for wl in suite_small() {
        let out = simulate_profiled(&wl, 2, ntasks_for(&wl), ProfileLevel::Full);
        let p = out.profile.expect("profiling was on");
        p.check_invariant().unwrap_or_else(|e| panic!("{}: {e}", wl.name));
        assert_eq!(
            p.attributed_cycles(),
            p.cycles * p.tile_count() as u64,
            "{}: books must balance to cycles x tiles",
            wl.name
        );
        assert_eq!(p.cycles, out.cycles, "{}: profile covers the whole run", wl.name);
    }
}

#[test]
fn verdicts_match_the_workload_structure() {
    let rows: Vec<ProfileRow> = profile().rows().expect("profile rows decode");
    assert_eq!(rows.len(), 7);
    let class_of = |name: &str| {
        rows.iter().find(|r| r.name == name).unwrap_or_else(|| panic!("{name} row")).class.clone()
    };
    // Streaming kernels touch 2-3 words per tiny task: the memory system
    // is the wall.
    assert_eq!(class_of("saxpy"), "memory-bound");
    assert_eq!(class_of("matrix_add"), "memory-bound");
    // Recursion spends its cycles in spawn/sync machinery (the paper's
    // point: these don't map to static HLS at all).
    assert_eq!(class_of("fib"), "spawn-bound");
    // Every row carries sane evidence.
    for r in &rows {
        let total = r.compute_frac + r.memory_frac + r.spawn_frac;
        assert!((total - 1.0).abs() < 1e-9, "{}: fractions sum to {total}", r.name);
        assert!(r.cycles > 0, "{}", r.name);
    }
}

#[test]
fn mergesort_chrome_trace_is_valid_and_covers_every_task() {
    let wl = tapas_workloads::mergesort::build(96, 12345);
    let (out, trace) = simulate_traced(&wl, 4, ntasks_for(&wl));
    let doc = json::parse(&trace).expect("trace is valid JSON");
    let events = doc.get("traceEvents").and_then(JsonValue::as_array).expect("traceEvents array");
    let ph_count = |ph: &str| {
        events.iter().filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some(ph)).count()
    };
    // At least one duration event per executed task instance (every
    // detach-spawn plus the root invocation; instances that park at a
    // sync produce several spans).
    let instances = out.stats.spawns + out.stats.calls + 1;
    assert!(
        ph_count("X") as u64 >= instances,
        "{} duration events for {instances} task instances",
        ph_count("X")
    );
    // Spawn flow arrows come in s/f pairs.
    assert_eq!(ph_count("s"), ph_count("f"));
    assert!(ph_count("s") as u64 >= out.stats.spawns);
    // Thread-name metadata for every task unit.
    assert!(ph_count("M") >= 2, "mergesort has at least root + worker units");

    // Deterministic: an identical run renders the identical trace.
    let (_, again) = simulate_traced(&wl, 4, ntasks_for(&wl));
    assert_eq!(trace, again);
}

#[test]
fn profile_json_dump_is_schema_versioned() {
    let dump = &profile().json;
    let doc = json::parse(dump).expect("dump parses");
    assert_eq!(
        doc.get("schema_version").and_then(JsonValue::as_f64),
        Some(JSON_SCHEMA_VERSION as f64)
    );
    let rows = doc.get("rows").and_then(JsonValue::as_array).expect("rows");
    assert_eq!(rows.len(), 7);
    for r in rows {
        assert!(r.get("class").and_then(JsonValue::as_str).is_some());
    }
    // A stale version must be detectable the same way `check-json` does it.
    let stale = dump.replacen(
        &format!("\"schema_version\":{JSON_SCHEMA_VERSION}"),
        &format!("\"schema_version\":{}", JSON_SCHEMA_VERSION + 1),
        1,
    );
    let doc = json::parse(&stale).unwrap();
    assert_ne!(
        doc.get("schema_version").and_then(JsonValue::as_f64),
        Some(JSON_SCHEMA_VERSION as f64)
    );
}
