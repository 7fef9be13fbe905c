//! Acceptance tests for the `reproduce analyze` cross-check: the JSON
//! dump round-trips through the hand-rolled parser, the schema is locked
//! by a golden file (so a `schema_version` bump is always a deliberate,
//! reviewed edit), every static bound brackets its dynamic measurement,
//! the occupancy verdict separates the deep-queue programs (`fib`,
//! `deeprec`) from the rest of the suite at the seed configuration, and
//! the predicted bottleneck class matches the cycle-level profiler on
//! every benchmark.

use tapas_bench::experiment::find;
use tapas_bench::experiments::{AnalyzeRow, JSON_SCHEMA_VERSION};
use tapas_bench::json::{self, JsonValue};

/// The checked-in schema contract. Changing `JSON_SCHEMA_VERSION` or the
/// shape of an analyze row fails this test until the golden file is
/// edited to match — bumps must be intentional.
const GOLDEN: &str = include_str!("golden/analyze_schema.txt");

fn golden_line(key: &str) -> String {
    GOLDEN
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|l| l.strip_prefix('=')))
        .unwrap_or_else(|| panic!("golden file is missing `{key}=`"))
        .to_string()
}

#[test]
fn schema_version_bump_requires_editing_the_golden_file() {
    assert_eq!(
        golden_line("schema_version"),
        JSON_SCHEMA_VERSION.to_string(),
        "JSON_SCHEMA_VERSION changed: update tests/golden/analyze_schema.txt \
         (and every consumer of the dump) if the bump is intentional"
    );
}

#[test]
fn analyze_json_round_trips_and_the_verdicts_hold() {
    // analyze_row itself asserts that every static interval
    // brackets the interpreter's counter, so rows existing is already the
    // soundness proof; this test locks the serialized shape and the
    // safety/prediction verdicts on top.
    let report = find("analyze").expect("analyze is registered").run();
    assert!(report.failure.is_none(), "{:?}", report.failure);
    let rows: Vec<AnalyzeRow> = report.rows().expect("analyze rows decode");
    let doc = json::parse(&report.json).expect("analyze dump parses");
    assert_eq!(
        doc.get("schema_version").and_then(JsonValue::as_f64),
        Some(JSON_SCHEMA_VERSION as f64)
    );
    let json_rows = doc.get("rows").and_then(JsonValue::as_array).expect("rows array");
    assert_eq!(json_rows.len(), rows.len());

    let want: Vec<&str> = {
        // Leak is fine in a test: turns the golden line into field names.
        let line: &'static str = Box::leak(golden_line("analyze_row").into_boxed_str());
        line.split(',').collect()
    };
    for (row, json_row) in rows.iter().zip(json_rows) {
        let JsonValue::Obj(members) = json_row else { panic!("row is an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, want, "analyze row shape drifted from the golden file");
        // Every field survives the dump → parse round trip; `None` upper
        // bounds become JSON null.
        assert_eq!(json_row.get("name").and_then(JsonValue::as_str), Some(row.name.as_str()));
        let num = |k: &str| json_row.get(k).and_then(JsonValue::as_f64).unwrap();
        let opt = |k: &str| json_row.get(k).and_then(JsonValue::as_f64).map(|v| v as u64);
        assert_eq!(num("work_lo") as u64, row.work_lo);
        assert_eq!(opt("work_hi"), row.work_hi);
        assert_eq!(num("dyn_work") as u64, row.dyn_work);
        assert_eq!(opt("span_hi"), row.span_hi);
        assert_eq!(opt("tasks_hi"), row.tasks_hi);
        assert_eq!(opt("min_safe_ntasks"), row.min_safe_ntasks);
        assert_eq!(json_row.get("safe_at_seed"), Some(&JsonValue::Bool(row.safe_at_seed)));
        assert_eq!(json_row.get("agree"), Some(&JsonValue::Bool(row.agree)));

        // The bracketing contract, restated over the serialized values.
        let within = |lo: &str, dynv: &str, hi: &str| {
            num(lo) as u64 <= num(dynv) as u64 && opt(hi).is_none_or(|h| num(dynv) as u64 <= h)
        };
        assert!(within("work_lo", "dyn_work", "work_hi"), "{}: work", row.name);
        assert!(within("span_lo", "dyn_span", "span_hi"), "{}: span", row.name);
        assert!(within("mem_lo", "dyn_mem", "mem_hi"), "{}: mem", row.name);
        assert!(within("spawns_lo", "dyn_spawns", "spawns_hi"), "{}: spawns", row.name);
        assert!(within("tasks_lo", "dyn_peak_tasks", "tasks_hi"), "{}: tasks", row.name);
    }

    // Safety: deeprec's spawn chain and fib's recursion tree both exceed
    // the seed queues (the simulator really does wedge both below their
    // bounds — the boundary sweep in `tests/differential.rs` pins that),
    // while every other benchmark is proven safe at the seed default.
    // Everything is proven safe at the deep-queue harness default of 512.
    let deeprec = rows.iter().find(|r| r.name == "deeprec").expect("deeprec row");
    assert!(!deeprec.safe_at_seed, "deeprec must be flagged unsafe at seed ntasks");
    assert!(
        deeprec.min_safe_ntasks.is_some_and(|n| n > deeprec.seed_ntasks as u64),
        "deeprec's proven-safe minimum must exceed the seed ntasks"
    );
    for r in &rows {
        let needs_deep_queues = matches!(r.name.as_str(), "fib" | "deeprec");
        assert_eq!(
            r.safe_at_seed, !needs_deep_queues,
            "{}: seed-default verdict flipped (min_safe={:?}, seed={})",
            r.name, r.min_safe_ntasks, r.seed_ntasks
        );
        assert!(
            r.min_safe_ntasks.is_some_and(|n| n <= 512),
            "{}: every corpus program is provably safe at the recursive ntasks=512",
            r.name
        );
    }

    // Prediction: the static bottleneck class matches the profiler's
    // dynamic verdict on every benchmark (the thresholds are calibrated,
    // and this pins them).
    for r in &rows {
        assert!(
            r.agree,
            "{}: predicted {} but the profiler measured {}",
            r.name, r.predicted, r.measured
        );
    }
}
