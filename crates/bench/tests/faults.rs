//! Acceptance tests for the fault-injection matrix as surfaced through
//! the bench harness: every benchmark × scenario is masked or detected
//! (never silently wrong), the quarantine scenario degrades gracefully,
//! and the `faults --json` dump is versioned and well-formed.

use std::sync::OnceLock;
use tapas_bench::experiment::{find, ExperimentReport};
use tapas_bench::experiments::{FaultRow, JSON_SCHEMA_VERSION};
use tapas_bench::json::{self, JsonValue};

/// The fault matrix, run once for every test in this file.
fn faults() -> &'static ExperimentReport {
    static REPORT: OnceLock<ExperimentReport> = OnceLock::new();
    REPORT.get_or_init(|| find("faults").expect("faults is registered").run())
}

fn fault_rows() -> Vec<FaultRow> {
    faults().rows().expect("fault rows decode")
}

#[test]
fn matrix_is_masked_or_detected_never_silent() {
    let rows = fault_rows();
    // Seven scenarios per benchmark across the whole suite.
    assert_eq!(rows.len() % 7, 0);
    assert!(rows.len() >= 7 * 7, "the matrix covers every benchmark");
    for r in &rows {
        assert!(!r.silently_wrong(), "{} under {} completed with wrong output", r.name, r.scenario);
        match r.outcome.as_str() {
            "masked" => {
                assert!(r.cycles.is_some(), "{}/{}: masked runs complete", r.name, r.scenario)
            }
            "detected" => {
                assert!(
                    !r.detail.is_empty(),
                    "{}/{}: detected runs carry a typed error",
                    r.name,
                    r.scenario
                );
            }
            other => panic!("{}/{}: unknown outcome {other}", r.name, r.scenario),
        }
    }
    // The recovery mechanisms actually fired somewhere in the matrix.
    assert!(rows.iter().any(|r| r.mem_retries > 0), "retry path exercised");
    assert!(rows.iter().any(|r| r.ecc_retries > 0), "ECC path exercised");
    // Detection scenarios are detected on every benchmark.
    for det in ["parity-detect", "retry-exhausted"] {
        assert!(
            rows.iter().filter(|r| r.scenario == det).all(|r| r.outcome == "detected"),
            "{det} must be detected everywhere"
        );
    }
}

#[test]
fn quarantine_scenario_loses_a_tile_and_stays_correct() {
    let rows = fault_rows();
    let quarantined: Vec<_> = rows.iter().filter(|r| r.scenario == "quarantine-wedge").collect();
    assert!(!quarantined.is_empty());
    for r in quarantined {
        assert_eq!(r.outcome, "masked", "{}: a 4-tile unit survives losing one tile", r.name);
        assert!(r.quarantined_tiles >= 1, "{}: the wedged tile was fenced", r.name);
    }
}

#[test]
fn fault_json_is_versioned_and_parses() {
    assert!(faults().failure.is_none(), "{:?}", faults().failure);
    let doc = json::parse(&faults().json).expect("dump parses");
    let version = doc.get("schema_version").and_then(JsonValue::as_f64);
    assert_eq!(version, Some(JSON_SCHEMA_VERSION as f64));
    let items = doc.get("rows").and_then(JsonValue::as_array).expect("rows is an array");
    assert!(!items.is_empty());
    for item in items {
        let outcome =
            item.get("outcome").and_then(JsonValue::as_str).expect("every row has an outcome");
        assert!(matches!(outcome, "masked" | "detected"));
    }
}
