//! Acceptance tests for the `reproduce tune` matrix: the JSON dump
//! round-trips through the hand-rolled parser, the schema is locked by a
//! golden file (so a `schema_version` bump is always a deliberate,
//! reviewed edit), and the matrix itself shows the opt-in features
//! helping where parallelism exists and costing nothing where it
//! doesn't.

use std::sync::OnceLock;
use tapas_bench::experiment::{find, ExperimentReport};
use tapas_bench::experiments::{tune_variants, TuneRow, JSON_SCHEMA_VERSION};
use tapas_bench::json::{self, JsonValue};

/// The checked-in schema contract. Changing `JSON_SCHEMA_VERSION` or the
/// shape of a tune row fails this test until the golden file is edited
/// to match — bumps must be intentional.
const GOLDEN: &str = include_str!("golden/tune_schema.txt");

/// The tune matrix, run once for every test in this file.
fn tune() -> &'static ExperimentReport {
    static REPORT: OnceLock<ExperimentReport> = OnceLock::new();
    REPORT.get_or_init(|| find("tune").expect("tune is registered").run())
}

fn tune_rows() -> Vec<TuneRow> {
    tune().rows().expect("tune rows decode")
}

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
        "JSON_SCHEMA_VERSION changed: update tests/golden/tune_schema.txt \
         (and every consumer of the dump) if the bump is intentional"
    );
}

#[test]
fn tune_json_round_trips_through_the_parser() {
    let results = tune_rows();
    let doc = json::parse(&tune().json).expect("tune dump parses");
    assert_eq!(
        doc.get("schema_version").and_then(JsonValue::as_f64),
        Some(JSON_SCHEMA_VERSION as f64)
    );
    let rows = doc.get("rows").and_then(JsonValue::as_array).expect("rows array");
    assert_eq!(rows.len(), results.len());

    let want: Vec<&str> = {
        // Leak is fine in a test: turns the golden line into field names.
        let line: &'static str = Box::leak(golden_line("tune_row").into_boxed_str());
        line.split(',').collect()
    };
    for (row, json_row) in results.iter().zip(rows) {
        let JsonValue::Obj(members) = json_row else { panic!("row is an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, want, "tune row shape drifted from the golden file");
        // Every field survives the dump → parse round trip.
        assert_eq!(json_row.get("name").and_then(JsonValue::as_str), Some(row.name.as_str()));
        assert_eq!(json_row.get("variant").and_then(JsonValue::as_str), Some(row.variant.as_str()));
        let num = |k: &str| json_row.get(k).and_then(JsonValue::as_f64).unwrap();
        assert_eq!(num("tiles") as usize, row.tiles);
        assert_eq!(num("cycles") as u64, row.cycles);
        assert_eq!(num("steals") as u64, row.steals);
        assert_eq!(num("steal_fail") as u64, row.steal_fail);
        assert_eq!(num("bank_conflicts") as u64, row.bank_conflicts);
        assert!((num("speedup") - row.speedup).abs() < 1e-9);
    }
}

#[test]
fn tune_matrix_shows_the_features_helping_and_never_hurting() {
    let rows = tune_rows();
    let variants = tune_variants();
    assert_eq!(rows.len() % variants.len(), 0, "every bench runs every variant");
    for chunk in rows.chunks(variants.len()) {
        let seed = &chunk[0];
        assert_eq!(seed.variant, "seed");
        assert_eq!(seed.speedup, 1.0);
        assert_eq!(seed.steals, 0, "{}: stealing is opt-in", seed.name);
        assert_eq!(seed.bank_conflicts, 0, "{}: banking is opt-in", seed.name);
        for row in chunk {
            assert_eq!(row.name, seed.name);
            assert!(
                row.cycles <= seed.cycles,
                "{} {}: an opt-in feature must never regress ({} vs seed {})",
                row.name,
                row.variant,
                row.cycles,
                seed.cycles
            );
        }
        let both = chunk.iter().find(|r| r.variant == "steal+banks4").expect("combined variant");
        if seed.name == "deeprec" {
            // The serial control: a strict spawn→sync chain has no
            // parallelism to steal and no concurrent misses to bank, so
            // the features must be exactly free.
            assert_eq!(both.cycles, seed.cycles, "deeprec is the zero-overhead control");
        } else {
            assert!(
                both.cycles < seed.cycles,
                "{}: steal+banks4 must improve end-to-end cycles ({} vs seed {})",
                seed.name,
                both.cycles,
                seed.cycles
            );
        }
    }
}
