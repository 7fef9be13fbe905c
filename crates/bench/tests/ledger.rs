//! The performance ledger `BENCH_9.json`: one row per A/B comparison,
//! appended by `scripts/ab.sh` or back-filled from EXPERIMENTS.md. Every
//! row must decode, carry every end-to-end metric `BENCHMARK.json`
//! declares, and state a verdict that agrees with that metric's bound.

use tapas_bench::json::{self, FromJson, JsonValue};
use tapas_exec::json_decode;

struct LedgerRow {
    source: String,
    base: String,
    head: String,
    workload: String,
    seed: u64,
    pairs: u64,
    metrics: Vec<LedgerMetric>,
    base_tail: Option<String>,
    head_tail: Option<String>,
    host: String,
}

struct LedgerMetric {
    name: String,
    base_median: Option<f64>,
    base_q1: Option<f64>,
    base_q3: Option<f64>,
    head_median: Option<f64>,
    head_q1: Option<f64>,
    head_q3: Option<f64>,
    wins: Option<u64>,
    separated: Option<bool>,
    verdict: Option<String>,
}

json_decode!(LedgerRow {
    source,
    base,
    head,
    workload,
    seed,
    pairs,
    metrics,
    base_tail,
    head_tail,
    host
});
json_decode!(LedgerMetric {
    name,
    base_median,
    base_q1,
    base_q3,
    head_median,
    head_q1,
    head_q3,
    wins,
    separated,
    verdict
});

fn read(file: &str) -> JsonValue {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_ledger_row_decodes_with_every_end_to_end_metric() {
    let rows = Vec::<LedgerRow>::from_json(&read("BENCH_9.json")).expect("ledger rows decode");
    assert!(!rows.is_empty(), "the ledger starts with back-filled rows");
    let bench = read("BENCHMARK.json");
    let end_to_end = bench.get("end_to_end").and_then(JsonValue::as_array).expect("end_to_end");
    for (i, row) in rows.iter().enumerate() {
        let at = format!("row {i} ({} {} seed {})", row.base, row.workload, row.seed);
        let from_ab = match row.source.as_str() {
            "ab.sh" => true,
            "EXPERIMENTS.md" => false,
            other => panic!("{at}: unknown source `{other}`"),
        };
        assert!(!row.base.is_empty() && !row.head.is_empty(), "{at}: revs");
        assert!(!row.workload.is_empty() && !row.host.is_empty(), "{at}: workload and host");
        assert!(row.pairs >= 2, "{at}: quartiles need two runs a side");
        if from_ab {
            assert!(row.base_tail.is_some() && row.head_tail.is_some(), "{at}: tail percentiles");
        }
        assert_eq!(row.metrics.len(), end_to_end.len(), "{at}: one entry per end-to-end metric");
        for (m, spec) in row.metrics.iter().zip(end_to_end) {
            let name = spec.get("name").and_then(JsonValue::as_str).expect("metric name");
            assert_eq!(m.name, name, "{at}: metrics follow BENCHMARK.json's order");
            let complete = [m.base_q1, m.base_q3, m.head_q1, m.head_q3].iter().all(Option::is_some)
                && m.wins.is_some()
                && m.separated.is_some();
            // Every row measured jobs_per_s in full; ab.sh measures all.
            if from_ab || name == "jobs_per_s" {
                assert!(complete && m.verdict.is_some(), "{at}: {name} is incomplete");
            }
            assert!(m.wins.is_none_or(|w| w <= row.pairs), "{at}: {name} wins");
            let (Some(base), Some(head)) = (m.base_median, m.head_median) else {
                assert!(m.verdict.is_none(), "{at}: {name} has a verdict without medians");
                continue;
            };
            let higher = spec.get("better").and_then(JsonValue::as_str) == Some("higher");
            let bound = spec.get("bound").and_then(JsonValue::as_f64).expect("bound");
            let worse = if base == 0.0 { 0.0 } else { (base - head) / base };
            let worse = if higher { worse } else { -worse };
            let want = if worse > bound {
                format!("WORSE than bound {bound}")
            } else {
                "within bound".to_string()
            };
            assert_eq!(m.verdict.as_deref(), Some(want.as_str()), "{at}: {name} verdict");
        }
    }
}
