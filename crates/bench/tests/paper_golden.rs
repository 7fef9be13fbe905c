//! The static paper sections pinned to the committed `results.json`.
//!
//! Table II, Table III, Fig. 14 and Table IV simulate nothing: they are
//! built from the compiled design's task report and the resource model
//! alone, so the debug build checks them on every test run. Every value
//! must match the golden exactly; a deliberate model change regenerates
//! `results.json` in the same change.

use tapas_bench::experiments as exp;
use tapas_bench::json::{self, JsonValue, ToJson};

fn golden() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results.json");
    let text = std::fs::read_to_string(path).expect("results.json is committed");
    json::parse(&text).expect("results.json parses")
}

/// Compare one section row by row so a failure names the moved row.
fn check<T: ToJson>(golden: &JsonValue, section: &str, rows: &[T]) {
    let want = golden.get(section).and_then(JsonValue::as_array).expect(section);
    assert_eq!(rows.len(), want.len(), "{section}: row count");
    for (i, (row, want)) in rows.iter().zip(want).enumerate() {
        let got = json::parse(&row.to_json()).expect("rows encode to valid JSON");
        assert_eq!(&got, want, "{section}[{i}] moved from results.json");
    }
}

#[test]
fn static_paper_sections_match_results_json() {
    let g = golden();
    check(&g, "table2", &exp::table2());
    check(&g, "table3", &exp::table3());
    check(&g, "fig14", &exp::fig14());
    check(&g, "table4", &exp::table4());
}
