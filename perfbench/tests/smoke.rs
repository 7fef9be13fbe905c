//! Tiny-size runs of every workload through every check, seed
//! determinism, and agreement between the code and `BENCHMARK.json`.

use std::time::Instant;

use tapas_exec::json::{self, JsonValue};
use tapas_perfbench::trace::Tracer;
use tapas_perfbench::work::{setup, Scale, Workload};
use tapas_perfbench::{run, Options, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Options {
    Options { workload, seed: 7, seconds: 0.0, trace, scale: Scale::TINY, trace_dir: None }
}

#[test]
fn every_workload_passes_every_check_untraced() {
    for w in Workload::ALL {
        let r = run(&tiny(w, false)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(r.correct && r.failed == 0, "{}: {:?}", w.name(), r.lines);
        assert!(r.attempted > 0);
        for (name, unit) in END_TO_END {
            if name == "job_ms_tail" {
                continue; // omitted when a tiny run has too few jobs
            }
            let m = r.metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(m.unit, unit);
            assert!(m.value > 0.0, "{}: {name} = {}", w.name(), m.value);
        }
        let line = json::parse(&r.json()).expect("the report line is JSON");
        assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(json::field::<u64>(&line, "attempted"), Ok(r.attempted));
        assert_eq!(json::field::<u64>(&line, "failed"), Ok(0));
        let metrics = line.get("metrics").expect("metrics");
        for m in &r.metrics {
            let v = metrics.get(m.name).unwrap_or_else(|| panic!("{}", m.name));
            assert_eq!(json::field::<f64>(v, "value"), Ok(m.value));
            assert_eq!(json::field::<String>(v, "unit").as_deref(), Ok(m.unit));
        }
    }
}

#[test]
fn every_workload_passes_every_check_traced() {
    for w in Workload::ALL {
        let r = run(&tiny(w, true)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(r.correct && r.failed == 0, "{}: {:?}", w.name(), r.lines);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER.iter().map(|(n, _)| *n).collect::<Vec<_>>());
        let get = |n: &str| r.metric(n).unwrap();
        assert!(get("trace.attributed_frac") > 0.5, "{}: {:?}", w.name(), r.lines);
        match w {
            Workload::HlsCompile => {
                assert!(get("core.rtl_bytes") > 0.0 && get("res.design_alms") > 0.0);
                assert!(get("lang.parse_us") > 0.0 && get("analyze.us") > 0.0);
            }
            Workload::DseSweep => {
                assert!(get("snapshot.bytes") > 0.0 && get("exec.cell_ms_p50") > 0.0);
                assert!(get("sim.stepped_speedup") > 0.0);
            }
            Workload::BusyKernels | Workload::SpawnChain => {
                assert!(get("sim.cycles") > 0.0 && get("sim.stepped_speedup") > 0.0);
                assert!(get("task.spawns") > 0.0 && get("dfg.nodes") > 0.0);
            }
        }
    }
}

#[test]
fn one_seed_builds_identical_inputs() {
    for w in Workload::ALL {
        let fp = |seed| {
            let mut tr = Tracer::new(false, Instant::now(), 0);
            setup(w, seed, &Scale::TINY, &mut tr).expect("set-up").fingerprint
        };
        assert_eq!(fp(11), fp(11), "{}", w.name());
        if matches!(w, Workload::HlsCompile | Workload::DseSweep) {
            assert_ne!(fp(11), fp(12), "{}: the seed must change generated inputs", w.name());
        }
    }
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` list.
fn entries(doc: &JsonValue, list: &str) -> Vec<(String, Option<String>)> {
    let items = doc.get(list).and_then(JsonValue::as_array).unwrap_or_else(|| panic!("{list}"));
    items
        .iter()
        .map(|e| (json::field(e, "name").expect("name"), json::field(e, "unit").ok()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_metrics_the_code_prints() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    let named = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        list.iter().map(|(n, u)| (n.to_string(), Some(u.to_string()))).collect()
    };
    assert_eq!(entries(&doc, "end_to_end"), named(&END_TO_END));
    assert_eq!(entries(&doc, "per_layer"), named(&PER_LAYER));
    let workloads: Vec<String> = entries(&doc, "workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
}
