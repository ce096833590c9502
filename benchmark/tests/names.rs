//! The benchmark prints exactly the workloads and metrics `BENCHMARK.json`
//! declares, with the same units and directions.

use ibis_benchmark::check::benchmark_json;
use ibis_benchmark::json::Value;
use ibis_benchmark::layers::traced_pass;
use ibis_benchmark::metrics::{Metric, END_TO_END, PER_LAYER};
use ibis_benchmark::results::{summary_line, WorkloadResult};
use ibis_benchmark::run::timed_pass;
use ibis_benchmark::workloads::{Kind, Workload};
use ibis_benchmark::DEFAULT_SECONDS;

fn names(spec: &Value, key: &str) -> Vec<String> {
    spec.get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .arr()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn assert_declared(spec: &Value, key: &str, list: &[Metric]) {
    let declared = spec.get(key).expect("metric list").arr();
    assert_eq!(declared.len(), list.len(), "{key} length");
    for (d, m) in declared.iter().zip(list) {
        assert_eq!(d.get("name").and_then(Value::str), Some(m.name));
        assert_eq!(
            d.get("unit").and_then(Value::str),
            Some(m.unit),
            "{}",
            m.name
        );
        assert_eq!(
            d.get("better").and_then(Value::str),
            Some(m.better.word()),
            "{}",
            m.name
        );
    }
}

#[test]
fn declared_lists_match_the_code() {
    let spec = benchmark_json().expect("BENCHMARK.json parses");
    let workloads: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(names(&spec, "workloads"), workloads);
    assert_declared(&spec, "end_to_end", &END_TO_END);
    assert_declared(&spec, "per_layer", &PER_LAYER);
    assert_eq!(
        spec.get("run_seconds").and_then(Value::num),
        Some(DEFAULT_SECONDS)
    );
}

#[test]
fn printed_metrics_are_the_declared_ones() {
    let spec = benchmark_json().expect("BENCHMARK.json parses");
    let w = Workload::reduced(Kind::SwimObserved, 1);
    let mut r = WorkloadResult::new(w.kind.name());
    r.add_timed(&timed_pass(&w, 0.0));
    r.add_traced(&traced_pass(&w));
    assert!(r.correct(), "{:?}", r.failures);

    for (key, list) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let line = summary_line(std::slice::from_ref(&r), &[list]);
        let printed = ibis_benchmark::json::parse(&line).expect("summary is JSON");
        let mut keys: Vec<String> = match printed.get("metrics") {
            Some(Value::Obj(m)) => m.keys().cloned().collect(),
            _ => panic!("no metrics in {line}"),
        };
        let mut want = names(&spec, key);
        keys.sort();
        want.sort();
        assert_eq!(keys, want, "{key}");
        assert_eq!(printed.get("correct"), Some(&Value::Bool(true)));
    }
}
