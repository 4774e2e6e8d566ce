//! The benchmark's own checks, on a 24-rank slice of each workload.

use std::collections::BTreeSet;
use std::sync::Mutex;

use mccio_obs::json::{self, Value};
use mccio_perfbench::report;
use mccio_perfbench::run::{self, Config};
use mccio_perfbench::spec::{self, Spec};

/// `name` shrunk to two testbed nodes with small blocks.
fn tiny(name: &str) -> Spec {
    let spec = spec::by_name(name).expect("workload exists");
    Spec {
        nodes: 2,
        ranks: 24,
        block: 16 * 1024,
        segments: 4,
        golden: None,
        ..spec
    }
}

/// The host profiler is process-global: traced runs take turns.
static PROFILER: Mutex<()> = Mutex::new(());

fn quick(spec: Spec) -> Config {
    Config::new(spec, 5, 0.0)
}

#[test]
fn traced_phases_and_unattributed_tile_the_traced_op_wall() {
    let _turn = PROFILER.lock().unwrap_or_else(|p| p.into_inner());
    let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
    let t = run::traced(&quick(tiny("random-1k")), &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        t.checks.correct(),
        "{:?} {:?}",
        t.checks.failures,
        t.checks.inexact
    );
    assert!(!t.traced_walls.is_empty() && !t.untraced_walls.is_empty());

    let metrics = report::per_layer(&t);
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} reported"))
            .value
    };
    let phases: Vec<&str> = mccio_sim::hostprof::HostPhase::ALL
        .iter()
        .map(|p| p.name())
        .collect();
    assert_eq!(phases.len(), 9);
    let attributed: f64 = phases
        .iter()
        .map(|p| value(&format!("hostprof.{p}.ms")))
        .sum();
    let wall_ms = t.traced_walls.iter().sum::<f64>() * 1e3 / t.traced_ops();
    let tiled = attributed + value("hostprof.unattributed.ms");
    assert!(
        (tiled - wall_ms).abs() <= 1e-9 * wall_ms.max(1.0),
        "phases + unattributed = {tiled} ms, traced op wall {wall_ms} ms"
    );
    // The profiler was on inside the windows: the engine builds one
    // schedule per rank per op.
    assert!(value("hostprof.schedule.build.calls") >= 24.0);
    assert!(value("hostprof.storage.hop.ms") > 0.0);
}

#[test]
fn a_corrupted_read_back_shows_in_failed_op_share() {
    let cfg = Config {
        corrupt_op: Some(2),
        ..quick(tiny("bulk-120"))
    };
    let e = run::end_to_end(&cfg);
    assert_eq!(e.checks.failed, 1, "{:?}", e.checks.failures);
    assert!(e.checks.failures[0].contains("op 2:"));
    assert!(!e.checks.correct());
    let share = e.checks.failed_share();
    assert_eq!(share, 1.0 / e.checks.attempted as f64);
    let metrics = report::end_to_end(&e, 1.0);
    let ok = metrics
        .iter()
        .find(|m| m.name == "ok_op_share")
        .expect("ok_op_share reported");
    assert_eq!(ok.value, 1.0 - share);
    let line = report::result_line(
        e.checks.correct(),
        e.checks.attempted,
        e.checks.failed,
        &metrics,
    );
    assert!(line.starts_with("{\"correct\": false,"), "{line}");

    let clean = run::end_to_end(&quick(tiny("bulk-120")));
    assert!(clean.checks.correct(), "{:?}", clean.checks.failures);
    assert_eq!(clean.checks.failed_share(), 0.0);
}

fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{key} entry has {f}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn as_set(metrics: &[report::Metric]) -> BTreeSet<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let end_to_end = names(&doc, "end_to_end");
    let per_layer = names(&doc, "per_layer");
    for (name, _) in end_to_end.iter().chain(&per_layer) {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "metric name {name:?} outside [A-Za-z0-9_.-]+"
        );
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json has workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let known: Vec<&str> = spec::WORKLOADS.iter().map(|s| s.name).collect();
    assert_eq!(workloads, known);

    let e = run::end_to_end(&quick(tiny("ior-10k")));
    let printed = report::end_to_end(&e, report::peak_rss_mib());
    assert_eq!(printed.len(), end_to_end.len(), "no duplicate names");
    assert_eq!(as_set(&printed), end_to_end.into_iter().collect());

    let _turn = PROFILER.lock().unwrap_or_else(|p| p.into_inner());
    let dir = std::env::temp_dir().join(format!("perfbench-names-{}", std::process::id()));
    let t = run::traced(&quick(tiny("ior-10k")), &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let printed = report::per_layer(&t);
    assert_eq!(printed.len(), per_layer.len(), "no duplicate names");
    assert_eq!(as_set(&printed), per_layer.into_iter().collect());
}
