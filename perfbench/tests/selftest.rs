//! Self-tests of the benchmark's own rules: the tail percentile, how
//! failures are counted, metric naming, the result line, and span self
//! time. Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;

use perfbench::stats::{median, tail, Failure, Tally, MIN_SAMPLES, TAIL_BEYOND};
use perfbench::trace::Tracer;
use perfbench::{end_to_end, per_layer, result_line, valid_metric_name, valid_unit};

/// `0, 1, ..., n-1` in a scrambled order.
fn scrambled(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7919) % n) as f64).collect()
}

#[test]
fn tail_needs_more_than_ten_samples() {
    for n in 0..=TAIL_BEYOND {
        assert_eq!(tail(&scrambled(n)), None, "n = {n}");
    }
    assert_eq!(MIN_SAMPLES, TAIL_BEYOND + 1);
    let t = tail(&scrambled(11)).expect("11 samples have a tail");
    assert_eq!(t.value, 0.0);
    assert!((t.percentile - 100.0 / 11.0).abs() < 1e-9);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_beyond() {
    let t = tail(&scrambled(100)).expect("tail");
    assert_eq!(
        (t.value, t.percentile, t.samples, t.beyond),
        (89.0, 90.0, 100, 10)
    );
    let t = tail(&scrambled(1000)).expect("tail");
    assert_eq!((t.value, t.percentile), (989.0, 99.0));
    for n in 11..300 {
        let xs = scrambled(n);
        let t = tail(&xs).expect("tail");
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
        // Nearest rank: the sample at percentile p has rank ceil(p n / 100);
        // the reported percentile maps to the tail's rank, and any higher
        // percentile maps to a later rank, leaving fewer than ten beyond.
        let rank = (t.percentile * n as f64 / 100.0).round() as usize;
        assert_eq!(rank, n - TAIL_BEYOND, "n = {n}");
        let next = ((t.percentile + 1e-6) * n as f64 / 100.0).ceil() as usize;
        assert!(n - next < TAIL_BEYOND, "n = {n}");
    }
}

#[test]
fn tail_counts_ties_by_rank() {
    let mut xs = vec![5.0; 15];
    xs.extend([9.0; 5]);
    let t = tail(&xs).expect("tail");
    assert_eq!(t.value, 5.0);
    assert_eq!(t.percentile, 50.0);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn failed_frac_counts_each_failed_render_once() {
    let mut t = Tally::default();
    t.record(vec![]);
    t.record(vec![Failure::Run("channel closed".into())]);
    t.record(vec![]);
    t.record(vec![
        Failure::Image { got: 1, want: 2 },
        Failure::Ledger("3 spills but 2 fault-ins".into()),
    ]);
    assert_eq!((t.attempted, t.failed), (4, 2));
    assert_eq!(t.failed_frac(), 0.5);
    assert_eq!(t.first_failure, Some(Failure::Run("channel closed".into())));
}

#[test]
fn failed_frac_of_clean_and_empty_loops() {
    let mut t = Tally::default();
    assert_eq!(t.failed_frac(), 1.0, "an empty loop never reads as clean");
    for _ in 0..20 {
        t.record(vec![]);
    }
    assert_eq!((t.attempted, t.failed, t.failed_frac()), (20, 0, 0.0));
    assert_eq!(t.first_failure, None);
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let all: Vec<_> = end_to_end().into_iter().chain(per_layer()).collect();
    let mut seen = std::collections::HashSet::new();
    for d in &all {
        assert!(valid_metric_name(&d.name), "bad name {:?}", d.name);
        assert!(valid_unit(d.unit), "bad unit {:?} of {}", d.unit, d.name);
        assert!(seen.insert(d.name.clone()), "duplicate name {}", d.name);
    }
    assert!(end_to_end()
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
}

#[test]
fn metric_name_rule_rejects_bad_names() {
    for ok in ["a", "0x", "datacutter.Ra-Mt.buffers", "render_ms_p50"] {
        assert!(valid_metric_name(ok), "{ok}");
    }
    let long = "a".repeat(65);
    for bad in ["", ".a", "_a", "-a", "a b", "RE->Ra", "a/b", long.as_str()] {
        assert!(!valid_metric_name(bad), "{bad:?}");
    }
}

/// `"name": "<x>"` values inside the `"key": [ ... ]` array of `json`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let printed = |defs: Vec<perfbench::MetricDef>| -> Vec<String> {
        defs.into_iter().map(|d| d.name).collect()
    };
    assert_eq!(names_in(&json, "end_to_end"), printed(end_to_end()));
    assert_eq!(names_in(&json, "per_layer"), printed(per_layer()));
}

#[test]
fn result_line_has_every_metric_or_fails() {
    let defs = end_to_end();
    let mut v: BTreeMap<String, f64> = defs.iter().map(|d| (d.name.clone(), 1.25)).collect();
    let line = result_line(true, 12, 0, &defs, &v).expect("complete");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {")
    );
    assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
    assert_eq!(line.matches("\"value\"").count(), defs.len());
    v.insert("setup_s".into(), f64::NAN);
    assert!(result_line(true, 12, 0, &defs, &v).is_err());
    v.remove("setup_s");
    assert!(result_line(true, 12, 0, &defs, &v).is_err());
}

#[test]
fn span_self_time_excludes_children() {
    let mut tr = Tracer::new(true);
    let root = tr.begin("render", Some(7));
    let child = tr.begin("datacutter.run", None);
    std::thread::sleep(std::time::Duration::from_millis(20));
    tr.end(child);
    tr.end(root);
    let spans = tr.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[1].render, Some(7), "children share the render id");
    let total = (spans[0].end_ns.expect("closed") - spans[0].start_ns) as f64 / 1e9;
    let child_s = tr.self_secs("datacutter.run");
    assert!(child_s >= 0.02);
    assert!((tr.self_secs("render") - (total - child_s)).abs() < 1e-9);
    let json = tr.chrome_json();
    assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
    assert!(json.contains("\"render\": 7"));
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut tr = Tracer::new(false);
    let id = tr.begin("render", Some(1));
    tr.span("isosurf.extract", |_| ());
    tr.end(id);
    assert!(tr.spans().is_empty());
    assert_eq!(tr.self_secs("render"), 0.0);
}
