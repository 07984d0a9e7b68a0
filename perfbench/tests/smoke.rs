//! Smoke test of the benchmark itself: every workload at tiny size, two
//! same-seed runs with identical counts, every metric of `BENCHMARK.json`
//! emitted with its unit, and the checked-in manifest in step with the
//! registry it is generated from.

use perfbench::{manifest_json, run, Options, Report, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(workload: &str, trace: bool) -> Report {
    let opts = Options {
        workload: workload.to_string(),
        seed: 11,
        seconds: 0.01,
        trace,
        tiny: true,
    };
    run(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// The result line's metrics carry exactly the registry's names and
/// units, in order, and each appears in the line as printed.
fn assert_complete(workload: &str, report: &Report, traced: bool, registry: &[(&str, &str)]) {
    let line = report.result_json(traced).expect("result line");
    let metrics = report.result_metrics(traced).expect("result metrics");
    let emitted: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    assert_eq!(emitted, registry, "{workload} (traced: {traced})");
    for m in &metrics {
        let printed = format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
        assert!(
            line.contains(&printed),
            "{workload}: {printed} missing from {line}"
        );
    }
}

#[test]
fn checked_in_manifest_is_generated_from_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        manifest_json(),
        "regenerate with `perfbench manifest > BENCHMARK.json`"
    );
}

#[test]
fn every_workload_is_correct_repeatable_and_complete() {
    let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
    for &(workload, _) in WORKLOADS {
        let first = tiny(workload, false);
        let second = tiny(workload, false);
        let traced = tiny(workload, true);
        for (label, report) in [("first", &first), ("second", &second), ("traced", &traced)] {
            assert!(
                report.correct(),
                "{workload} ({label}) failed its checks:\n{}",
                report.render()
            );
            assert!(
                report.attempted > 0,
                "{workload} ({label}) attempted nothing"
            );
        }
        assert_eq!(
            first.counts, second.counts,
            "{workload}: same seed, other counts"
        );
        assert_eq!(
            first.counts, traced.counts,
            "{workload}: traced run counted otherwise"
        );

        assert_complete(workload, &first, false, &end_to_end);
        assert_complete(workload, &traced, true, &per_layer);
        for m in first.result_metrics(false).expect("end-to-end metrics") {
            assert!(m.value > 0.0, "{workload}: {} reads {}", m.name, m.value);
        }
        let coverage = traced
            .per_layer
            .iter()
            .find(|m| m.name == "trace.coverage")
            .map_or(0.0, |m| m.value);
        assert!(
            coverage > 0.0,
            "{workload}: no span covered the traced phase"
        );
    }
}
