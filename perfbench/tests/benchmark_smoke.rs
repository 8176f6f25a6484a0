//! Every workload at tiny sizes, untraced and traced, with its output
//! checks on; and `BENCHMARK.json` against what the binary emits.

use dyncon_perfbench::compare::Spec;
use dyncon_perfbench::metrics::{END_TO_END, PER_LAYER};
use dyncon_perfbench::workloads::{run, Sizes, Workload};

#[test]
fn every_workload_emits_every_declared_metric_and_checks_out() {
    let sizes = Sizes::tiny();
    for workload in Workload::ALL {
        for traced in [false, true] {
            let out = run(workload, &sizes, 7, traced)
                .unwrap_or_else(|e| panic!("{} (traced {traced}): {e}", workload.name()));
            assert_eq!(out.mismatch, None, "{} (traced {traced})", workload.name());
            assert_eq!(out.failed, 0, "{}: no request may fail", workload.name());
            assert!(out.attempted > 0);
            let declared = out
                .declared(traced)
                .unwrap_or_else(|e| panic!("{} (traced {traced}): {e}", workload.name()));
            let expected = if traced { PER_LAYER } else { END_TO_END };
            assert_eq!(declared.len(), expected.len());
            for (name, value, _) in &declared {
                assert!(value.is_finite(), "{name}");
                if !traced {
                    assert!(
                        *value > 0.0,
                        "{}: end-to-end {name} is never 0",
                        workload.name()
                    );
                }
            }
            assert_eq!(out.chrome_trace.is_some(), traced);
        }
    }
}

#[test]
fn benchmark_json_declares_what_the_binary_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec =
        Spec::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names);
    let declared = |list: &[dyncon_perfbench::compare::MetricSpec]| -> Vec<(String, String)> {
        list.iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect()
    };
    let emitted = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&spec.end_to_end), emitted(END_TO_END));
    assert_eq!(declared(&spec.per_layer), emitted(PER_LAYER));
    assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s declared");
    assert!(!setup.higher_is_better);
    assert!(
        spec.end_to_end.iter().all(|m| m.bound <= setup.bound),
        "setup_s carries the largest bound"
    );
}
