//! The benchmark's own tests: workloads are a pure function of their
//! seed, and every metric and workload name is valid and matches
//! `BENCHMARK.json`.

use std::collections::BTreeSet;

use katara_perfbench::inputs::{Inputs, Scale, Workload};
use katara_perfbench::metrics::{valid_name, valid_unit, Better, END_TO_END, PER_LAYER};

/// Everything the program would receive, rendered to one string.
fn fingerprint(inputs: &Inputs) -> String {
    let mut out = inputs.kb_text.clone();
    for (t, table) in inputs.tables.iter().enumerate() {
        out.push_str(&katara_table::csv::to_string(&table.dirty));
        out.push_str(&format!("{:?}", table.log));
        let mut current = table.dirty.clone();
        for i in 0..3 {
            let edits = inputs.edits(t, i, &current);
            out.push_str(&edits.to_csv(current.columns()));
            edits.apply(&mut current).expect("generated edits apply");
        }
    }
    out
}

#[test]
fn each_workload_is_a_pure_function_of_its_seed() {
    for workload in Workload::ALL {
        let a = fingerprint(&Inputs::generate(workload, 7, Scale::Tiny));
        let b = fingerprint(&Inputs::generate(workload, 7, Scale::Tiny));
        assert_eq!(a, b, "{} seed 7 generated twice differs", workload.name());
        let c = fingerprint(&Inputs::generate(workload, 8, Scale::Tiny));
        assert_ne!(a, c, "{} ignores its seed", workload.name());
    }
}

#[test]
fn the_kb_is_the_same_fixture_for_every_seed() {
    let a = Inputs::generate(Workload::BatchFuzzy, 1, Scale::Tiny);
    let b = Inputs::generate(Workload::BatchFuzzy, 2, Scale::Tiny);
    assert_eq!(a.kb_text, b.kb_text);
}

#[test]
fn workload_names_round_trip() {
    for workload in Workload::ALL {
        assert!(valid_name(workload.name()));
        assert_eq!(Workload::parse(workload.name()), Some(workload));
    }
    assert_eq!(Workload::parse("nope"), None);
}

#[test]
fn every_metric_name_and_unit_is_valid_and_unique() {
    let mut seen = BTreeSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(def.name), "bad metric name {:?}", def.name);
        assert!(
            valid_unit(def.unit),
            "bad unit {:?} of {}",
            def.unit,
            def.name
        );
        assert!(seen.insert(def.name), "metric {} declared twice", def.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
}

/// The `"name"` values of the JSON array under `key` in `BENCHMARK.json`.
fn names_under(doc: &str, key: &str) -> Vec<String> {
    let start = doc
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &doc[start..];
    let end = body.find(']').expect("array closes");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let open = rest.find('"').expect("name value") + 1;
            let close = open + rest[open..].find('"').expect("name value closes");
            rest[open..close].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_declared_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared = |defs: &[katara_perfbench::metrics::MetricDef]| -> Vec<String> {
        defs.iter().map(|d| d.name.to_string()).collect()
    };
    assert_eq!(names_under(&doc, "end_to_end"), declared(END_TO_END));
    assert_eq!(names_under(&doc, "per_layer"), declared(PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names_under(&doc, "workloads"), workloads);
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let better = match def.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
            def.name, def.unit
        );
        assert!(
            doc.contains(&entry),
            "BENCHMARK.json disagrees on the unit or direction of {}",
            def.name
        );
    }
}
