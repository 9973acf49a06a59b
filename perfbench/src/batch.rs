//! The batch workloads: `Katara::clean` with `KataraConfig::default()`
//! (enrichment on, automatic thread count) against the Yago-scale KB
//! loaded from N-Triples, with a seeded simulated expert crowd.

use std::path::Path;
use std::time::Instant;

use katara_core::{CleaningReport, Katara, KataraConfig};
use katara_eval::metrics::{pattern_precision_recall, repair_precision_recall};
use katara_kb::Kb;

use crate::inputs::{report_digest, Inputs};
use crate::layers::{self, Outcome};
use crate::metrics::{median, peak_rss_mb, timed, RunResult};

/// KB loads per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 2;
/// Delta replays in the traced run.
const TRACE_REPLAYS: u64 = 20;

/// Load the KB `SETUP_REPS` times from its N-Triples text; returns the
/// last copy and the median load time in seconds.
pub fn load_kb(text: &str) -> (Kb, f64) {
    let mut times = Vec::new();
    let mut kb = None;
    for _ in 0..SETUP_REPS {
        drop(kb.take());
        let (parsed, ms) = timed(|| katara_kb::ntriples::parse("yago", text));
        times.push(ms / 1e3);
        kb = Some(parsed.expect("generated N-Triples parse"));
    }
    (kb.expect("at least one load"), median(&times))
}

/// The class or property name as the loaded KB spells it: N-Triples
/// loading keeps the `kb:` IRI prefix on generated plain names.
fn kb_spelling(found: bool, name: &str) -> String {
    if found {
        name.to_string()
    } else {
        format!("kb:{name}")
    }
}

/// Pattern and repair F-measures of one report on table `t` against the
/// generator's ground truth and corruption log.
pub fn quality(inputs: &Inputs, t: usize, kb: &Kb, report: &CleaningReport) -> (f64, f64) {
    let table = &inputs.tables[t];
    let types: Vec<Option<String>> = table
        .clean
        .ground_truth
        .types_for(inputs.kbgen.flavor)
        .into_iter()
        .map(|n| n.map(|n| kb_spelling(kb.class_by_name(n).is_some(), n)))
        .collect();
    let rels: Vec<(usize, usize, String)> = table
        .clean
        .ground_truth
        .rels_for(&inputs.kbgen)
        .into_iter()
        .map(|(i, j, n)| (i, j, kb_spelling(kb.property_by_name(n).is_some(), n)))
        .collect();
    let types: Vec<Option<&str>> = types.iter().map(|n| n.as_deref()).collect();
    let rels: Vec<(usize, usize, &str)> =
        rels.iter().map(|(i, j, n)| (*i, *j, n.as_str())).collect();
    let pattern = pattern_precision_recall(kb, &report.pattern, &types, &rels).f_measure();
    let repair = repair_precision_recall(&table.log, &report.repairs).f_measure();
    (pattern, repair)
}

/// What the first clean of one table decided.
struct First {
    digest: u64,
    outcome: Outcome,
    questions: f64,
    pattern_f1: f64,
    repair_f1: f64,
}

/// One untraced or traced run of a batch workload.
///
/// Untraced: cleans cycle over the run's tables until `--seconds` have
/// passed and every table has been cleaned, the first one twice; each clean
/// starts from a fresh copy of the loaded KB and a fresh, identically
/// seeded crowd, so repeated cleans of one table must produce identical
/// reports. Traced: two reference cleans of the first table, then the
/// outside-in layer measurements.
pub fn run(inputs: &Inputs, seconds: f64, trace: bool, tmp: &Path) -> RunResult {
    let mut out = RunResult::default();
    let config = KataraConfig::default();
    let katara = Katara::new(config.clone());

    let (base, setup_s) = load_kb(&inputs.kb_text);
    out.set("setup_s", setup_s);
    out.set("ntriples.parse_s", setup_s);
    eprintln!("perfbench: KB loaded, median {setup_s:.3} s over {SETUP_REPS} loads");

    let tables = if trace { 1 } else { inputs.tables.len() };
    let start = Instant::now();
    let mut clean_ms = Vec::new();
    let mut first: Vec<Option<First>> = (0..tables).map(|_| None).collect();
    let mut i = 0;
    while i < tables + 1 || (!trace && start.elapsed().as_secs_f64() < seconds) {
        let t = i % tables;
        i += 1;
        let mut kb = base.clone();
        let mut crowd = inputs.expert_crowd(t);
        let (report, ms) = timed(|| katara.clean(&inputs.tables[t].dirty, &mut kb, &mut crowd));
        out.op(report.is_ok());
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || format!("clean of table {t} failed: {e}"));
                return out;
            }
        };
        clean_ms.push(ms);
        let digest = report_digest(&report);
        match &first[t] {
            None => {
                let (pattern_f1, repair_f1) = quality(inputs, t, &kb, &report);
                eprintln!(
                    "perfbench: table {t}: clean {ms:.1} ms, {} questions, {} repaired rows, \
                     pattern F1 {pattern_f1:.3}, repair F1 {repair_f1:.3}",
                    report.degradation.questions_asked,
                    report.repairs.len()
                );
                first[t] = Some(First {
                    digest,
                    outcome: Outcome::of(&report),
                    questions: report.degradation.questions_asked as f64,
                    pattern_f1,
                    repair_f1,
                });
            }
            Some(f) => out.check(digest == f.digest, || {
                format!("a repeated clean of table {t} produced a different report")
            }),
        }
    }
    let first: Vec<First> = first
        .into_iter()
        .map(|f| f.expect("every table cleaned"))
        .collect();
    let mean = |f: &dyn Fn(&First) -> f64| first.iter().map(f).sum::<f64>() / first.len() as f64;
    let clean_p50 = median(&clean_ms);
    eprintln!(
        "perfbench: {} cleans, p50 {clean_p50:.1} ms",
        clean_ms.len()
    );

    if trace {
        out.set("repair.f1", first[0].repair_f1);
        traced_layers(
            inputs,
            &base,
            &config,
            &first[0].outcome,
            clean_p50,
            tmp,
            &mut out,
        );
        for name in [
            "serve.requests",
            "serve.snapshot_hit_frac",
            "serve.shed",
            "serve.rebootstraps",
        ] {
            out.set(name, 0.0);
        }
    } else {
        out.set("clean_p50_ms", clean_p50);
        out.set("crowd_questions", mean(&|f| f.questions));
        out.set("pattern_f1", mean(&|f| f.pattern_f1));
        out.set("peak_rss_mb", peak_rss_mb());
    }
    out
}

/// The traced run's outside-in layer measurements on the first table,
/// after its reference cleans.
fn traced_layers(
    inputs: &Inputs,
    base: &Kb,
    config: &KataraConfig,
    reference: &Outcome,
    clean_p50: f64,
    tmp: &Path,
    out: &mut RunResult,
) {
    let table = &inputs.tables[0].dirty;
    let mut kb = base.clone();
    let staged = layers::staged_run(table, &mut kb, &mut inputs.expert_crowd(0), config, out);
    drop(kb);
    out.check(staged.outcome == *reference, || {
        "staged run differs from Katara::clean (pattern, statuses, repairs or enrichment)"
            .to_string()
    });
    out.set("trace.overhead_ms", staged.total_ms - clean_p50);
    eprintln!(
        "perfbench: staged run {:.1} ms vs untraced clean {clean_p50:.1} ms",
        staged.total_ms
    );

    layers::label_and_probe_splits(table, base, config.candidates.max_rows, out);
    layers::annotate_split(
        table,
        base,
        &mut inputs.expert_crowd(0),
        &staged,
        config,
        out,
    );
    drop(layers::clone_and_apply(
        base,
        staged.outcome.enrichment(),
        out,
    ));
    layers::journal_splits(
        base.clone(),
        std::slice::from_ref(staged.outcome.enrichment()),
        &tmp.join("journal"),
        out,
    );
    let mut kb = base.clone();
    layers::delta_splits(
        table,
        &mut kb,
        config,
        &|| inputs.expert_crowd(0),
        &|i, current| inputs.edits(0, i, current),
        TRACE_REPLAYS,
        out,
    );
}
