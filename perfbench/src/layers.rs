//! Outside-in per-layer measurements for the traced run.
//!
//! Nothing here adds a span inside the program: every number is either
//! the wall time of a call the benchmark makes into one layer's public
//! functions, or a deterministic counter `katara_obs::RunRecorder`
//! already records when the benchmark attaches one.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use katara_core::annotation::{annotate_resolved, AnnotationConfig};
use katara_core::candidates::{discover_candidates_resolved, CandidateConfig};
use katara_core::rank_join::{discover_topk_with_stats, DiscoveryConfig};
use katara_core::repair::{generate_repairs_resolved, RepairConfig, RepairIndex};
use katara_core::resolve::TableResolution;
use katara_core::validation::validate_patterns;
use katara_core::{CleaningReport, Katara, KataraConfig};
use katara_crowd::{Crowd, Oracle};
use katara_kb::{EnrichmentDelta, Journal, JournalConfig, Kb, ResourceId};
use katara_obs::{RunMetrics, RunRecorder};
use katara_table::{Table, TableDelta};

use crate::metrics::{median, timed, RunResult};

/// `resolve.*` tier accounting from a recorder: (fallbacks, hits /
/// lookups). The hit fraction is 1.0 when nothing was looked up.
fn resolve_tiers(m: &RunMetrics) -> (u64, f64) {
    let sum = |what: &str| -> u64 {
        ["candidates", "types", "pair"]
            .iter()
            .map(|tier| m.counter(&format!("resolve.{tier}_{what}")))
            .sum()
    };
    let lookups = sum("lookups");
    let hit_frac = if lookups == 0 {
        1.0
    } else {
        sum("hit") as f64 / lookups as f64
    };
    (sum("fallback"), hit_frac)
}

/// `kb::label_index` and `kb::store` probe costs over the table's
/// distinct normalized values, the way `TableResolution::build` walks
/// them: label lookups (split into values the exact index knows and
/// fuzzy lookups for the rest), type closures, then relationship probes
/// for the ordered column pairs of the first `pair_rows` rows.
pub fn label_and_probe_splits(table: &Table, kb: &Kb, pair_rows: usize, out: &mut RunResult) {
    let mut ids: HashMap<String, usize> = HashMap::new();
    let mut norms: Vec<String> = Vec::new();
    let mut cells: Vec<Vec<Option<usize>>> =
        vec![vec![None; table.num_rows()]; table.num_columns()];
    for (c, col) in cells.iter_mut().enumerate() {
        for (r, slot) in col.iter_mut().enumerate() {
            let Some(cell) = table.cell(r, c).as_str() else {
                continue;
            };
            let norm = katara_kb::sim::normalize(cell);
            let next = norms.len();
            let id = *ids.entry(norm.clone()).or_insert(next);
            if id == next {
                norms.push(norm);
            }
            *slot = Some(id);
        }
    }

    // Every value goes through the lookup resolution uses; whether the
    // exact index knows it decides which side of the split its time is on.
    let (mut exact_n, mut fuzzy_n, mut fuzzy_hits) = (0usize, 0usize, 0usize);
    let (mut lookup_ms, mut fuzzy_ms) = (0.0, 0.0);
    let mut cands: Vec<Vec<(ResourceId, f64)>> = Vec::with_capacity(norms.len());
    for norm in &norms {
        let exact = !kb.resources_by_label(norm).is_empty();
        let (found, ms) = timed(|| kb.candidate_resources_normalized(norm));
        lookup_ms += ms;
        if exact {
            exact_n += 1;
        } else {
            fuzzy_n += 1;
            fuzzy_ms += ms;
            fuzzy_hits += usize::from(!found.is_empty());
        }
        cands.push(found);
    }
    let types_ms: f64 = cands
        .iter()
        .map(|c| timed(|| kb.types_for_candidates(c).len()).1)
        .sum();

    let rows = table.num_rows().min(pair_rows);
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    let mut pair_ms = 0.0;
    for i in 0..table.num_columns() {
        for j in 0..table.num_columns() {
            if i == j {
                continue;
            }
            for (a, b) in cells[i].iter().zip(&cells[j]).take(rows) {
                let (&Some(a), &Some(b)) = (a, b) else {
                    continue;
                };
                if !seen.insert((a, b)) {
                    continue;
                }
                pair_ms += timed(|| {
                    kb.relations_for_candidates_planned(&cands[a], &cands[b])
                        .0
                        .len()
                        + kb.literal_relations_for_candidates(&cands[a], &norms[b])
                            .len()
                })
                .1;
            }
        }
    }

    let frac = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    out.set("label_index.exact_n", exact_n as f64);
    out.set("label_index.fuzzy_n", fuzzy_n as f64);
    out.set("label_index.lookup_ms", lookup_ms);
    out.set("label_index.fuzzy_time_frac", frac(fuzzy_ms, lookup_ms));
    out.set(
        "label_index.fuzzy_hit_frac",
        frac(fuzzy_hits as f64, fuzzy_n as f64),
    );
    out.set("store.types_ms", types_ms);
    out.set("store.pair_probe_ms", pair_ms);
}

/// `Kb::clone` (median of three) and `Kb::apply_delta` of `delta` onto a
/// copy of `base`. Returns the patched copy.
pub fn clone_and_apply(base: &Kb, delta: &EnrichmentDelta, out: &mut RunResult) -> Kb {
    let mut clone_ms = Vec::new();
    let mut copy = None;
    for _ in 0..3 {
        let (kb, ms) = timed(|| base.clone());
        clone_ms.push(ms);
        copy = Some(kb);
    }
    let mut kb = copy.expect("three clones");
    let (applied, ms) = timed(|| kb.apply_delta(delta));
    out.check(applied.is_ok(), || {
        format!("apply_delta of the run's own enrichment failed: {applied:?}")
    });
    out.set("store.clone_ms", median(&clone_ms));
    out.set("store.apply_delta_ms", ms);
    kb
}

/// `kb::journal` on the run's own enrichment: open a fresh journal for
/// `kb` in `dir`, time one `Journal::append` of each delta, reopen (the
/// replay), then time a `checkpoint`. Checks the reopen replays exactly
/// the appended records.
pub fn journal_splits(kb: Kb, deltas: &[EnrichmentDelta], dir: &Path, out: &mut RunResult) {
    let deltas: Vec<&EnrichmentDelta> = deltas.iter().filter(|d| !d.is_empty()).collect();
    let mut kb = kb;
    let mut fsyncs = 0;
    let (journal, _) = Journal::open(dir, &mut kb, JournalConfig::default())
        .expect("a fresh journal directory opens");
    let mut journal = journal;
    let mut append_ms = 0.0;
    for d in &deltas {
        let (r, ms) = timed(|| journal.append(d));
        append_ms += ms;
        out.check(r.is_ok(), || format!("journal append failed: {r:?}"));
    }
    fsyncs += journal.stats().fsyncs;
    drop(journal);
    let mut reopened = kb.clone();
    let (opened, replay_ms) = timed(|| Journal::open(dir, &mut reopened, JournalConfig::default()));
    match opened {
        Ok((mut journal, report)) => {
            out.check(report.replayed_records == deltas.len() as u64, || {
                format!(
                    "journal reopen replayed {} records, {} were appended",
                    report.replayed_records,
                    deltas.len()
                )
            });
            let (r, ms) = timed(|| journal.checkpoint(&mut reopened));
            out.check(r.is_ok(), || format!("journal checkpoint failed: {r:?}"));
            out.set("journal.checkpoint_ms", ms);
            fsyncs += journal.stats().fsyncs;
        }
        Err(e) => out.check(false, || format!("journal reopen failed: {e}")),
    }
    out.set("journal.append_ms", append_ms);
    out.set("journal.replay_ms", replay_ms);
    out.set("journal.fsyncs", fsyncs as f64);
}

/// The comparable parts of one cleaning run, rendered for equality.
#[derive(Debug, PartialEq, Eq)]
pub struct Outcome {
    pattern: String,
    tuples: String,
    repairs: String,
    enrichment: EnrichmentDelta,
}

impl Outcome {
    /// The comparable parts of a pipeline report.
    pub fn of(r: &CleaningReport) -> Outcome {
        Outcome {
            pattern: format!("{:?}", r.pattern),
            tuples: format!("{:?}", r.annotation.tuples),
            repairs: format!("{:?}", r.repairs),
            enrichment: r.enrichment().clone(),
        }
    }

    /// The run's enrichment.
    pub fn enrichment(&self) -> &EnrichmentDelta {
        &self.enrichment
    }
}

/// What the staged run leaves behind for later splits.
pub struct Staged {
    /// Comparable outcome, for the equivalence check.
    pub outcome: Outcome,
    /// Wall time of all six stages, in milliseconds.
    pub total_ms: f64,
    /// The snapshot the stages shared.
    pub resolution: TableResolution,
    /// The validated pattern annotation started from.
    pub validated: katara_core::TablePattern,
}

/// Run the pipeline's stages one call at a time, in pipeline order, the
/// way `Katara::clean_with_resolution` does for `config`, timing each
/// call and reading the recorder's counters afterwards.
pub fn staged_run<O: Oracle>(
    table: &Table,
    kb: &mut Kb,
    crowd: &mut Crowd<O>,
    config: &KataraConfig,
    out: &mut RunResult,
) -> Staged {
    let rec = Arc::new(RunRecorder::new());
    let candidates_cfg = CandidateConfig {
        recorder: rec.clone(),
        ..config.candidates.clone()
    };
    let discovery_cfg = DiscoveryConfig {
        recorder: rec.clone(),
        ..config.discovery.clone()
    };
    let repair_cfg = RepairConfig {
        recorder: rec.clone(),
        ..config.repair.clone()
    };
    let start = std::time::Instant::now();
    let (resolution, resolve_ms) = timed(|| {
        TableResolution::build(table, kb, config.candidates.max_rows).with_recorder(rec.clone())
    });
    let ((patterns, _stats), discover_ms) = timed(|| {
        let cands = discover_candidates_resolved(table, kb, &resolution, &candidates_cfg);
        discover_topk_with_stats(table, kb, &cands, config.patterns_k, &discovery_cfg)
    });
    assert!(
        !patterns.is_empty(),
        "the generated table always yields a pattern"
    );
    let asked_before = crowd.stats().questions();
    let (outcome, validate_ms) = timed(|| {
        validate_patterns(
            table,
            kb,
            patterns,
            crowd,
            &config.validation,
            config.strategy,
        )
    });
    let asked_validate = crowd.stats().questions();
    let (annotation, annotate_ms) = timed(|| {
        annotate_resolved(
            table,
            &outcome.pattern,
            kb,
            crowd,
            &config.annotation,
            Some(&resolution),
        )
    });
    let asked_annotate = crowd.stats().questions();
    let effective = annotation.pattern.clone();
    let (index, index_ms) = timed(|| RepairIndex::build(kb, &effective, &repair_cfg));
    let (repairs, topk_ms) = timed(|| {
        generate_repairs_resolved(
            &index,
            kb,
            &effective,
            table,
            &annotation.erroneous_rows(),
            config.repairs_k,
            &repair_cfg,
            config.threads,
            Some(&resolution),
        )
    });
    let total_ms = crate::metrics::ms_since(start);

    let m = rec.snapshot();
    let (fallbacks, hit_frac) = resolve_tiers(&m);
    out.set("resolve.build_ms", resolve_ms);
    out.set("resolve.distinct_values", resolution.num_values() as f64);
    out.set("resolve.fallbacks", fallbacks as f64);
    out.set("resolve.hit_frac", hit_frac);
    out.set("discover.ms", discover_ms);
    for name in [
        "discovery.rel_probes",
        "discovery.type_probes",
        "discovery.heap_pops",
        "repair.graphs_built",
        "repair.tuples_repaired",
    ] {
        out.set(name, m.counter(name) as f64);
    }
    out.set("validate.ms", validate_ms);
    out.set(
        "validation.questions",
        (asked_validate - asked_before) as f64,
    );
    out.set(
        "crowd.questions_asked",
        (asked_annotate - asked_before) as f64,
    );
    out.set("annotate.ms", annotate_ms);
    out.set(
        "annotation.crowd_questions",
        (asked_annotate - asked_validate) as f64,
    );
    out.set(
        "annotation.enriched_facts",
        annotation.enriched_facts as f64,
    );
    out.set("repair.index_ms", index_ms);
    out.set("repair.topk_ms", topk_ms);

    Staged {
        outcome: Outcome {
            pattern: format!("{effective:?}"),
            tuples: format!("{:?}", annotation.tuples),
            repairs: format!("{repairs:?}"),
            enrichment: annotation.delta,
        },
        total_ms,
        resolution,
        validated: outcome.pattern,
    }
}

/// Annotate match vs enrich: re-run `annotate_resolved` for the
/// validated pattern on a copy of the pre-annotation KB with enrichment
/// off. Its time is `annotate.match_ms`; the rest of the traced
/// `annotate.ms` is `annotate.enrich_ms`.
pub fn annotate_split<O: Oracle>(
    table: &Table,
    base: &Kb,
    crowd: &mut Crowd<O>,
    staged: &Staged,
    config: &KataraConfig,
    out: &mut RunResult,
) {
    let mut kb = base.clone();
    let cfg = AnnotationConfig {
        enrich_kb: false,
        ..config.annotation.clone()
    };
    let (_, match_ms) = timed(|| {
        annotate_resolved(
            table,
            &staged.validated,
            &mut kb,
            crowd,
            &cfg,
            Some(&staged.resolution),
        )
    });
    let annotate_ms = out.get("annotate.ms").unwrap_or(f64::NAN);
    out.set("annotate.match_ms", match_ms);
    out.set("annotate.enrich_ms", annotate_ms - match_ms);
}

/// `core::delta`: bootstrap a `DeltaSession` on `table` over `kb` with
/// `config` (plus a recorder), then replay `batches` edit batches drawn by
/// `edits(i, current)`, each with a fresh crowd from `crowd`. The last
/// replay is checked against a full clean of the edited table on the same
/// pre-replay KB.
pub fn delta_splits<O: Oracle>(
    table: &Table,
    kb: &mut Kb,
    config: &KataraConfig,
    crowd: &dyn Fn() -> Crowd<O>,
    edits: &dyn Fn(u64, &Table) -> TableDelta,
    batches: u64,
    out: &mut RunResult,
) {
    let rec = Arc::new(RunRecorder::new());
    let config = KataraConfig {
        recorder: rec.clone(),
        ..config.clone()
    };
    let katara = Katara::new(config.clone());
    let (boot, bootstrap_ms) = timed(|| katara.delta_session(table, kb, &mut crowd()));
    let Ok((mut session, _)) = boot else {
        out.check(false, || "delta session bootstrap failed".to_string());
        return;
    };
    let before = rec.snapshot();
    let mut replay_ms = Vec::new();
    for i in 0..batches {
        let delta = edits(i, session.table());
        let last = i + 1 == batches;
        let reference_kb = last.then(|| kb.clone());
        let (r, ms) = timed(|| session.clean_delta(kb, &mut crowd(), &delta));
        replay_ms.push(ms);
        let Ok(report) = r else {
            out.check(false, || format!("delta replay {i} failed"));
            return;
        };
        if let Some(mut reference_kb) = reference_kb {
            let full = Katara::new(KataraConfig {
                recorder: Arc::new(katara_obs::NoopRecorder),
                ..config.clone()
            })
            .clean(session.table(), &mut reference_kb, &mut crowd());
            out.check(
                full.as_ref().map(Outcome::of).ok() == Some(Outcome::of(&report)),
                || "delta replay differs from a full re-clean of the edited table".to_string(),
            );
        }
    }
    let after = rec.snapshot();
    let diff = |name: &str| after.counter(name) - before.counter(name);
    out.set("delta.bootstrap_ms", bootstrap_ms);
    out.set("delta.replay_ms", median(&replay_ms));
    out.set(
        "delta.replay_p90_ms",
        crate::metrics::quantile(&replay_ms, 0.9),
    );
    out.set(
        "delta.values_resolved",
        diff("delta.values_resolved") as f64,
    );
    out.set("delta.tuples_touched", diff("delta.tuples_touched") as f64);
}
