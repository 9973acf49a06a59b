//! Integration tests focused on repair generation quality: the behaviors
//! Figure 8 and Tables 6–7 rest on.

use katara::core::prelude::*;
use katara::core::repair::topk_repairs_naive;
use katara::datagen::KbFlavor;
use katara::eval::corpus::{Corpus, CorpusConfig};
use katara::eval::experiments::{ground_truth_for, katara_repair_run};
use katara::eval::metrics::repair_precision_recall;
use katara::kb::sim;
use katara::table::Value;

fn corpus() -> Corpus {
    Corpus::build(&CorpusConfig::small())
}

/// Build the person pattern + index once for the small corpus.
fn person_index(
    corpus: &Corpus,
) -> (
    katara::kb::Kb,
    katara::core::pattern::TablePattern,
    RepairIndex,
) {
    let kb = corpus.kb(KbFlavor::DbpediaLike);
    let g = &corpus.person;
    // The tiny test world has 1-in-3 capital density, which lets a
    // spurious birthPlace edge slip into the raw pattern (the pipeline's
    // annotation feedback strips it; here we raise the support bar to the
    // same effect).
    let cands = discover_candidates(
        &g.table,
        &kb,
        &CandidateConfig {
            min_rel_support_fraction: 0.5,
            ..CandidateConfig::default()
        },
    );
    let pattern = discover_topk(&g.table, &kb, &cands, 1, &DiscoveryConfig::default())
        .into_iter()
        .next()
        .expect("person pattern");
    let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
    (kb, pattern, index)
}

#[test]
fn single_cell_corruption_repairs_at_top1() {
    let corpus = corpus();
    let (kb, pattern, index) = person_index(&corpus);
    let g = &corpus.person;
    // Corrupt the capital of a row whose player is covered by the KB.
    let mut hits = 0;
    let mut total = 0;
    for r in 0..g.table.num_rows().min(80) {
        let player = g.table.cell(r, 0).as_str().unwrap();
        if kb.resources_by_label(player).is_empty() {
            continue; // KB gap: out of scope for this test
        }
        let clean_capital = g.table.cell(r, 2).as_str().unwrap().to_string();
        let mut row = g.table.row(r).to_vec();
        row[2] = Value::from_cell("Totally Wrong Capital");
        let repairs = topk_repairs(&index, &kb, &pattern, &row, 3, &RepairConfig::default());
        total += 1;
        if let Some(top) = repairs.first() {
            if top
                .changes
                .iter()
                .any(|(c, v)| *c == 2 && sim::normalize(v) == sim::normalize(&clean_capital))
            {
                hits += 1;
            }
        }
    }
    assert!(total > 20, "need enough covered rows, got {total}");
    assert!(
        hits as f64 / total as f64 > 0.7,
        "top-1 restored only {hits}/{total}"
    );
}

#[test]
fn ambiguity_cutoff_abstains_rather_than_guessing() {
    // A height column value shared by many players must not trigger a
    // name guess: build a KB where 20 players share one height.
    let mut b = katara::kb::KbBuilder::new();
    let sp = b.class("SoccerPlayer");
    let height = b.property("height");
    for i in 0..20 {
        let p = b.entity(&format!("Player{i:02}"), &[sp]);
        b.literal_fact(p, height, "1.75");
    }
    let kb = b.finalize();
    let pattern = katara::core::pattern::TablePattern::new(
        vec![
            katara::core::pattern::PatternNode {
                column: 0,
                class: Some(sp),
            },
            katara::core::pattern::PatternNode {
                column: 1,
                class: None,
            },
        ],
        vec![katara::core::pattern::PatternEdge {
            subject: 0,
            object: 1,
            property: height,
        }],
        1.0,
    )
    .unwrap();
    let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
    // A common height with an unknown player name: dozens of graphs share
    // the height — the cut-off must abstain instead of proposing a name.
    let row = vec![Value::from_cell("Unknown Player"), Value::from_cell("1.75")];
    let repairs = topk_repairs(&index, &kb, &pattern, &row, 3, &RepairConfig::default());
    for r in &repairs {
        assert!(
            !r.changes.iter().any(|(c, _)| *c == 0),
            "must not guess a player name from a height: {repairs:?}"
        );
    }
}

#[test]
fn naive_matches_indexed_on_full_table() {
    let corpus = corpus();
    let (kb, pattern, index) = person_index(&corpus);
    let g = &corpus.person;
    let naive_cfg = RepairConfig {
        // Disable the ambiguity cutoff for the equivalence check: both
        // paths apply it, but it counts alternatives within the candidate
        // set, and the naive set (every graph) is larger than the overlap,
        // so a group can be cut on one side only.
        max_alternatives_per_cell_set: usize::MAX,
        ..RepairConfig::default()
    };
    for r in (0..g.table.num_rows()).step_by(17) {
        let row = g.table.row(r);
        let fast = topk_repairs(&index, &kb, &pattern, row, 1, &naive_cfg);
        let naive = topk_repairs_naive(&index, &kb, &pattern, row, 1, &naive_cfg);
        match (fast.first(), naive.first()) {
            (Some(f), Some(n)) => assert!(
                (f.cost - n.cost).abs() < 1e-9,
                "row {r}: {} vs {}",
                f.cost,
                n.cost
            ),
            (None, Some(n)) => assert!(
                !n.changes.is_empty(),
                "indexed abstains only when no overlap exists"
            ),
            (Some(_), None) => panic!("naive found nothing but indexed did"),
            (None, None) => {}
        }
    }
}

#[test]
fn repair_run_precision_beats_chance_on_all_relational_tables() {
    let corpus = corpus();
    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        for (name, g) in corpus.relational() {
            let (gt_types, _) = ground_truth_for(g, flavor);
            let cols: Vec<usize> = gt_types
                .iter()
                .enumerate()
                .filter_map(|(c, t)| t.map(|_| c))
                .collect();
            let Some(run) = katara_repair_run(&corpus, g, flavor, &cols, 3, 5) else {
                continue;
            };
            if !run.applicable || run.log.is_empty() {
                continue;
            }
            if name == "University" && flavor == KbFlavor::DbpediaLike {
                // Coverage-starved by design (the paper's low-recall
                // cell); the tiny corpus makes its handful of attempts
                // statistically meaningless.
                continue;
            }
            let s = repair_precision_recall(&run.log, &run.proposals);
            assert!(
                s.p >= 0.5 || run.proposals.is_empty(),
                "{name}/{flavor:?}: precision {:.2}",
                s.p
            );
        }
    }
}

#[test]
fn enriched_kb_extends_repair_reach() {
    // A fact confirmed by the crowd during annotation becomes an instance
    // graph: repairs can then cite it.
    let corpus = corpus();
    let mut kb = corpus.kb(KbFlavor::YagoLike);
    let country = kb.class_by_name("country").unwrap();
    let capital = kb.class_by_name("capital").unwrap();
    let has_capital = kb.property_by_name("hasCapital").unwrap();
    let pattern = katara::core::pattern::TablePattern::new(
        vec![
            katara::core::pattern::PatternNode {
                column: 0,
                class: Some(country),
            },
            katara::core::pattern::PatternNode {
                column: 1,
                class: Some(capital),
            },
        ],
        vec![katara::core::pattern::PatternEdge {
            subject: 0,
            object: 1,
            property: has_capital,
        }],
        1.0,
    )
    .unwrap();

    // Find a country whose capital fact is missing from the KB.
    let missing = corpus.world.countries.iter().enumerate().find(|(_ci, c)| {
        let cap = &corpus.world.cities[c.capital];
        match (kb.resource_by_name(&c.name), kb.resource_by_name(&cap.name)) {
            (Some(rc), Some(rcap)) => !kb.holds(rc, has_capital, rcap),
            _ => false,
        }
    });
    let Some((ci, c)) = missing else {
        return; // fully covered at this seed; nothing to show
    };
    let cap_name = corpus.world.cities[c.capital].name.clone();
    let row = vec![
        Value::from_cell(&c.name),
        Value::from_cell("Wrong Capital City"),
    ];

    // Before enrichment: the country's own graph does not exist.
    let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
    let before = topk_repairs(&index, &kb, &pattern, &row, 3, &RepairConfig::default());
    let restores = |reps: &[katara::core::repair::Repair]| {
        reps.iter().any(|r| {
            r.changes
                .iter()
                .any(|(col, v)| *col == 1 && sim::normalize(v) == sim::normalize(&cap_name))
        })
    };
    assert!(!restores(&before), "fact missing → repair cannot cite it");

    // Enrich (as crowd confirmation would) and rebuild.
    let rc = kb.resource_by_name(&c.name).unwrap();
    let rcap = kb
        .resource_by_name(&corpus.world.cities[c.capital].name)
        .unwrap();
    kb.add_fact(rc, has_capital, rcap);
    let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
    let after = topk_repairs(&index, &kb, &pattern, &row, 3, &RepairConfig::default());
    assert!(
        restores(&after),
        "enriched fact must become citable: {after:?} (country {ci})"
    );
}
