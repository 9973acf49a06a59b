//! Byte-identical equivalence of the shared-snapshot resolution path
//! and the legacy direct-query path.
//!
//! The [`TableResolution`] snapshot is a performance cache, never a
//! semantics knob: a full cleaning run under [`ResolveMode::Snapshot`]
//! must produce exactly the same report as [`ResolveMode::Direct`] with
//! an identically-seeded crowd, at every worker-pool size. Checked on
//! real corpus tables, on proptest-generated tables full of
//! degenerate cells (empty strings, all-duplicate columns, junk no KB
//! entity matches), and on hand-built tables whose enrichment writes
//! must reach later lookups of the same run through the patched
//! snapshot.

use katara_core::prelude::*;
use katara_crowd::{Answer, Crowd, CrowdConfig, Question};
use katara_datagen::{GeneratedTable, KbFlavor};
use katara_eval::corpus::{Corpus, CorpusConfig};
use katara_eval::experiments::crowd_for;
use katara_kb::{Kb, KbBuilder};
use katara_table::Table;
use proptest::prelude::*;
use std::sync::OnceLock;

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| Corpus::build(&CorpusConfig::small()))
}

/// The pool sizes the ISSUE pins down: sequential, small, oversubscribed.
const POOLS: [usize; 3] = [1, 2, 8];

fn config(mode: ResolveMode, threads: usize) -> KataraConfig {
    KataraConfig {
        resolve: mode,
        threads: Threads::fixed(threads),
        candidates: CandidateConfig {
            threads: Threads::fixed(threads),
            ..CandidateConfig::default()
        },
        ..KataraConfig::default()
    }
}

/// Run one full clean on a corpus table. The report's debug string —
/// pattern, annotations, repairs, degradation — is the byte-level
/// artifact the equivalence is asserted on.
fn corpus_clean(
    g: &GeneratedTable,
    flavor: KbFlavor,
    mode: ResolveMode,
    threads: usize,
) -> CleaningReport {
    let corpus = corpus();
    let mut kb = corpus.kb(flavor);
    let mut crowd = crowd_for(corpus, g, flavor, 1.0, 0xC0FFEE);
    Katara::new(config(mode, threads))
        .clean(&g.table, &mut kb, &mut crowd)
        .expect("corpus clean succeeds")
}

#[test]
fn snapshot_clean_matches_direct_on_corpus() {
    let corpus = corpus();
    let mut enriched = 0;
    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        for (name, g) in [("person", &corpus.person), ("web[0]", &corpus.web[0])] {
            let direct = corpus_clean(g, flavor, ResolveMode::Direct, 1);
            enriched += direct.annotation.enriched_facts;
            let direct = format!("{direct:?}");
            for &threads in &POOLS {
                let snap = format!(
                    "{:?}",
                    corpus_clean(g, flavor, ResolveMode::Snapshot, threads)
                );
                assert_eq!(
                    direct, snap,
                    "{name}/{flavor:?}: snapshot clean differs from direct at {threads} threads"
                );
            }
        }
    }
    // The snapshot is patched during these runs, not merely built.
    assert!(enriched > 0, "no corpus case enriched the KB");
}

/// An externally pre-built snapshot injected via `clean_with_resolution`
/// must behave exactly like the internally built one.
#[test]
fn injected_snapshot_matches_internal_build() {
    let corpus = corpus();
    let flavor = KbFlavor::DbpediaLike;
    let g = &corpus.person;
    let internal = format!("{:?}", corpus_clean(g, flavor, ResolveMode::Snapshot, 2));

    let mut kb = corpus.kb(flavor);
    let res = TableResolution::build(&g.table, &kb, CandidateConfig::default().max_rows);
    let mut crowd = crowd_for(corpus, g, flavor, 1.0, 0xC0FFEE);
    let report = Katara::new(config(ResolveMode::Snapshot, 2))
        .clean_with_resolution(&g.table, &mut kb, &mut crowd, Some(&res))
        .expect("injected-snapshot clean succeeds");
    assert_eq!(internal, format!("{report:?}"));
}

/// A soccer KB in miniature: players with their nationality, except
/// Klate, whose nationality the KB lacks.
fn soccer_kb() -> Kb {
    let mut b = KbBuilder::new();
    let person = b.class("person");
    let country = b.class("country");
    let nationality = b.property("nationality");
    let italy = b.entity("Italy", &[country]);
    let spain = b.entity("Spain", &[country]);
    b.entity("S. Africa", &[country]);
    for (player, nation) in [
        ("Rossi", italy),
        ("Pirlo", italy),
        ("Ramos", spain),
        ("Xavi", spain),
    ] {
        let p = b.entity(player, &[person]);
        b.fact(p, nationality, nation);
    }
    b.entity("Klate", &[person]);
    b.finalize()
}

/// An expert who knows the (player, nationality) pattern and confirms
/// every fact it is asked about.
fn soccer_answer(q: &Question) -> Answer {
    let pick = |candidates: &[String], want: &str| match candidates
        .iter()
        .position(|c| c.contains(want))
    {
        Some(i) => Answer::Choice(i),
        None => Answer::NoneOfTheAbove,
    };
    match q {
        Question::ColumnType {
            column, candidates, ..
        } => pick(candidates, ["person", "country"][*column]),
        Question::Relationship { candidates, .. } => pick(candidates, "nationality"),
        Question::Fact { .. } => Answer::Bool(true),
    }
}

fn soccer_crowd() -> Crowd<fn(&Question) -> Answer> {
    Crowd::new(
        CrowdConfig {
            worker_accuracy: 1.0,
            seed: 7,
            ..CrowdConfig::default()
        },
        soccer_answer as fn(&Question) -> Answer,
    )
    .expect("crowd config is valid")
}

/// Clean a (player, country) table against a fresh [`soccer_kb`] in both
/// resolve modes at every pool size, assert the reports are
/// byte-identical, and return the direct one.
fn soccer_clean_all_modes(rows: &[[&str; 2]]) -> CleaningReport {
    let mut table = Table::with_opaque_columns("soccer", 2);
    for row in rows {
        table.push_text_row(row);
    }
    let clean = |mode, threads| {
        Katara::new(config(mode, threads))
            .clean(&table, &mut soccer_kb(), &mut soccer_crowd())
            .expect("soccer clean succeeds")
    };
    let direct = clean(ResolveMode::Direct, 1);
    for &threads in &POOLS {
        let snap = clean(ResolveMode::Snapshot, threads);
        assert_eq!(
            format!("{direct:?}"),
            format!("{snap:?}"),
            "snapshot clean differs from direct at {threads} threads"
        );
    }
    direct
}

const KNOWN_PLAYERS: [[&str; 2]; 4] = [
    ["Rossi", "Italy"],
    ["Pirlo", "Italy"],
    ["Ramos", "Spain"],
    ["Xavi", "Spain"],
];

/// Tuple 4 creates Totti; tuple 5's typo "Toti" must fuzzy-match the new
/// label and validate against the facts tuple 4 enriched.
#[test]
fn created_entity_is_found_by_a_later_typo() {
    let mut rows = KNOWN_PLAYERS.to_vec();
    rows.extend([["Totti", "Italy"], ["Toti", "Italy"]]);
    let report = soccer_clean_all_modes(&rows);
    assert_eq!(report.annotation.enriched_entities, 1);
    assert_eq!(
        report.annotation.tuples[4].status,
        TupleStatus::ValidatedWithCrowd
    );
    assert_eq!(
        report.annotation.tuples[5].status,
        TupleStatus::ValidatedByKb
    );
}

/// The confirmed node and the confirmed edge of one tuple share the cell
/// "Totti", which the KB lacks: the node step creates the entity and the
/// edge step must find it, not create a second one.
#[test]
fn node_and_edge_of_one_tuple_share_one_created_entity() {
    let mut rows = KNOWN_PLAYERS.to_vec();
    rows.push(["Totti", "Italy"]);
    let report = soccer_clean_all_modes(&rows);
    assert_eq!(report.annotation.enriched_entities, 1);
    assert_eq!(report.annotation.enriched_facts, 1);
}

/// The fact tuple 4 enriches (Klate's nationality) makes its duplicate,
/// tuple 5, KB-validated without a question.
#[test]
fn enriched_fact_validates_a_later_duplicate() {
    let mut rows = KNOWN_PLAYERS.to_vec();
    rows.extend([["Klate", "S. Africa"], ["Klate", "S. Africa"]]);
    let report = soccer_clean_all_modes(&rows);
    assert_eq!(report.annotation.enriched_facts, 1);
    assert_eq!(report.annotation.enriched_entities, 0);
    assert_eq!(
        report.annotation.tuples[5].status,
        TupleStatus::ValidatedByKb
    );
}

/// The serve pattern: one injected snapshot, two enriching cleans, each
/// on a fresh copy of the same KB. Both outputs match the direct path
/// and the shared snapshot itself never changes.
#[test]
fn injected_snapshot_survives_reuse_across_kb_clones() {
    let mut table = Table::with_opaque_columns("soccer", 2);
    for row in KNOWN_PLAYERS.iter().chain(&[
        ["Totti", "Italy"],
        ["Toti", "Italy"],
        ["Klate", "S. Africa"],
    ]) {
        table.push_text_row(row);
    }
    let base = soccer_kb();
    let shared = TableResolution::build(&table, &base, CandidateConfig::default().max_rows);
    let before = format!("{shared:?}");
    for &threads in &POOLS {
        let direct = Katara::new(config(ResolveMode::Direct, threads))
            .clean(&table, &mut base.clone(), &mut soccer_crowd())
            .expect("direct clean succeeds");
        assert!(
            direct.annotation.enriched_facts > 0,
            "the clean must enrich"
        );
        for _ in 0..2 {
            let mut kb = base.clone();
            let report = Katara::new(config(ResolveMode::Snapshot, threads))
                .clean_with_resolution(&table, &mut kb, &mut soccer_crowd(), Some(&shared))
                .expect("injected-snapshot clean succeeds");
            assert_eq!(format!("{direct:?}"), format!("{report:?}"));
        }
        assert_eq!(before, format!("{shared:?}"), "the shared snapshot changed");
        assert!(shared.is_current(&base));
    }
}

/// A tiny hand-built KB mirroring the determinism suite's: two
/// country/capital pairs, so generated tables can both hit and miss.
fn toy_kb() -> Kb {
    let mut b = KbBuilder::new();
    let country = b.class("country");
    let capital = b.class("capital");
    let has_capital = b.property("hasCapital");
    let italy = b.entity("Italy", &[country]);
    let rome = b.entity("Rome", &[capital]);
    let france = b.entity("France", &[country]);
    let paris = b.entity("Paris", &[capital]);
    b.fact(italy, has_capital, rome);
    b.fact(france, has_capital, paris);
    b.finalize()
}

/// Deterministic stand-in oracle for tables with no ground truth: both
/// resolve modes see identical answers, which is all equivalence needs.
fn degenerate_answer(q: &Question) -> Answer {
    match q {
        Question::Fact { .. } => Answer::Bool(true),
        _ => Answer::Choice(0),
    }
}

fn degenerate_clean(table: &Table, mode: ResolveMode, threads: usize) -> String {
    let mut kb = toy_kb();
    let mut crowd = Crowd::new(
        CrowdConfig {
            worker_accuracy: 1.0,
            seed: 7,
            ..CrowdConfig::default()
        },
        degenerate_answer as fn(&Question) -> Answer,
    )
    .expect("crowd config is valid");
    // Degenerate tables may legitimately yield no pattern at all — the
    // two modes must then fail identically, so compare the whole Result.
    let result = Katara::new(config(mode, threads)).clean(table, &mut kb, &mut crowd);
    format!("{result:?}")
}

/// Palette the generated cells draw from. Index 0 is the empty string;
/// "zz"/"  " never resolve; repeating indices yields all-duplicate
/// columns.
const PALETTE: [&str; 7] = ["", "Italy", "Rome", "France", "Paris", "zz", "  "];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn snapshot_clean_matches_direct_on_generated_tables(
        rows in prop::collection::vec(
            prop::collection::vec(0usize..PALETTE.len(), 3usize),
            0..6usize,
        ),
    ) {
        let mut table = Table::with_opaque_columns("generated", 3);
        for row in &rows {
            let cells: Vec<&str> = row.iter().map(|&i| PALETTE[i]).collect();
            table.push_text_row(&cells);
        }

        let direct = degenerate_clean(&table, ResolveMode::Direct, 1);
        for &threads in &POOLS {
            let snap = degenerate_clean(&table, ResolveMode::Snapshot, threads);
            prop_assert_eq!(
                &direct, &snap,
                "snapshot clean differs from direct at {} threads", threads
            );
        }
    }
}
