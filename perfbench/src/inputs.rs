//! Workload inputs, generated from the run's seed, and the simulated
//! crowds that answer the pipeline's questions.
//!
//! The program under test only ever receives the generated inputs: the
//! KB as N-Triples text, tables as `Table` values (or CSV bodies on the
//! wire) and edit batches. World generation and the oracle fact base are
//! workload generation and are never timed.

use std::collections::HashSet;
use std::sync::Arc;

use katara_core::CleaningReport;
use katara_crowd::{Answer, Crowd, CrowdConfig, Oracle, Question};
use katara_datagen::{
    build_kb, edit_stream, person_table, EditStreamConfig, GeneratedTable, KbFlavor, KbGenConfig,
    TableOracle, World, WorldConfig, WorldFacts,
};
use katara_kb::ntriples::local_name;
use katara_table::corrupt::{corrupt_table, CorruptionConfig};
use katara_table::{CellChange, CorruptionKind, CorruptionLog, Table, TableDelta};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Default-config batch clean of a typo-heavy table against the
    /// Yago-scale KB at 0.9 player coverage: fuzzy lookup dominates.
    BatchFuzzy,
    /// Default-config batch clean of a large domain-swap table against
    /// the Yago-scale KB at full player coverage: every cell hits the
    /// exact label index, repair dominates.
    BatchCovered,
    /// A durable daemon under one `/clean` client and one `/delta`
    /// client.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BatchFuzzy,
        Workload::BatchCovered,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchFuzzy => "batch-fuzzy",
            Workload::BatchCovered => "batch-covered",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big the generated world and tables are. `Yago` is what the
/// benchmark runs; `Tiny` exists so the generators can be tested in
/// milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `WorldConfig::yago_scale` + `KbGenConfig::yago_scale` (1.18M
    /// triples) and the benchmark's table sizes.
    Yago,
    /// `WorldConfig::tiny` and tables of a few dozen rows.
    Tiny,
}

/// Distinct tables a batch run cleans (each from its own sub-seed), so
/// one run's figures average over several inputs.
pub const BATCH_TABLES: usize = 4;
/// Rows of each batch-fuzzy table.
pub const FUZZY_ROWS: usize = 200;
/// Rows of each batch-covered table.
pub const COVERED_ROWS: usize = 8_000;
/// Rows of each serve-mixed table.
pub const SERVE_ROWS: usize = 200;
/// Distinct `/clean` tables the serve-mixed clean client cycles over.
pub const SERVE_CLEAN_TABLES: usize = 2;
/// Fraction of a table's rows one serve-mixed edit batch touches.
pub const SERVE_EDIT_RATE: f64 = 0.01;
/// Batch workloads replay single-row edit batches (`edit_stream` always
/// draws at least one edit).
pub const BATCH_EDIT_RATE: f64 = 0.0;

/// A corrupted table with its ground truth and corruption log.
#[derive(Debug, Clone)]
pub struct DirtyTable {
    /// The clean table and its semantic ground truth.
    pub clean: GeneratedTable,
    /// The corrupted copy the program cleans.
    pub dirty: Table,
    /// What the corruption changed.
    pub log: CorruptionLog,
}

/// Everything one run of a workload feeds the program.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The run's seed.
    pub seed: u64,
    /// KB generation settings (for ground-truth rendering).
    pub kbgen: KbGenConfig,
    /// The KB as N-Triples text — what `setup_s` loads.
    pub kb_text: String,
    /// Tables to clean: [`BATCH_TABLES`] for batch workloads,
    /// [`SERVE_CLEAN_TABLES`] for serve-mixed (whose delta client streams
    /// edits to the first).
    pub tables: Vec<DirtyTable>,
    /// The oracle's fact base (batch workloads: the expert crowd).
    pub facts: Option<Arc<WorldFacts>>,
}

/// SplitMix64 step: derive independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    /// Generate the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        let (world_cfg, base_kbgen) = match scale {
            Scale::Yago => (WorldConfig::yago_scale(), KbGenConfig::yago_scale()),
            Scale::Tiny => (
                WorldConfig::tiny(),
                KbGenConfig::for_flavor(KbFlavor::YagoLike),
            ),
        };
        // The KB is a fixed fixture, like the one Yago snapshot the paper
        // used: world and KB sampling keep their default seeds. Tables,
        // corruption, edit streams and crowds are drawn from `seed`.
        let kbgen = KbGenConfig {
            player_coverage: match workload {
                Workload::BatchCovered => 1.0,
                _ => base_kbgen.player_coverage,
            },
            ..base_kbgen
        };
        let world = World::generate(world_cfg);
        let kb = build_kb(&world, &kbgen);
        let shrink = |rows: usize| match scale {
            Scale::Yago => rows,
            Scale::Tiny => (rows / 50).max(40),
        };
        let absent = 1.0 - kbgen.player_coverage;
        let table = |rows: usize, corrupted: f64, typo_share: f64, salt: u64| {
            let rows = shrink(rows);
            let clean = person_table_with_absent(&world, &kb, rows, absent, mix(seed, salt));
            let errors = (corrupted * rows as f64).round() as usize;
            let typos = (typo_share * errors as f64).round() as usize;
            let (dirty, log) =
                corrupt_exactly(&clean.table, typos, errors - typos, mix(seed, salt + 1));
            DirtyTable { clean, dirty, log }
        };
        let tables: Vec<DirtyTable> = match workload {
            Workload::BatchFuzzy => (0..BATCH_TABLES as u64)
                .map(|i| table(FUZZY_ROWS, 0.05, 0.7, 10 + 2 * i))
                .collect(),
            Workload::BatchCovered => (0..BATCH_TABLES as u64)
                .map(|i| table(COVERED_ROWS, 0.10, 0.0, 10 + 2 * i))
                .collect(),
            Workload::ServeMixed => (0..SERVE_CLEAN_TABLES as u64)
                .map(|i| table(SERVE_ROWS, 0.05, 0.7, 50 + 2 * i))
                .collect(),
        };
        // The daemon answers from its trust policy; batch runs ask the
        // expert crowd.
        let facts = (workload != Workload::ServeMixed)
            .then(|| Arc::new(WorldFacts::build(&oracle_world(&world, &tables))));
        Inputs {
            workload,
            seed,
            kbgen,
            kb_text: katara_kb::ntriples::to_string(&kb),
            tables,
            facts,
        }
    }

    /// The `i`-th edit batch for a table currently at `current`, drawing
    /// donor rows from the clean version of table `t`. A pure function of
    /// (seed, t, i, current).
    pub fn edits(&self, t: usize, i: u64, current: &Table) -> TableDelta {
        edit_stream(
            current,
            &self.tables[t].clean.table,
            &EditStreamConfig {
                edit_rate: match self.workload {
                    Workload::ServeMixed => SERVE_EDIT_RATE,
                    _ => BATCH_EDIT_RATE,
                },
                ..EditStreamConfig::default()
            },
            mix(self.seed, 1000 + 97 * t as u64 + i),
        )
    }

    /// A fresh simulated expert crowd for table `t`: seeded, perfectly
    /// accurate workers answering from the world's facts. Rebuilt per
    /// clean so repeated cleans ask identical question sequences.
    pub fn expert_crowd(&self, t: usize) -> Crowd<LocalNames<TableOracle>> {
        let facts = self
            .facts
            .clone()
            .expect("batch workloads generate the oracle fact base");
        let oracle = TableOracle::new(
            facts,
            self.tables[t].clean.ground_truth.clone(),
            self.kbgen.flavor,
        );
        Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                seed: mix(self.seed, 5),
                ..CrowdConfig::default()
            },
            LocalNames(oracle),
        )
        .expect("expert crowd config is valid")
    }
}

/// The part of the world a Person-table oracle can be asked about: every
/// country, city, language and club, and the players the tables name.
///
/// `WorldFacts::build` over the whole Yago-scale world takes seconds and
/// hundreds of MB for 160K players and 100K filler entities no Person
/// table mentions. Fact and type questions are only ever about table
/// cells, whose values (typos aside, which no world entity matches) are
/// all in this part, so the answers are the same.
fn oracle_world(world: &World, tables: &[DirtyTable]) -> World {
    let named: HashSet<&str> = tables
        .iter()
        .flat_map(|t| {
            let table = &t.clean.table;
            (0..table.num_rows()).filter_map(move |r| table.cell(r, 0).as_str())
        })
        .collect();
    World {
        config: world.config.clone(),
        continents: world.continents.clone(),
        languages: world.languages.clone(),
        countries: world.countries.clone(),
        cities: world.cities.clone(),
        leagues: world.leagues.clone(),
        clubs: world.clubs.clone(),
        players: world
            .players
            .iter()
            .filter(|p| named.contains(p.name.as_str()))
            .cloned()
            .collect(),
        states: world.states.clone(),
        us_cities: world.us_cities.clone(),
        universities: Vec::new(),
        extra_persons: Vec::new(),
        extra_places: Vec::new(),
        extra_orgs: Vec::new(),
    }
}

/// Seeded Fisher-Yates shuffle of `0..n`.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    idx
}

/// A Person table of exactly `rows` rows in which exactly
/// `round(absent · rows)` rows name a player the KB does not know.
///
/// Rows come from a larger `person_table` draw, kept in draw order, so
/// which players appear is still random; only the share of KB misses
/// is fixed. That share drives the fuzzy-lookup and enrichment work, and
/// leaving it to chance would make run-to-run spread mostly input noise.
fn person_table_with_absent(
    world: &World,
    kb: &katara_kb::Kb,
    rows: usize,
    absent: f64,
    seed: u64,
) -> GeneratedTable {
    let pool = person_table(world, rows * 2, seed);
    let want_absent = (absent * rows as f64).round() as usize;
    let mut keep = Vec::with_capacity(rows);
    let (mut n_absent, mut n_present) = (0, 0);
    for r in 0..pool.table.num_rows() {
        let name = pool.table.cell(r, 0).as_str().unwrap_or("");
        if kb.resources_by_label(name).is_empty() {
            if n_absent < want_absent {
                n_absent += 1;
                keep.push(r);
            }
        } else if n_present < rows - want_absent {
            n_present += 1;
            keep.push(r);
        }
    }
    assert_eq!(keep.len(), rows, "the pool holds enough rows of each kind");
    let mut table = Table::new(pool.table.name(), pool.table.columns().to_vec());
    for r in keep {
        table.push_row(pool.table.row(r).to_vec());
    }
    GeneratedTable { table, ..pool }
}

/// Corrupt exactly `typos` rows with a typo and `swaps` other rows with a
/// domain swap (one cell each, column chosen at random), the way
/// `corrupt_table` corrupts a row. Returns the dirty table and its log.
fn corrupt_exactly(clean: &Table, typos: usize, swaps: usize, seed: u64) -> (Table, CorruptionLog) {
    // Candidate rows in random order; corrupting a sample of them (rather
    // than the whole table) keeps `corrupt_table`'s per-row column scans
    // cheap on large tables.
    let order = shuffled(clean.num_rows(), mix(seed, 3));
    let sample: Vec<usize> = order.into_iter().take(2 * (typos + swaps) + 8).collect();
    let mut sub = Table::new(clean.name(), clean.columns().to_vec());
    for &r in &sample {
        sub.push_row(clean.row(r).to_vec());
    }
    let every_row = |w_domain_swap: f64, w_typo: f64, salt: u64| {
        let mut copy = sub.clone();
        let config = CorruptionConfig {
            tuple_error_rate: 1.0,
            columns: (0..sub.num_columns()).collect(),
            w_domain_swap,
            w_typo,
            w_null: 0.0,
        };
        corrupt_table(&mut copy, &config, mix(seed, salt)).changes
    };
    let typo_changes = every_row(0.0, 1.0, 1);
    let swap_changes = every_row(1.0, 0.0, 2);
    let mut chosen: Vec<CellChange> = Vec::with_capacity(typos + swaps);
    let (mut n_typo, mut n_swap) = (0, 0);
    for (i, &row) in sample.iter().enumerate() {
        let pick = |changes: &[CellChange], kind: CorruptionKind| {
            changes
                .iter()
                .find(|c| c.cell.row == i && c.kind == kind)
                .map(|c| CellChange {
                    cell: katara_table::CellRef {
                        row,
                        col: c.cell.col,
                    },
                    ..c.clone()
                })
        };
        if n_typo < typos {
            if let Some(c) = pick(&typo_changes, CorruptionKind::Typo) {
                n_typo += 1;
                chosen.push(c);
                continue;
            }
        }
        if n_swap < swaps {
            if let Some(c) = pick(&swap_changes, CorruptionKind::DomainSwap) {
                n_swap += 1;
                chosen.push(c);
            }
        }
    }
    assert_eq!(
        (n_typo, n_swap),
        (typos, swaps),
        "the sample holds enough corruptible rows"
    );
    chosen.sort_by_key(|c| c.cell.row);
    let mut dirty = clean.clone();
    for c in &chosen {
        dirty.set_cell(c.cell.row, c.cell.col, c.corrupted.clone());
    }
    (dirty, CorruptionLog { changes: chosen })
}

/// Shows the crowd local names instead of IRIs.
///
/// A KB loaded from N-Triples keeps full IRIs (`kb:soccer_player`) as
/// class and property names, while the generator's oracle speaks the
/// world's plain names (`soccer_player`). Real crowd UIs show local names
/// (§5.1's URI processing); this adapter does the same before asking the
/// wrapped oracle.
#[derive(Debug, Clone)]
pub struct LocalNames<O>(pub O);

impl<O: Oracle> Oracle for LocalNames<O> {
    fn answer(&self, q: &Question) -> Answer {
        let mut q = q.clone();
        match &mut q {
            Question::ColumnType { candidates, .. } => {
                for c in candidates.iter_mut() {
                    *c = local_name(c).to_string();
                }
            }
            Question::Relationship { candidates, .. } => {
                // "<col> <property> <col>": only the property is an IRI.
                for c in candidates.iter_mut() {
                    *c = c
                        .split(' ')
                        .enumerate()
                        .map(|(i, t)| if i == 1 { local_name(t) } else { t })
                        .collect::<Vec<_>>()
                        .join(" ");
                }
            }
            Question::Fact {
                property, object, ..
            } => {
                if property == "hasType" {
                    *object = local_name(object).to_string();
                }
                *property = local_name(property).to_string();
            }
        }
        self.0.answer(&q)
    }
}

/// FNV-1a over a string.
pub fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of everything a cleaning run decided: pattern, per-tuple
/// annotations, repairs, the enrichment it wrote and the crowd spend.
pub fn report_digest(r: &CleaningReport) -> u64 {
    fnv1a(&format!(
        "{:?}|{}|{:?}|{:?}|{:?}|{:?}|{}",
        r.pattern,
        r.variables_validated,
        r.annotation.tuples,
        r.annotation.feedback_stripped,
        r.repairs,
        r.enrichment(),
        r.degradation.questions_asked,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_separates_salts_and_seeds() {
        assert_ne!(mix(1, 1), mix(1, 2));
        assert_ne!(mix(1, 1), mix(2, 1));
        assert_eq!(mix(7, 3), mix(7, 3));
    }

    #[test]
    fn local_names_strip_iri_prefixes() {
        let seen = std::sync::Mutex::new(Vec::new());
        let oracle = LocalNames(|q: &Question| {
            seen.lock().unwrap().push(q.clone());
            Answer::Choice(0)
        });
        oracle.answer(&Question::Relationship {
            table: "t".into(),
            columns: (0, 1),
            header: vec![],
            sample_rows: vec![],
            candidates: vec!["A kb:hasCapital B".into()],
        });
        oracle.answer(&Question::Fact {
            subject: "Rome".into(),
            property: "hasType".into(),
            object: "kb:capital".into(),
        });
        let seen = seen.into_inner().unwrap();
        match &seen[0] {
            Question::Relationship { candidates, .. } => {
                assert_eq!(candidates, &["A hasCapital B".to_string()])
            }
            q => panic!("{q:?}"),
        }
        match &seen[1] {
            Question::Fact { object, .. } => assert_eq!(object, "capital"),
            q => panic!("{q:?}"),
        }
    }
}
