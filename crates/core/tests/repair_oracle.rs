//! Top-k repair generation against a plain `String`-keyed reference.
//!
//! `RepairIndex` works on interned value ids, normalized-form ids and
//! label ranks; the reference below is the straightforward algorithm it
//! replaced: instance graphs hold owned labels, the inverted lists are
//! keyed by `(slot, normalized String)`, and candidates are full
//! `Repair`s sorted, deduplicated, grouped and diversified by string
//! comparison. Both must return exactly the same repairs — same costs
//! (bit for bit), same changes, same order — for `topk_repairs`, for
//! `generate_repairs_resolved` on every pool size with and without a
//! resolution snapshot, and (over every graph instead of the overlap)
//! for `topk_repairs_naive`.
//!
//! The generated cases are small random KBs whose labels collide on
//! purpose: distinct resources share a display label, and labels differ
//! only in case or spacing so they normalize equal but display
//! differently. Patterns mix typed nodes, literal (untyped) object nodes
//! and disconnected components; configs cover `column_costs`, k ∈
//! {1, 3, 10}, `max_alternatives_per_cell_set` ∈ {0, 5} and a
//! `max_graphs_per_component` small enough to truncate.
//!
//! The case count is elevated in CI via `KATARA_FUZZ_CASES`.

use std::collections::{HashMap, HashSet};

use katara_core::pattern::{PatternEdge, PatternNode, TablePattern};
use katara_core::repair::{
    generate_repairs_resolved, topk_repairs, topk_repairs_naive, Repair, RepairConfig, RepairIndex,
};
use katara_core::resolve::TableResolution;
use katara_exec::Threads;
use katara_kb::{sim, Kb, KbBuilder, PropertyId, ResourceId};
use katara_table::{Table, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Per-test case count: `KATARA_FUZZ_CASES` (CI runs an elevated count)
/// or the given local default.
fn fuzz_cases(default: u32) -> u32 {
    std::env::var("KATARA_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

// ---------------------------------------------------------------------
// The reference: String-keyed instance graphs and ranking.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RefVal {
    Res(ResourceId),
    Lit(String),
}

struct RefGraph {
    values: Vec<RefVal>,
    norms: Vec<String>,
}

struct RefComponent {
    node_indexes: Vec<usize>,
    graphs: Vec<RefGraph>,
    inverted: HashMap<(usize, String), Vec<u32>>,
}

struct RefIndex {
    components: Vec<RefComponent>,
    node_columns: Vec<usize>,
}

type RefEdge = (usize, usize, PropertyId, bool);

fn ref_build(kb: &Kb, pattern: &TablePattern, cap: usize) -> RefIndex {
    RefIndex {
        components: pattern
            .components()
            .into_iter()
            .map(|nodes| ref_component(kb, pattern, nodes, cap))
            .collect(),
        node_columns: pattern.nodes().iter().map(|n| n.column).collect(),
    }
}

fn ref_component(
    kb: &Kb,
    pattern: &TablePattern,
    node_indexes: Vec<usize>,
    cap: usize,
) -> RefComponent {
    let col_of = |ni: usize| pattern.nodes()[ni].column;
    let slot_of: HashMap<usize, usize> = node_indexes
        .iter()
        .enumerate()
        .map(|(slot, &ni)| (col_of(ni), slot))
        .collect();
    let edges: Vec<RefEdge> = pattern
        .edges()
        .iter()
        .filter_map(|e| {
            let (s, o) = (slot_of.get(&e.subject)?, slot_of.get(&e.object)?);
            let obj_is_literal = pattern.nodes()[node_indexes[*o]].class.is_none();
            Some((*s, *o, e.property, obj_is_literal))
        })
        .collect();
    let seed = node_indexes
        .iter()
        .enumerate()
        .filter_map(|(slot, &ni)| pattern.nodes()[ni].class.map(|c| (slot, kb.class_size(c))))
        .min_by_key(|&(_, size)| size)
        .map(|(slot, _)| slot);
    let mut graphs = Vec::new();
    let mut truncated = false;
    if let Some(seed) = seed {
        let seed_class = pattern.nodes()[node_indexes[seed]].class.unwrap();
        let mut values: Vec<Option<RefVal>> = vec![None; node_indexes.len()];
        for &r in kb.entities_of_class(seed_class) {
            values[seed] = Some(RefVal::Res(r));
            let mut walk = RefWalk {
                kb,
                pattern,
                node_indexes: &node_indexes,
                edges: &edges,
                graphs: &mut graphs,
                cap,
                truncated: &mut truncated,
            };
            walk.expand(&mut values);
            values[seed] = None;
            if truncated {
                break;
            }
        }
    }
    let mut inverted: HashMap<(usize, String), Vec<u32>> = HashMap::new();
    for (gi, g) in graphs.iter_mut().enumerate() {
        g.norms = g
            .values
            .iter()
            .map(|v| match v {
                RefVal::Res(r) => sim::normalize(kb.label_of(*r)),
                RefVal::Lit(l) => sim::normalize(l),
            })
            .collect();
        for (slot, key) in g.norms.iter().enumerate() {
            inverted
                .entry((slot, key.clone()))
                .or_default()
                .push(gi as u32);
        }
    }
    RefComponent {
        node_indexes,
        graphs,
        inverted,
    }
}

struct RefWalk<'a> {
    kb: &'a Kb,
    pattern: &'a TablePattern,
    node_indexes: &'a [usize],
    edges: &'a [RefEdge],
    graphs: &'a mut Vec<RefGraph>,
    cap: usize,
    truncated: &'a mut bool,
}

impl RefWalk<'_> {
    fn expand(&mut self, values: &mut Vec<Option<RefVal>>) {
        if *self.truncated {
            return;
        }
        let kb = self.kb;
        let mut frontier = None;
        for &(s, o, p, lit) in self.edges {
            match (&values[s], &values[o]) {
                (Some(RefVal::Res(rs)), Some(RefVal::Res(ro))) if !kb.holds(*rs, p, *ro) => return,
                (Some(RefVal::Res(rs)), Some(RefVal::Lit(l))) if !kb.holds_literal(*rs, p, l) => {
                    return
                }
                (Some(_), None) if frontier.is_none() => frontier = Some((s, o, p, lit, true)),
                (None, Some(_)) if frontier.is_none() && !lit => {
                    frontier = Some((s, o, p, lit, false))
                }
                _ => {}
            }
        }
        let Some((s, o, p, obj_literal, forward)) = frontier else {
            if values.iter().all(Option::is_some) {
                if self.graphs.len() >= self.cap {
                    *self.truncated = true;
                    return;
                }
                self.graphs.push(RefGraph {
                    values: values.iter().cloned().map(Option::unwrap).collect(),
                    norms: Vec::new(),
                });
            }
            return;
        };
        if forward {
            let Some(RefVal::Res(rs)) = values[s].clone() else {
                unreachable!()
            };
            if obj_literal {
                for l in kb.literals_linked(rs, p) {
                    self.try_value(values, o, RefVal::Lit(kb.literal_value(l).to_string()));
                }
            } else {
                let oclass = self.pattern.nodes()[self.node_indexes[o]].class;
                for r in kb.objects_linked(rs, p) {
                    if oclass.is_none_or(|c| kb.has_type(r, c)) {
                        self.try_value(values, o, RefVal::Res(r));
                    }
                }
            }
        } else {
            let Some(RefVal::Res(ro)) = values[o].clone() else {
                return;
            };
            let sclass = self.pattern.nodes()[self.node_indexes[s]].class;
            for r in kb.subjects_linking(ro, p) {
                if sclass.is_none_or(|c| kb.has_type(r, c)) {
                    self.try_value(values, s, RefVal::Res(r));
                }
            }
        }
    }
}

impl RefWalk<'_> {
    fn try_value(&mut self, values: &mut Vec<Option<RefVal>>, slot: usize, v: RefVal) {
        values[slot] = Some(v);
        self.expand(values);
        values[slot] = None;
    }
}

fn ref_sort(cands: &mut [Repair]) {
    cands.sort_by(|a, b| {
        a.cost
            .total_cmp(&b.cost)
            .then_with(|| a.changes.cmp(&b.changes))
    });
}

fn ref_cols(r: &Repair) -> Vec<usize> {
    r.changes.iter().map(|(col, _)| *col).collect()
}

fn ref_drop_unsupported_groups(cands: &mut Vec<Repair>, max_alternatives: usize) {
    if max_alternatives == 0 {
        return;
    }
    let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
    for c in cands.iter() {
        *counts.entry(ref_cols(c)).or_insert(0) += 1;
    }
    cands.retain(|c| c.changes.is_empty() || counts[&ref_cols(c)] <= max_alternatives);
}

fn ref_diversify(cands: Vec<Repair>, k: usize) -> Vec<Repair> {
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    let (mut primary, rest): (Vec<Repair>, Vec<Repair>) =
        cands.into_iter().partition(|c| seen.insert(ref_cols(c)));
    primary.extend(rest);
    primary.truncate(k);
    primary
}

/// The reference top-k: over the inverted-list overlap, or over every
/// graph when `all_graphs`.
fn ref_topk(
    index: &RefIndex,
    kb: &Kb,
    row: &[Value],
    k: usize,
    config: &RepairConfig,
    all_graphs: bool,
) -> Vec<Repair> {
    if k == 0 {
        return Vec::new();
    }
    let cost_of = |col: usize| {
        config
            .column_costs
            .as_ref()
            .and_then(|c| c.get(col))
            .copied()
            .unwrap_or(1.0)
    };
    let mut per_component: Vec<Vec<Repair>> = Vec::new();
    for comp in &index.components {
        let slot_norms: Vec<Option<String>> = comp
            .node_indexes
            .iter()
            .map(|&ni| {
                row.get(index.node_columns[ni])
                    .and_then(Value::as_str)
                    .map(sim::normalize)
            })
            .collect();
        let mut overlap: Vec<u32> = Vec::new();
        if all_graphs {
            overlap.extend(0..comp.graphs.len() as u32);
        } else {
            for (slot, norm) in slot_norms.iter().enumerate() {
                if let Some(gs) = norm
                    .as_ref()
                    .and_then(|n| comp.inverted.get(&(slot, n.clone())))
                {
                    overlap.extend_from_slice(gs);
                }
            }
            overlap.sort_unstable();
            overlap.dedup();
        }
        if overlap.is_empty() {
            continue;
        }
        let mut cands: Vec<Repair> = overlap
            .into_iter()
            .map(|gi| {
                let g = &comp.graphs[gi as usize];
                let mut cost = 0.0;
                let mut changes = Vec::new();
                for (slot, &ni) in comp.node_indexes.iter().enumerate() {
                    let col = index.node_columns[ni];
                    if slot_norms[slot].as_deref() != Some(g.norms[slot].as_str()) {
                        let new_val = match &g.values[slot] {
                            RefVal::Res(r) => kb.label_of(*r).to_string(),
                            RefVal::Lit(l) => l.clone(),
                        };
                        cost += cost_of(col);
                        changes.push((col, new_val));
                    }
                }
                Repair { cost, changes }
            })
            .collect();
        ref_sort(&mut cands);
        cands.dedup_by(|a, b| a.changes == b.changes);
        ref_drop_unsupported_groups(&mut cands, config.max_alternatives_per_cell_set);
        per_component.push(ref_diversify(cands, k));
    }
    per_component.retain(|c| !c.is_empty());
    if per_component.is_empty() {
        return Vec::new();
    }
    let mut combined = vec![Repair {
        cost: 0.0,
        changes: Vec::new(),
    }];
    for comp in per_component {
        let mut next = Vec::new();
        for base in &combined {
            for cand in &comp {
                let mut changes = base.changes.clone();
                changes.extend(cand.changes.iter().cloned());
                next.push(Repair {
                    cost: base.cost + cand.cost,
                    changes,
                });
            }
        }
        ref_sort(&mut next);
        next.truncate(k.saturating_mul(3));
        combined = next;
    }
    ref_diversify(combined, k)
}

// ---------------------------------------------------------------------
// Generated cases.
// ---------------------------------------------------------------------

/// Label stems; each is drawn with a random case/spacing variant, so
/// distinct resources share labels and labels normalize together.
const STEMS: [&str; 8] = [
    "rome",
    "paris",
    "new york",
    "oslo",
    "lima",
    "x y z",
    "b",
    "torre del mar",
];

fn variant(rng: &mut StdRng, stem: &str) -> String {
    match rng.random_range(0..5u32) {
        0 => stem.to_uppercase(),
        1 => format!(" {}", stem.replace(' ', "  ")),
        2 => {
            let mut cs = stem.chars();
            cs.next()
                .map(|c| c.to_uppercase().chain(cs).collect())
                .unwrap_or_default()
        }
        _ => stem.to_string(),
    }
}

fn random_label(rng: &mut StdRng) -> String {
    let stem = STEMS[rng.random_range(0..STEMS.len())];
    variant(rng, stem)
}

const CLASSES: [&str; 3] = ["c0", "c1", "c2"];
const PROPS: [&str; 3] = ["p0", "p1", "p2"];
const LIT_PROPS: [&str; 2] = ["l0", "l1"];

fn random_kb(rng: &mut StdRng) -> Kb {
    let mut b = KbBuilder::new();
    let classes: Vec<_> = CLASSES.iter().map(|c| b.class(c)).collect();
    let props: Vec<_> = PROPS.iter().map(|p| b.property(p)).collect();
    let lit_props: Vec<_> = LIT_PROPS.iter().map(|p| b.property(p)).collect();
    let n = rng.random_range(3..14usize);
    let entities: Vec<ResourceId> = (0..n)
        .map(|i| {
            let mut types = vec![classes[rng.random_range(0..classes.len())]];
            if rng.random_bool(0.2) {
                types.push(classes[rng.random_range(0..classes.len())]);
            }
            let label = random_label(rng);
            b.entity_labeled(&format!("e{i}"), &label, &types)
        })
        .collect();
    for _ in 0..rng.random_range(0..3 * n) {
        let s = entities[rng.random_range(0..n)];
        let o = entities[rng.random_range(0..n)];
        b.fact(s, props[rng.random_range(0..props.len())], o);
    }
    for _ in 0..rng.random_range(0..2 * n) {
        let s = entities[rng.random_range(0..n)];
        let lit = random_label(rng);
        b.literal_fact(s, lit_props[rng.random_range(0..lit_props.len())], &lit);
    }
    b.finalize()
}

/// A random pattern over `ncols` columns: typed nodes, literal object
/// nodes (only ever edge objects), and as many components as the random
/// edge set leaves.
fn random_pattern(rng: &mut StdRng, kb: &Kb, ncols: usize) -> Option<TablePattern> {
    let mut nodes = Vec::new();
    for col in 0..ncols {
        if rng.random_bool(0.15) {
            continue; // uncovered column
        }
        let class = (rng.random_range(0..4u32) != 0).then(|| {
            kb.class_by_name(CLASSES[rng.random_range(0..CLASSES.len())])
                .unwrap()
        });
        nodes.push(PatternNode { column: col, class });
    }
    let typed: Vec<usize> = nodes
        .iter()
        .filter(|n| n.class.is_some())
        .map(|n| n.column)
        .collect();
    if typed.is_empty() {
        return None;
    }
    let mut edges = Vec::new();
    for n in &nodes {
        if n.class.is_none() {
            // A literal node needs a typed subject to be enumerable.
            let subject = typed[rng.random_range(0..typed.len())];
            let p = LIT_PROPS[rng.random_range(0..LIT_PROPS.len())];
            edges.push(PatternEdge {
                subject,
                object: n.column,
                property: kb.property_by_name(p).unwrap(),
            });
        }
    }
    for _ in 0..rng.random_range(0..=typed.len()) {
        let s = typed[rng.random_range(0..typed.len())];
        let o = typed[rng.random_range(0..typed.len())];
        if s != o {
            let p = PROPS[rng.random_range(0..PROPS.len())];
            edges.push(PatternEdge {
                subject: s,
                object: o,
                property: kb.property_by_name(p).unwrap(),
            });
        }
    }
    TablePattern::new(nodes, edges, 1.0).ok()
}

fn random_table(rng: &mut StdRng, ncols: usize) -> Table {
    let mut table = Table::with_opaque_columns("t", ncols);
    for _ in 0..rng.random_range(1..12usize) {
        let cells: Vec<String> = (0..ncols)
            .map(|_| match rng.random_range(0..10u32) {
                0 => String::new(),
                1 => "zzz".to_string(),
                _ => random_label(rng),
            })
            .collect();
        let cells: Vec<&str> = cells.iter().map(String::as_str).collect();
        table.push_text_row(&cells);
    }
    table
}

fn random_config(rng: &mut StdRng, ncols: usize) -> RepairConfig {
    let column_costs = rng.random_bool(0.5).then(|| {
        // Sometimes shorter than the table: missing columns cost 1.0.
        let n = rng.random_range(0..=ncols);
        (0..n)
            .map(|_| [0.1, 0.5, 1.0, 2.0, 3.7][rng.random_range(0..5usize)])
            .collect()
    });
    RepairConfig {
        max_graphs_per_component: [1, 3, 8, 100_000][rng.random_range(0..4usize)],
        column_costs,
        max_alternatives_per_cell_set: [0, 5][rng.random_range(0..2usize)],
        ..RepairConfig::default()
    }
}

const POOLS: [usize; 3] = [1, 2, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(96)))]

    #[test]
    fn repairs_equal_the_string_keyed_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kb = random_kb(&mut rng);
        let ncols = rng.random_range(1..6usize);
        let Some(pattern) = random_pattern(&mut rng, &kb, ncols) else {
            return Ok(());
        };
        let table = random_table(&mut rng, ncols);
        let config = random_config(&mut rng, ncols);
        let index = RepairIndex::build(&kb, &pattern, &config);
        let reference = ref_build(&kb, &pattern, config.max_graphs_per_component);
        let ref_graphs: usize = reference.components.iter().map(|c| c.graphs.len()).sum();
        prop_assert_eq!(index.num_graphs(), ref_graphs);

        let resolution = TableResolution::build(&table, &kb, usize::MAX);
        let rows: Vec<usize> = (0..table.num_rows()).collect();
        for k in [1, 3, 10] {
            let expected: Vec<(usize, Vec<Repair>)> = rows
                .iter()
                .map(|&r| (r, ref_topk(&reference, &kb, table.row(r), k, &config, false)))
                .collect();
            for (r, want) in &expected {
                let got = topk_repairs(&index, &kb, &pattern, table.row(*r), k, &config);
                prop_assert_eq!(&got, want, "row {} k {} pattern {:?}", r, k, pattern);
                let naive = topk_repairs_naive(&index, &kb, &pattern, table.row(*r), k, &config);
                let want_naive = ref_topk(&reference, &kb, table.row(*r), k, &config, true);
                prop_assert_eq!(&naive, &want_naive, "naive row {} k {}", r, k);
            }
            for threads in POOLS {
                for res in [None, Some(&resolution)] {
                    let got = generate_repairs_resolved(
                        &index, &kb, &pattern, &table, &rows, k, &config,
                        Threads::fixed(threads), res,
                    );
                    prop_assert_eq!(
                        &got, &expected,
                        "{} threads, snapshot {}", threads, res.is_some()
                    );
                }
            }
        }
    }
}
