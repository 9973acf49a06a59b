//! Top-k possible repair generation (§6.2, Algorithm 4).
//!
//! For a validated pattern φ and a KB, every *instance graph* — an
//! instantiation of φ's nodes with KB resources (or literals, for untyped
//! nodes) such that all of φ's edges hold — is enumerated once, offline.
//! An *inverted list* maps `(pattern node, value)` to the instance graphs
//! carrying that value, so for an erroneous tuple only graphs overlapping
//! the tuple are considered. The repair cost of aligning tuple `t` to
//! graph `G` is the (weighted) number of cells that must change; the k
//! least-cost alignments are the top-k possible repairs.
//!
//! Patterns may be disconnected; instance graphs are enumerated per
//! connected component (the paper treats disconnected sub-patterns
//! independently) and per-component repairs combine additively.
//!
//! ## Integer ids inside, strings at the edges
//!
//! Each component interns its distinct values into a dictionary of `u32`
//! value ids as graphs are enumerated; a graph is a row of value ids in
//! one flat graph-major array. Every distinct value is normalized once,
//! to a normalized-form id, and the inverted lists are keyed by
//! `(slot, norm id)`. Every value also carries the dense rank of its
//! display label among the component's labels (equal labels share a
//! rank), so a candidate repair is the integer key
//! `(cost, [(col << 32) | rank …])`: comparing two keys orders and
//! equates them exactly as comparing their `(col, label)` change lists
//! would. Ranking, dedup, the ambiguity cut-off and diversification all
//! run on those keys; only the ≤ k survivors of a tuple are turned back
//! into `(column, String)` changes.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use katara_exec::{Deadline, Threads};
use katara_kb::{sim, Kb, LiteralId, PropertyId, ResourceId};
use katara_obs::{Counter, Histogram, NoopRecorder, Recorder};
use katara_table::{Table, Value};

use crate::pattern::TablePattern;
use crate::resolve::TableResolution;

/// Repair knobs.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Cap on instance graphs enumerated per pattern component; when hit,
    /// [`RepairIndex::truncated`] reports it (no silent cap).
    pub max_graphs_per_component: usize,
    /// Optional per-column change costs `c_i` (§6.2: confidence-weighted
    /// costs); `None` = unit cost for every column.
    pub column_costs: Option<Vec<f64>>,
    /// Ambiguity cut-off: if more than this many equally-structured
    /// alternatives (same changed-column set, different values) are
    /// candidates for one tuple, none of them has evidential support —
    /// e.g. repairing a *name* from a shared *height* matches dozens of
    /// instance graphs — and the whole group is dropped. This keeps
    /// KATARA's precision high at the price of recall, the paper's
    /// Table 7 signature.
    pub max_alternatives_per_cell_set: usize,
    /// Sink for `repair.*` counters and the per-tuple repair histograms.
    /// Hit from inside `katara-exec` workers, so implementations must be
    /// thread-safe (the live recorder uses sharded atomics).
    pub recorder: Arc<dyn Recorder>,
    /// Cooperative cancellation, checked by every repair worker before it
    /// starts a tuple: [`generate_repairs_resolved`] truncates its output
    /// to the contiguous prefix of rows completed before expiry. Inert by
    /// default; the pipeline injects its run deadline here.
    pub deadline: Deadline,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            max_graphs_per_component: 100_000,
            column_costs: None,
            max_alternatives_per_cell_set: 5,
            recorder: Arc::new(NoopRecorder),
            deadline: Deadline::none(),
        }
    }
}

/// One node's value inside an instance graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NodeVal {
    Res(ResourceId),
    Lit(LiteralId),
}

impl NodeVal {
    /// The display string a repair proposes for this value.
    fn label(self, kb: &Kb) -> &str {
        match self {
            NodeVal::Res(r) => kb.label_of(r),
            NodeVal::Lit(l) => kb.literal_value(l),
        }
    }
}

/// Per-component enumeration, value dictionary and inverted lists.
#[derive(Debug)]
struct ComponentIndex {
    /// Table column of each slot (one slot per pattern node of the
    /// component, in node-index order).
    columns: Vec<usize>,
    /// Instance graphs, graph-major: the value id of graph `g` in slot
    /// `s` is `graphs[g * columns.len() + s]`.
    graphs: Vec<u32>,
    /// Distinct values by value id, in first-enumerated order.
    values: Vec<NodeVal>,
    /// Value id -> normalized-form id.
    value_norm: Vec<u32>,
    /// Value id -> dense rank of its label (equal labels, equal rank).
    value_rank: Vec<u32>,
    /// Rank -> a value id carrying that label.
    rank_value: Vec<u32>,
    /// Normalized form -> norm id.
    norm_ids: HashMap<String, u32>,
    /// Inverted lists, CSR-packed: the graphs carrying norm id `n` in
    /// slot `s` are `postings[offsets[b]..offsets[b + 1]]` with
    /// `b = s * norm_ids.len() + n`, in ascending graph order.
    offsets: Vec<u32>,
    postings: Vec<u32>,
    truncated: bool,
}

/// The repair index for one (pattern, KB) pair.
#[derive(Debug)]
pub struct RepairIndex {
    components: Vec<ComponentIndex>,
    /// Node count of the pattern the index was built for.
    num_nodes: usize,
}

/// One possible repair for a tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct Repair {
    /// Total (weighted) repair cost.
    pub cost: f64,
    /// Proposed cell changes: `(column, new value)`. Cells already
    /// agreeing with the instance graph do not appear.
    pub changes: Vec<(usize, String)>,
}

impl RepairIndex {
    /// Enumerate all instance graphs of `pattern` in `kb` and build the
    /// inverted lists.
    pub fn build(kb: &Kb, pattern: &TablePattern, config: &RepairConfig) -> Self {
        let components = pattern
            .components()
            .into_iter()
            .map(|nodes| build_component(kb, pattern, nodes, config))
            .collect();
        let index = RepairIndex {
            components,
            num_nodes: pattern.nodes().len(),
        };
        config
            .recorder
            .incr_by(Counter::RepairGraphsBuilt, index.num_graphs() as u64);
        config
            .recorder
            .incr_by(Counter::RepairIndexValues, index.num_values() as u64);
        if index.truncated() {
            config.recorder.incr(Counter::RepairIndexTruncated);
        }
        index
    }

    /// True if any component hit the enumeration cap.
    pub fn truncated(&self) -> bool {
        self.components.iter().any(|c| c.truncated)
    }

    /// Total instance graphs enumerated.
    pub fn num_graphs(&self) -> usize {
        self.components.iter().map(ComponentIndex::num_graphs).sum()
    }

    /// Total distinct values interned, summed over components.
    fn num_values(&self) -> usize {
        self.components.iter().map(|c| c.values.len()).sum()
    }
}

impl ComponentIndex {
    fn num_graphs(&self) -> usize {
        self.graphs.len() / self.columns.len()
    }

    /// The value ids of graph `g`, one per slot.
    fn graph(&self, g: u32) -> &[u32] {
        let slots = self.columns.len();
        &self.graphs[g as usize * slots..(g as usize + 1) * slots]
    }

    /// The graphs carrying norm id `norm` in `slot`, ascending.
    fn posting(&self, slot: usize, norm: u32) -> &[u32] {
        let b = slot * self.norm_ids.len() + norm as usize;
        &self.postings[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }
}

/// Enumerate the instance graphs of one pattern component and index them.
fn build_component(
    kb: &Kb,
    pattern: &TablePattern,
    node_indexes: Vec<usize>,
    config: &RepairConfig,
) -> ComponentIndex {
    // Local adjacency: edges whose endpoints live in this component.
    let columns: Vec<usize> = node_indexes
        .iter()
        .map(|&ni| pattern.nodes()[ni].column)
        .collect();
    let slot_of: HashMap<usize, usize> = columns
        .iter()
        .enumerate()
        .map(|(slot, &col)| (col, slot))
        .collect();
    let edges: Vec<Edge> = pattern
        .edges()
        .iter()
        .filter_map(|e| {
            let (s, o) = (slot_of.get(&e.subject)?, slot_of.get(&e.object)?);
            let obj_is_literal = pattern.nodes()[node_indexes[*o]].class.is_none();
            Some((*s, *o, e.property, obj_is_literal))
        })
        .collect();

    // Pick the seed: the typed node with the smallest entity set.
    let seed = node_indexes
        .iter()
        .enumerate()
        .filter_map(|(slot, &ni)| pattern.nodes()[ni].class.map(|c| (slot, kb.class_size(c))))
        .min_by_key(|&(_, size)| size)
        .map(|(slot, _)| slot);

    let mut en = Enumeration {
        kb,
        pattern,
        node_indexes: &node_indexes,
        edges: &edges,
        cap: config.max_graphs_per_component,
        assignment: vec![None; node_indexes.len()],
        resource_ids: vec![u32::MAX; kb.num_entities()],
        literal_ids: HashMap::new(),
        values: Vec::new(),
        graphs: Vec::new(),
        truncated: false,
    };
    if let Some(seed) = seed {
        // invariant: `seed` came from the filter_map above, which only
        // yields slots whose node has `class = Some(_)`.
        let seed_class = pattern.nodes()[node_indexes[seed]]
            .class
            .expect("seed is typed");
        for &r in kb.entities_of_class(seed_class) {
            en.assignment[seed] = Some(NodeVal::Res(r));
            en.expand();
            en.assignment[seed] = None;
            if en.truncated {
                break;
            }
        }
    }
    // A component with no typed node (pure literal) yields no graphs —
    // there is nothing to anchor enumeration on.
    let Enumeration {
        values,
        graphs,
        truncated,
        ..
    } = en;

    // Normalize each distinct value once.
    let mut norm_ids: HashMap<String, u32> = HashMap::new();
    let value_norm: Vec<u32> = values
        .iter()
        .map(|v| {
            let next = norm_ids.len() as u32;
            *norm_ids.entry(sim::normalize(v.label(kb))).or_insert(next)
        })
        .collect();

    // Dense label ranks, from value ids sorted on their borrowed labels.
    // Each id carries its label's first 8 bytes as a big-endian integer
    // (zero-padded), which orders like the label itself wherever two
    // prefixes differ; only equal prefixes compare the full labels.
    let head = |label: &str| {
        let mut bytes = [0u8; 8];
        let n = label.len().min(8);
        bytes[..n].copy_from_slice(&label.as_bytes()[..n]);
        u64::from_be_bytes(bytes)
    };
    let mut by_label: Vec<(u64, u32)> = values
        .iter()
        .enumerate()
        .map(|(v, val)| (head(val.label(kb)), v as u32))
        .collect();
    by_label.sort_unstable_by(|&(ha, a), &(hb, b)| {
        ha.cmp(&hb).then_with(|| {
            values[a as usize]
                .label(kb)
                .cmp(values[b as usize].label(kb))
        })
    });
    let mut value_rank = vec![0u32; values.len()];
    let mut rank_value: Vec<u32> = Vec::new();
    let mut prev: Option<&str> = None;
    for &(_, v) in &by_label {
        let label = values[v as usize].label(kb);
        if prev != Some(label) {
            rank_value.push(v);
            prev = Some(label);
        }
        value_rank[v as usize] = rank_value.len() as u32 - 1;
    }

    // Inverted lists keyed by (slot, norm id), counted then filled.
    let slots = columns.len();
    let norms = norm_ids.len();
    let bucket = |slot: usize, v: u32| slot * norms + value_norm[v as usize] as usize;
    let mut offsets = vec![0u32; slots * norms + 1];
    for g in graphs.chunks_exact(slots) {
        for (slot, &v) in g.iter().enumerate() {
            offsets[bucket(slot, v) + 1] += 1;
        }
    }
    for b in 1..offsets.len() {
        offsets[b] += offsets[b - 1];
    }
    let mut cursor = offsets.clone();
    let mut postings = vec![0u32; graphs.len()];
    for (gi, g) in graphs.chunks_exact(slots).enumerate() {
        for (slot, &v) in g.iter().enumerate() {
            let c = &mut cursor[bucket(slot, v)];
            postings[*c as usize] = gi as u32;
            *c += 1;
        }
    }

    ComponentIndex {
        columns,
        graphs,
        values,
        value_norm,
        value_rank,
        rank_value,
        norm_ids,
        offsets,
        postings,
        truncated,
    }
}

/// A component edge: `(subject slot, object slot, property, object is a
/// literal)`.
type Edge = (usize, usize, PropertyId, bool);

/// Depth-first instance-graph enumeration state for one component.
struct Enumeration<'a> {
    kb: &'a Kb,
    pattern: &'a TablePattern,
    node_indexes: &'a [usize],
    edges: &'a [Edge],
    cap: usize,
    /// The partial assignment, one entry per slot.
    assignment: Vec<Option<NodeVal>>,
    /// Value -> value id (`u32::MAX`: not seen yet); resources by dense
    /// index.
    resource_ids: Vec<u32>,
    literal_ids: HashMap<LiteralId, u32>,
    /// Value id -> value.
    values: Vec<NodeVal>,
    /// Completed graphs, graph-major value ids.
    graphs: Vec<u32>,
    truncated: bool,
}

impl Enumeration<'_> {
    /// Depth-first completion of the partial assignment along component
    /// edges.
    fn expand(&mut self) {
        if self.truncated {
            return;
        }
        let kb = self.kb;
        // Verify edges with both ends assigned; find a frontier edge.
        let mut frontier: Option<(usize, usize, PropertyId, bool, bool)> = None;
        for &(s, o, p, lit) in self.edges {
            match (self.assignment[s], self.assignment[o]) {
                (Some(NodeVal::Res(rs)), Some(NodeVal::Res(ro))) if !kb.holds(rs, p, ro) => {
                    return;
                }
                (Some(NodeVal::Res(rs)), Some(NodeVal::Lit(l)))
                    if !kb.holds_literal(rs, p, kb.literal_value(l)) =>
                {
                    return;
                }
                (Some(_), None) if frontier.is_none() => frontier = Some((s, o, p, lit, true)),
                (None, Some(_)) if frontier.is_none() && !lit => {
                    frontier = Some((s, o, p, lit, false))
                }
                _ => {}
            }
        }

        match frontier {
            // No expandable edge left. Complete if all nodes assigned;
            // unassigned nodes unreachable via edges (can happen only for
            // untyped nodes hanging off unassigned subjects) are dropped.
            None => self.complete(),
            Some((s, o, p, obj_literal, forward)) => {
                if forward {
                    let Some(NodeVal::Res(rs)) = self.assignment[s] else {
                        unreachable!("forward frontier has assigned subject")
                    };
                    if obj_literal {
                        for l in kb.literals_linked(rs, p) {
                            self.assign(o, NodeVal::Lit(l));
                        }
                    } else {
                        let oclass = self.pattern.nodes()[self.node_indexes[o]].class;
                        for r in kb.objects_linked(rs, p) {
                            if oclass.is_none_or(|c| kb.has_type(r, c)) {
                                self.assign(o, NodeVal::Res(r));
                            }
                        }
                    }
                } else {
                    let Some(NodeVal::Res(ro)) = self.assignment[o] else {
                        return; // literal object cannot seed reverse expansion
                    };
                    let sclass = self.pattern.nodes()[self.node_indexes[s]].class;
                    for r in kb.subjects_linking(ro, p) {
                        if sclass.is_none_or(|c| kb.has_type(r, c)) {
                            self.assign(s, NodeVal::Res(r));
                        }
                    }
                }
            }
        }
    }

    /// Try `value` in `slot`, recurse, and undo.
    fn assign(&mut self, slot: usize, value: NodeVal) {
        self.assignment[slot] = Some(value);
        self.expand();
        self.assignment[slot] = None;
    }

    /// Record the current assignment as a graph if every slot is set,
    /// interning its values.
    fn complete(&mut self) {
        if !self.assignment.iter().all(Option::is_some) {
            return;
        }
        // Graph ids, value ids and posting offsets are `u32`, so the u32
        // space caps the graph arena like `cap` does.
        let slots = self.assignment.len();
        let full = self.graphs.len() + slots > u32::MAX as usize;
        if self.graphs.len() / slots >= self.cap || full {
            self.truncated = true;
            return;
        }
        for &v in self.assignment.iter().flatten() {
            let id = match v {
                NodeVal::Res(r) => &mut self.resource_ids[r.index()],
                NodeVal::Lit(l) => self.literal_ids.entry(l).or_insert(u32::MAX),
            };
            if *id == u32::MAX {
                *id = self.values.len() as u32;
                self.values.push(v);
            }
            self.graphs.push(*id);
        }
    }
}

/// Algorithm 4: top-k repairs for one tuple, least cost first.
///
/// Components with no instance graph overlapping the tuple contribute no
/// changes (their columns are left as-is); when *no* component overlaps,
/// the result is empty — KATARA has no evidence to repair from.
pub fn topk_repairs(
    index: &RepairIndex,
    kb: &Kb,
    pattern: &TablePattern,
    row: &[Value],
    k: usize,
    config: &RepairConfig,
) -> Vec<Repair> {
    topk_repairs_resolved(index, kb, pattern, row, k, config, None)
}

/// Snapshot-aware variant of [`topk_repairs`]: when `resolution` is
/// `Some((snapshot, row_idx))`, normalized tuple cells come from the
/// snapshot's string tier instead of being re-normalized here. The
/// string tier never goes stale (it depends only on the table), so this
/// is safe even after KB enrichment has bumped the KB version.
#[allow(clippy::too_many_arguments)] // topk_repairs' signature + the snapshot coordinate
pub fn topk_repairs_resolved(
    index: &RepairIndex,
    kb: &Kb,
    pattern: &TablePattern,
    row: &[Value],
    k: usize,
    config: &RepairConfig,
    resolution: Option<(&TableResolution, usize)>,
) -> Vec<Repair> {
    let query = TupleQuery {
        index,
        kb,
        pattern,
        row,
        k,
        config,
        resolution,
    };
    query.run(Candidates::Overlap, &mut Scratch::default())
}

/// Which instance graphs a tuple is scored against.
#[derive(Debug, Clone, Copy)]
enum Candidates {
    /// Only graphs sharing a normalized value with the tuple (the
    /// inverted-list optimization).
    Overlap,
    /// Every graph (the naive baseline).
    All,
}

/// Candidate repairs as integer keys `(cost, [(col << 32) | rank …])`,
/// their change lists packed back to back in one arena.
#[derive(Debug, Default)]
struct KeyList {
    keys: Vec<Key>,
    changes: Vec<u64>,
}

/// One candidate: its cost and its change list's span in the arena.
#[derive(Debug, Clone, Copy)]
struct Key {
    cost: f64,
    start: u32,
    len: u32,
}

impl Key {
    /// This key's change list in `changes`, its list's arena.
    fn span(self, changes: &[u64]) -> &[u64] {
        &changes[self.start as usize..(self.start + self.len) as usize]
    }
}

/// The changed-column set of a change list (the high halves of its
/// entries), hashed and compared without allocating.
#[derive(Debug, Clone, Copy)]
struct ColumnSet<'a>(&'a [u64]);

impl PartialEq for ColumnSet<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(other.0).all(|(a, b)| a >> 32 == b >> 32)
    }
}

impl Eq for ColumnSet<'_> {}

impl Hash for ColumnSet<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.len());
        for e in self.0 {
            state.write_u64(e >> 32);
        }
    }
}

impl KeyList {
    fn clear(&mut self) {
        self.keys.clear();
        self.changes.clear();
    }

    /// Close a candidate whose changes were pushed since `start`.
    fn push_from(&mut self, cost: f64, start: usize) {
        self.keys.push(Key {
            cost,
            start: start as u32,
            len: (self.changes.len() - start) as u32,
        });
    }

    /// Least cost first, then by change list — the order of
    /// `(cost, Vec<(col, label)>)`.
    fn sort(&mut self) {
        let changes = &self.changes;
        self.keys.sort_unstable_by(|a, b| {
            a.cost
                .total_cmp(&b.cost)
                .then_with(|| a.span(changes).cmp(b.span(changes)))
        });
    }

    /// Drop adjacent candidates proposing the same changes (equal change
    /// lists imply equal costs, so a sorted list holds them adjacently).
    fn dedup(&mut self) {
        let changes = &self.changes;
        self.keys
            .dedup_by(|a, b| a.span(changes) == b.span(changes));
    }

    /// Drop candidate groups with no evidential support: when more than
    /// `max_alternatives` candidates change exactly the same column set
    /// (to different values), the tuple's overlap does not determine
    /// those cells and proposing any of them is a guess. The no-op
    /// candidate (empty change set) is always kept.
    fn drop_unsupported_groups(&mut self, max_alternatives: usize) {
        if max_alternatives == 0 {
            return;
        }
        let changes = &self.changes;
        let cols = |k: &Key| ColumnSet(k.span(changes));
        let mut counts: HashMap<ColumnSet<'_>, usize> = HashMap::new();
        for k in &self.keys {
            *counts.entry(cols(k)).or_insert(0) += 1;
        }
        self.keys
            .retain(|k| k.len == 0 || counts[&cols(k)] <= max_alternatives);
    }

    /// Diversify a sorted candidate list and keep `k`: among
    /// equal-evidence alternatives, a suggestion list serves the user
    /// better when the k slots cover *different* cell sets ("which cell
    /// is wrong?") than when they spell k variants of the same cell.
    /// Candidates whose changed-column set is new come first (still
    /// cost-ordered — the cheapest candidate overall always stays on
    /// top); duplicates of an already-covered column set fill the
    /// remaining slots.
    fn diversify(&mut self, k: usize) {
        let changes = &self.changes;
        let mut seen: HashSet<ColumnSet<'_>> = HashSet::new();
        let (mut primary, rest): (Vec<Key>, Vec<Key>) = self
            .keys
            .iter()
            .partition(|key| seen.insert(ColumnSet(key.span(changes))));
        primary.extend(rest);
        primary.truncate(k);
        self.keys = primary;
    }

    /// Every pairing of `self` with `other`, costs added and change lists
    /// concatenated (self's first), into `out`.
    fn combine_into(&self, other: &KeyList, out: &mut KeyList) {
        out.clear();
        for &base in &self.keys {
            for &cand in &other.keys {
                let start = out.changes.len();
                out.changes.extend_from_slice(base.span(&self.changes));
                out.changes.extend_from_slice(cand.span(&other.changes));
                out.push_from(base.cost + cand.cost, start);
            }
        }
    }
}

/// Per-worker buffers reused across tuples.
#[derive(Debug, Default)]
struct Scratch {
    /// Normalized-form id of the tuple's cell per slot (`None`: null
    /// cell, or a form no graph carries).
    slot_norms: Vec<Option<u32>>,
    /// Candidate graph ids of the current component.
    graphs: Vec<u32>,
    /// The current component's candidates.
    component: KeyList,
    /// The running cross-component combination, and its next step.
    combined: KeyList,
    next: KeyList,
}

/// One tuple's top-k request.
struct TupleQuery<'a> {
    index: &'a RepairIndex,
    kb: &'a Kb,
    pattern: &'a TablePattern,
    row: &'a [Value],
    k: usize,
    config: &'a RepairConfig,
    resolution: Option<(&'a TableResolution, usize)>,
}

impl TupleQuery<'_> {
    /// Score the tuple against `candidates` of every component, rank,
    /// and combine components additively.
    fn run(&self, candidates: Candidates, scratch: &mut Scratch) -> Vec<Repair> {
        let (index, k, config) = (self.index, self.k, self.config);
        if k == 0 {
            return Vec::new();
        }
        assert_eq!(
            self.pattern.nodes().len(),
            index.num_nodes,
            "repair index was built for a different pattern"
        );
        let cost_of = |col: usize| -> f64 {
            config
                .column_costs
                .as_ref()
                .and_then(|c| c.get(col))
                .copied()
                .unwrap_or(1.0)
        };

        // Top-k truncation accounting: set whenever a candidate list was
        // cut to fit `k` (the tuple had more evidence than asked for).
        let mut truncated = false;
        let mut scored = 0u64;
        let mut any = false;
        scratch.combined.clear();
        scratch.combined.push_from(0.0, 0);
        for comp in &index.components {
            scratch.slot_norms.clear();
            scratch
                .slot_norms
                .extend(comp.columns.iter().map(|&col| self.norm_id(comp, col)));
            scratch.graphs.clear();
            match candidates {
                Candidates::Overlap => {
                    for (slot, norm) in scratch.slot_norms.iter().enumerate() {
                        if let Some(norm) = *norm {
                            scratch.graphs.extend_from_slice(comp.posting(slot, norm));
                        }
                    }
                    scratch.graphs.sort_unstable();
                    scratch.graphs.dedup();
                }
                Candidates::All => scratch.graphs.extend(0..comp.num_graphs() as u32),
            }
            if scratch.graphs.is_empty() {
                continue;
            }
            scored += scratch.graphs.len() as u64;

            let list = &mut scratch.component;
            list.clear();
            for &g in &scratch.graphs {
                let start = list.changes.len();
                let mut cost = 0.0;
                for (slot, &v) in comp.graph(g).iter().enumerate() {
                    if scratch.slot_norms[slot] != Some(comp.value_norm[v as usize]) {
                        let col = comp.columns[slot];
                        cost += cost_of(col);
                        list.changes
                            .push(((col as u64) << 32) | u64::from(comp.value_rank[v as usize]));
                    }
                }
                list.push_from(cost, start);
            }
            list.sort();
            list.dedup();
            list.drop_unsupported_groups(config.max_alternatives_per_cell_set);
            truncated |= list.keys.len() > k;
            list.diversify(k);
            if list.keys.is_empty() {
                continue;
            }

            // Combine with the components so far, keeping the cheapest
            // merges with headroom so the final diversification has
            // material.
            any = true;
            scratch.combined.combine_into(list, &mut scratch.next);
            std::mem::swap(&mut scratch.combined, &mut scratch.next);
            let combined = &mut scratch.combined;
            combined.sort();
            truncated |= combined.keys.len() > k.saturating_mul(3);
            combined.keys.truncate(k.saturating_mul(3));
        }
        config
            .recorder
            .incr_by(Counter::RepairCandidatesScored, scored);

        let out = if any {
            truncated |= scratch.combined.keys.len() > k;
            scratch.combined.diversify(k);
            self.materialize(&scratch.combined)
        } else {
            Vec::new()
        };
        record_tuple(config, &out, truncated);
        out
    }

    /// Normalized-form id of the tuple's cell in `col`, if any graph of
    /// `comp` carries that form.
    fn norm_id(&self, comp: &ComponentIndex, col: usize) -> Option<u32> {
        let cell = self.row.get(col).and_then(Value::as_str)?;
        let cached = self.resolution.and_then(|(res, r)| res.cell_norm(col, r));
        match cached {
            Some(norm) => comp.norm_ids.get(norm).copied(),
            None => comp.norm_ids.get(sim::normalize(cell).as_str()).copied(),
        }
    }

    /// Turn the surviving keys back into `(column, label)` changes.
    fn materialize(&self, list: &KeyList) -> Vec<Repair> {
        let index = self.index;
        list.keys
            .iter()
            .map(|&key| Repair {
                cost: key.cost,
                changes: key
                    .span(&list.changes)
                    .iter()
                    .map(|&e| {
                        let col = (e >> 32) as usize;
                        let rank = e as u32 as usize;
                        // invariant: every key entry was built from a slot
                        // of some component whose columns include `col`.
                        let comp = index
                            .components
                            .iter()
                            .find(|c| c.columns.contains(&col))
                            .expect("key column belongs to a component");
                        let value = comp.values[comp.rank_value[rank] as usize];
                        (col, value.label(self.kb).to_string())
                    })
                    .collect(),
            })
            .collect()
    }
}

/// Export one tuple's repair outcome as run metrics. Called per tuple —
/// possibly from inside a worker — so totals are thread-count invariant.
fn record_tuple(config: &RepairConfig, repairs: &[Repair], truncated: bool) {
    let rec = &config.recorder;
    rec.observe(Histogram::RepairRepairsPerTuple, repairs.len() as u64);
    if !repairs.is_empty() {
        rec.incr(Counter::RepairTuplesRepaired);
        for r in repairs {
            rec.observe(Histogram::RepairChangesPerRepair, r.changes.len() as u64);
        }
    }
    if truncated {
        rec.incr(Counter::RepairTopkTruncations);
    }
}

/// Batch [`topk_repairs`] over many erroneous tuples, distributed across
/// `threads` workers (KGClean-style per-tuple batching — each tuple's
/// top-k is independent given the shared [`RepairIndex`]).
///
/// Returns one `(row, repairs)` entry per input row, in input order;
/// rows with no overlapping instance graph yield an empty repair list.
/// Deterministic: the result is byte-identical for every thread count,
/// and with one thread this is exactly the historical sequential walk.
#[allow(clippy::too_many_arguments)] // mirrors topk_repairs' signature + rows/threads
pub fn generate_repairs(
    index: &RepairIndex,
    kb: &Kb,
    pattern: &TablePattern,
    table: &Table,
    rows: &[usize],
    k: usize,
    config: &RepairConfig,
    threads: Threads,
) -> Vec<(usize, Vec<Repair>)> {
    generate_repairs_resolved(index, kb, pattern, table, rows, k, config, threads, None)
}

/// Snapshot-aware variant of [`generate_repairs`]: the shared
/// [`TableResolution`] (built from the same `table`) supplies normalized
/// cells for every worker. See [`topk_repairs_resolved`].
#[allow(clippy::too_many_arguments)] // mirrors generate_repairs' signature + the snapshot
pub fn generate_repairs_resolved(
    index: &RepairIndex,
    kb: &Kb,
    pattern: &TablePattern,
    table: &Table,
    rows: &[usize],
    k: usize,
    config: &RepairConfig,
    threads: Threads,
    resolution: Option<&TableResolution>,
) -> Vec<(usize, Vec<Repair>)> {
    let out =
        katara_exec::par_map_indexed_with(threads, rows.len(), Scratch::default, |scratch, i| {
            // Cooperative cancellation per tuple. Workers that already
            // claimed later rows may still finish them, but the result is
            // truncated below to the contiguous completed prefix, so the
            // returned repairs are always a prefix of the undeadlined run
            // (no torn state, regardless of thread count).
            if config.deadline.expired() {
                return None;
            }
            let row = rows[i];
            let query = TupleQuery {
                index,
                kb,
                pattern,
                row: table.row(row),
                k,
                config,
                resolution: resolution.map(|res| (res, row)),
            };
            Some((row, query.run(Candidates::Overlap, scratch)))
        });
    out.into_iter()
        .take_while(Option::is_some)
        .flatten()
        .collect()
}

/// The naive variant of Algorithm 4 ("compute the distance between `t`
/// and each graph in `G` … unfortunately, this is too slow in practice"):
/// scores *every* instance graph instead of only those sharing a value
/// with the tuple. Kept as the ablation baseline for the inverted-list
/// optimization. Ranking, dedup, the ambiguity cut-off and
/// diversification are the indexed path's own, so the candidate set is
/// the only difference: results match [`topk_repairs`] whenever the
/// extra, zero-overlap graphs cannot enter the top k, and the naive
/// variant may additionally surface zero-overlap (full-rewrite) repairs.
pub fn topk_repairs_naive(
    index: &RepairIndex,
    kb: &Kb,
    pattern: &TablePattern,
    row: &[Value],
    k: usize,
    config: &RepairConfig,
) -> Vec<Repair> {
    let query = TupleQuery {
        index,
        kb,
        pattern,
        row,
        k,
        config,
        resolution: None,
    };
    query.run(Candidates::All, &mut Scratch::default())
}

/// Convenience: apply a repair to a table row (used by examples/eval).
pub fn apply_repair(table: &mut Table, row: usize, repair: &Repair) {
    for (col, val) in &repair.changes {
        table.set_cell(row, *col, Value::Text(val.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{PatternEdge, PatternNode, TablePattern};
    use katara_kb::KbBuilder;

    /// Figure 5's two instance graphs: Pirlo and Maxi Pereira.
    fn setting() -> (Kb, TablePattern) {
        let mut b = KbBuilder::new();
        let person = b.class("person");
        let country = b.class("country");
        let capital = b.class("capital");
        let club = b.class("club");
        let nationality = b.property("nationality");
        let has_capital = b.property("hasCapital");
        let plays_for = b.property("playsFor");

        let pirlo = b.entity("Pirlo", &[person]);
        let maxi = b.entity("Maxi Pereira", &[person]);
        let italy = b.entity("Italy", &[country]);
        let uruguay = b.entity("Uruguay", &[country]);
        let rome = b.entity("Rome", &[capital]);
        let madrid = b.entity("Madrid", &[capital]);
        let spain = b.entity("Spain", &[country]);
        let juve = b.entity("Juve", &[club]);
        let benfica = b.entity("Benfica", &[club]);
        b.fact(pirlo, nationality, italy);
        b.fact(italy, has_capital, rome);
        b.fact(pirlo, plays_for, juve);
        b.fact(maxi, nationality, uruguay);
        let montevideo = b.entity("Montevideo", &[capital]);
        b.fact(uruguay, has_capital, montevideo);
        b.fact(maxi, plays_for, benfica);
        b.fact(spain, has_capital, madrid);
        // A Spanish player so the Madrid-sharing instance graph of
        // Example 13 exists.
        let ramos = b.entity("Ramos", &[person]);
        let real = b.entity("Real", &[club]);
        b.fact(ramos, nationality, spain);
        b.fact(ramos, plays_for, real);
        let kb = b.finalize();

        let person = kb.class_by_name("person").unwrap();
        let country = kb.class_by_name("country").unwrap();
        let capital = kb.class_by_name("capital").unwrap();
        let club = kb.class_by_name("club").unwrap();
        let pattern = TablePattern::new(
            vec![
                PatternNode {
                    column: 0,
                    class: Some(person),
                },
                PatternNode {
                    column: 1,
                    class: Some(country),
                },
                PatternNode {
                    column: 2,
                    class: Some(capital),
                },
                PatternNode {
                    column: 3,
                    class: Some(club),
                },
            ],
            vec![
                PatternEdge {
                    subject: 0,
                    object: 1,
                    property: kb.property_by_name("nationality").unwrap(),
                },
                PatternEdge {
                    subject: 1,
                    object: 2,
                    property: kb.property_by_name("hasCapital").unwrap(),
                },
                PatternEdge {
                    subject: 0,
                    object: 3,
                    property: kb.property_by_name("playsFor").unwrap(),
                },
            ],
            1.0,
        )
        .unwrap();
        (kb, pattern)
    }

    fn row(cells: &[&str]) -> Vec<Value> {
        cells.iter().map(|&c| Value::from_cell(c)).collect()
    }

    #[test]
    fn enumerates_exactly_the_instance_graphs() {
        let (kb, pattern) = setting();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        // Exactly three complete instance graphs: Pirlo's, Maxi's and
        // Ramos's.
        assert_eq!(index.num_graphs(), 3);
        assert!(!index.truncated());
    }

    #[test]
    fn example12_top1_repairs_madrid_to_rome() {
        let (kb, pattern) = setting();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        // t3 of Fig. 1 restricted to covered columns: Madrid is wrong.
        let t3 = row(&["Pirlo", "Italy", "Madrid", "Juve"]);
        let repairs = topk_repairs(&index, &kb, &pattern, &t3, 3, &RepairConfig::default());
        assert!(!repairs.is_empty());
        let best = &repairs[0];
        assert_eq!(best.cost, 1.0);
        assert_eq!(best.changes, vec![(2, "Rome".to_string())]);
    }

    #[test]
    fn costs_match_example13() {
        let (kb, pattern) = setting();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        let t3 = row(&["Pirlo", "Italy", "Madrid", "Juve"]);
        let repairs = topk_repairs(&index, &kb, &pattern, &t3, 10, &RepairConfig::default());
        // Two overlapping graphs: Pirlo's (shares Pirlo/Italy/Juve,
        // cost 1) and Ramos's (shares only Madrid, cost 3). Maxi's graph
        // shares nothing with t3 and never enters the candidate set —
        // that is the inverted-list optimization at work.
        assert_eq!(repairs.len(), 2);
        assert_eq!(repairs[0].cost, 1.0);
        assert_eq!(repairs[1].cost, 3.0);
    }

    #[test]
    fn clean_tuple_has_zero_cost_top1() {
        let (kb, pattern) = setting();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        let t1 = row(&["Pirlo", "Italy", "Rome", "Juve"]);
        let repairs = topk_repairs(&index, &kb, &pattern, &t1, 3, &RepairConfig::default());
        assert_eq!(repairs[0].cost, 0.0);
        assert!(repairs[0].changes.is_empty());
    }

    #[test]
    fn no_overlap_means_no_repairs() {
        let (kb, pattern) = setting();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        let alien = row(&["Zzz", "Qqq", "Www", "Eee"]);
        let repairs = topk_repairs(&index, &kb, &pattern, &alien, 3, &RepairConfig::default());
        assert!(repairs.is_empty());
    }

    #[test]
    fn weighted_costs_change_ranking() {
        let (kb, pattern) = setting();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        // Column 2 (the capital) carries high confidence: changing it is
        // expensive. Unweighted, the Pirlo graph (one change, col 2) wins;
        // weighted, aligning to the Ramos graph — which keeps Madrid and
        // changes the three cheap columns — becomes the top repair.
        let config = RepairConfig {
            column_costs: Some(vec![0.1, 0.1, 5.0, 0.1]),
            ..RepairConfig::default()
        };
        let t3 = row(&["Pirlo", "Italy", "Madrid", "Juve"]);
        let repairs = topk_repairs(&index, &kb, &pattern, &t3, 2, &config);
        // Ramos graph: cols 0,1,3 change → 0.3. Pirlo graph: col 2 → 5.0.
        assert_eq!(repairs[0].changes.len(), 3);
        assert!((repairs[0].cost - 0.3).abs() < 1e-9);
        assert_eq!(repairs[1].changes.len(), 1);
        assert!((repairs[1].cost - 5.0).abs() < 1e-9);
    }

    #[test]
    fn truncation_is_reported() {
        let (kb, pattern) = setting();
        let config = RepairConfig {
            max_graphs_per_component: 1,
            ..RepairConfig::default()
        };
        let index = RepairIndex::build(&kb, &pattern, &config);
        assert!(index.truncated());
        assert_eq!(index.num_graphs(), 1);
    }

    #[test]
    fn disconnected_components_combine() {
        // Pattern: (person) -nationality-> (country) plus a disconnected
        // (capital) node.
        let (kb, _) = setting();
        let person = kb.class_by_name("person").unwrap();
        let country = kb.class_by_name("country").unwrap();
        let capital = kb.class_by_name("capital").unwrap();
        let pattern = TablePattern::new(
            vec![
                PatternNode {
                    column: 0,
                    class: Some(person),
                },
                PatternNode {
                    column: 1,
                    class: Some(country),
                },
                PatternNode {
                    column: 2,
                    class: Some(capital),
                },
            ],
            vec![PatternEdge {
                subject: 0,
                object: 1,
                property: kb.property_by_name("nationality").unwrap(),
            }],
            1.0,
        )
        .unwrap();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        // Component 1: 3 person-country graphs. Component 2: 3 capitals.
        assert_eq!(index.num_graphs(), 3 + 3);
        let bad = row(&["Pirlo", "Uruguay", "Rome", ""]);
        let repairs = topk_repairs(&index, &kb, &pattern, &bad, 1, &RepairConfig::default());
        // Best total cost 1: one cell of component 1 changes (either
        // Uruguay→Italy or Pirlo→Maxi Pereira — a genuine tie) while the
        // capital component keeps Rome at zero cost.
        assert_eq!(repairs[0].cost, 1.0);
        assert_eq!(repairs[0].changes.len(), 1);
    }

    #[test]
    fn naive_and_indexed_agree_on_overlapping_tuples() {
        let (kb, pattern) = setting();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        let t3 = row(&["Pirlo", "Italy", "Madrid", "Juve"]);
        let fast = topk_repairs(&index, &kb, &pattern, &t3, 2, &RepairConfig::default());
        let naive = topk_repairs_naive(&index, &kb, &pattern, &t3, 2, &RepairConfig::default());
        assert_eq!(fast[0], naive[0], "top-1 must agree");
        // Naive also works (by definition) on a zero-overlap tuple, where
        // the indexed version abstains.
        let alien = row(&["Zzz", "Qqq", "Www", "Eee"]);
        assert!(
            topk_repairs(&index, &kb, &pattern, &alien, 2, &RepairConfig::default()).is_empty()
        );
        let all = topk_repairs_naive(&index, &kb, &pattern, &alien, 2, &RepairConfig::default());
        assert!(!all.is_empty());
        assert_eq!(all[0].changes.len(), 4, "full rewrite");
    }

    #[test]
    fn work_counters_are_thread_count_invariant() {
        let (kb, pattern) = setting();
        let mut t = Table::with_opaque_columns("t", 4);
        t.push_text_row(&["Pirlo", "Italy", "Madrid", "Juve"]);
        t.push_text_row(&["Zzz", "Qqq", "Www", "Eee"]);
        t.push_text_row(&["Ramos", "Spain", "Rome", "Benfica"]);
        let rows: Vec<usize> = (0..t.num_rows()).collect();
        let counts = |threads: usize| {
            let rec = Arc::new(katara_obs::RunRecorder::new());
            let config = RepairConfig {
                recorder: rec.clone(),
                ..RepairConfig::default()
            };
            let index = RepairIndex::build(&kb, &pattern, &config);
            let threads = Threads::fixed(threads);
            generate_repairs(&index, &kb, &pattern, &t, &rows, 3, &config, threads);
            (
                rec.counter_total(Counter::RepairIndexValues),
                rec.counter_total(Counter::RepairCandidatesScored),
            )
        };
        // 12 distinct values across the three graphs. Scored: t3 overlaps
        // Pirlo's and Ramos's graphs, the alien row nothing, and the last
        // row all three graphs (Ramos/Spain, Rome, Benfica).
        assert_eq!(counts(1), (12, 2 + 3));
        for threads in [2, 8] {
            assert_eq!(counts(threads), counts(1), "{threads} threads");
        }
    }

    #[test]
    fn apply_repair_mutates_table() {
        let (kb, pattern) = setting();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        let mut t = Table::with_opaque_columns("t", 4);
        t.push_text_row(&["Pirlo", "Italy", "Madrid", "Juve"]);
        let repairs = topk_repairs(&index, &kb, &pattern, t.row(0), 1, &RepairConfig::default());
        apply_repair(&mut t, 0, &repairs[0]);
        assert_eq!(t.cell(0, 2).as_str(), Some("Rome"));
    }
}
