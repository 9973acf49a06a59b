//! The shared KB query snapshot: one read-only resolution of a table's
//! cell values against a KB, built once per `(table, KB)` pair and shared
//! immutably by every pipeline stage and every `katara-exec` worker.
//!
//! Every stage of KATARA — candidate discovery (§4.1), pattern matching
//! (§3.2), annotation (§6.1), repair (§6.2) — reduces to the same KB
//! primitives over cell *strings*: `candidate_resources`, `Q_types`,
//! `Q_rels`. A table with `n` cells typically has far fewer *distinct
//! normalized* values, so [`TableResolution`] deduplicates each column's
//! values, resolves each exactly once, and stores three read-only tiers:
//!
//! 1. **string tier** — per-cell value ids and normalized spellings.
//!    Pure string work, valid forever;
//! 2. **KB tier** — per-value candidate resources and `Q_types` closures;
//! 3. **pair-relation memo** — `(value, value) → Q_rels^1/Q_rels^2`
//!    results for the column-pair combinations that actually co-occur in
//!    the scanned rows, the hot path feeding the rank-join.
//!
//! ### Staleness (one maintenance path)
//!
//! Annotation *enriches* the KB mid-run (§6.1) and later lookups must see
//! the enriched facts. The snapshot follows the KB in exactly one way: the
//! writer patches it with [`TableResolution::apply_enrichment`], which
//! re-resolves only the values and pairs the written ops can affect.
//! Annotation patches the run's snapshot right after every enrichment
//! write, `DeltaSession` patches its long-lived one for externally
//! journaled deltas. The snapshot records the KB version ([`Kb::version`])
//! it reflects; the tier accessors only `debug_assert!` that it is still
//! current and never query the live KB. Entry points handed a snapshot
//! check that version once and rebuild a stale one. The string tier does
//! not involve the KB at all. Memory is bounded by the distinct-value
//! count, not the cell count — see `DESIGN.md` §5e.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use katara_kb::sim;
use katara_kb::{ClassId, DeltaOp, EnrichmentDelta, Kb, ProbePlan, PropertyId, ResourceId};
use katara_obs::{Counter, Gauge, NoopRecorder, Recorder};
use katara_table::Table;

/// How the pipeline resolves cells against the KB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResolveMode {
    /// Build one [`TableResolution`] per `(table, KB)` pair up front and
    /// share it across discovery, annotation, and repair.
    #[default]
    Snapshot,
    /// Query the KB directly from every stage. Not a user-facing option:
    /// it is the reference the resolve-equivalence tests compare the
    /// snapshot path against, byte for byte.
    Direct,
}

/// One distinct normalized cell value, resolved once.
#[derive(Debug, Clone)]
struct ResolvedValue {
    /// `sim::normalize` of every raw spelling mapping to this value.
    norm: String,
    /// `Kb::candidate_resources` of the value (KB tier).
    candidates: Vec<(ResourceId, f64)>,
    /// `Q_types`: types (with superclass closure) of the candidates.
    types: Vec<ClassId>,
}

/// `Q_rels` results for one ordered pair of distinct values.
#[derive(Debug, Clone, Default)]
pub struct PairRels {
    /// `Q_rels^1`: relationships with a resource object.
    pub res: Vec<PropertyId>,
    /// `Q_rels^2`: relationships with a literal object.
    pub lit: Vec<PropertyId>,
}

/// A resolution of one table against one KB. See the module docs for the
/// tier structure and how it stays current.
#[derive(Debug, Clone)]
pub struct TableResolution {
    /// The `Kb::version` the KB tiers reflect (at build, or after the
    /// last [`Self::apply_enrichment`]).
    kb_version: u64,
    /// `cells[col][row]` → distinct-value id (None for null cells).
    cells: Vec<Vec<Option<u32>>>,
    values: Vec<ResolvedValue>,
    /// Normalized spelling → distinct-value id, persisted so streaming
    /// edits resolve only genuinely new values.
    by_norm: HashMap<String, u32>,
    /// Per-value occurrence count across all non-null cells. A value whose
    /// refcount drops to zero is evicted (tombstoned — ids are never
    /// reused, so stale pair-memo keys stay unreachable rather than
    /// aliasing).
    refcounts: Vec<usize>,
    /// Resource → the live value ids whose candidate list contains it,
    /// kept up to date by build, intern, release and re-resolve, so an
    /// enrichment patch finds the values a structural op touches without
    /// scanning every value.
    by_resource: HashMap<ResourceId, Vec<u32>>,
    /// `(value_a, value_b)` → prebuilt `Q_rels` results, covering every
    /// ordered column pair over the first `pair_rows` rows.
    pair_rels: HashMap<(u32, u32), PairRels>,
    /// How many leading rows the pair memo covers.
    pair_rows: usize,
    non_null_cells: usize,
    /// Probe-plan tallies of the memoized pair computations; the
    /// build-time ones are emitted as `kb.plan_*` counters when a
    /// recorder is attached.
    plan_type_first: u64,
    plan_rel_first: u64,
    /// Sink for per-tier lookup/hit/miss counters. Defaults to
    /// [`NoopRecorder`]; attach a live one with [`Self::with_recorder`].
    recorder: Arc<dyn Recorder>,
}

impl TableResolution {
    /// Resolve `table` against `kb`. All rows are resolved for the value
    /// tiers (annotation and repair walk the whole table); the pair memo
    /// covers the first `pair_rows` rows — pass the discovery scan cap
    /// ([`crate::candidates::CandidateConfig::max_rows`]), which is the
    /// only consumer of pair relations.
    pub fn build(table: &Table, kb: &Kb, pair_rows: usize) -> Self {
        let (nrows, ncols) = (table.num_rows(), table.num_columns());
        let mut res = TableResolution {
            kb_version: kb.version(),
            cells: vec![vec![None; nrows]; ncols],
            values: Vec::new(),
            by_norm: HashMap::new(),
            refcounts: Vec::new(),
            by_resource: HashMap::new(),
            pair_rels: HashMap::new(),
            pair_rows: nrows.min(pair_rows),
            non_null_cells: 0,
            plan_type_first: 0,
            plan_rel_first: 0,
            recorder: Arc::new(NoopRecorder),
        };
        // Raw spelling → id, so a repeated spelling is normalized once.
        let mut by_raw: HashMap<&str, u32> = HashMap::new();
        for c in 0..ncols {
            for r in 0..nrows {
                let Some(cell) = table.cell(r, c).as_str() else {
                    continue;
                };
                let id = *by_raw.entry(cell).or_insert_with(|| res.intern(kb, cell).0);
                res.refcounts[id as usize] += 1;
                res.non_null_cells += 1;
                res.cells[c][r] = Some(id);
            }
        }
        for i in 0..ncols {
            for j in (0..ncols).filter(|&j| j != i) {
                for r in 0..res.pair_rows {
                    if let (Some(a), Some(b)) = (res.cells[i][r], res.cells[j][r]) {
                        res.ensure_pair(kb, a, b);
                    }
                }
            }
        }
        res
    }

    /// Attach a recorder: subsequent tier accesses emit
    /// `resolve.{candidates,types,pair}_{lookups,hit,miss}`
    /// counters, and the snapshot's shape is published as gauges.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        recorder.set_gauge(Gauge::ResolveDistinctValues, self.values.len() as u64);
        recorder.set_gauge(Gauge::ResolveNonNullCells, self.non_null_cells as u64);
        recorder.incr_by(Counter::KbPlanTypeFirst, self.plan_type_first);
        recorder.incr_by(Counter::KbPlanRelFirst, self.plan_rel_first);
        self.recorder = recorder;
        self
    }

    /// Borrow this snapshot of `table` when it is current for `kb`;
    /// otherwise rebuild it against `kb` (same pair-row cap and recorder)
    /// — the one staleness check an injected snapshot gets.
    pub(crate) fn current_for(&self, table: &Table, kb: &Kb) -> Cow<'_, Self> {
        if self.is_current(kb) {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(Self::build(table, kb, self.pair_rows).with_recorder(self.recorder.clone()))
        }
    }

    /// Record a probe-plan decision on the recorder.
    fn record_plan(&self, plan: ProbePlan) {
        self.recorder.incr(match plan {
            ProbePlan::TypeFirst => Counter::KbPlanTypeFirst,
            ProbePlan::RelFirst => Counter::KbPlanRelFirst,
        });
    }

    /// True while the KB tiers reflect `kb`: no enrichment write has
    /// landed since the build or the last patch.
    pub fn is_current(&self, kb: &Kb) -> bool {
        kb.version() == self.kb_version
    }

    /// Number of distinct normalized values across the table.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Number of non-null cells resolved.
    pub fn non_null_cells(&self) -> usize {
        self.non_null_cells
    }

    /// Distinct-value ratio: `num_values / non_null_cells` (1.0 for an
    /// empty table). Low ratios are where the snapshot pays off most.
    pub fn distinct_ratio(&self) -> f64 {
        if self.non_null_cells == 0 {
            1.0
        } else {
            self.values.len() as f64 / self.non_null_cells as f64
        }
    }

    /// How many leading rows the pair memo covers.
    pub fn pair_rows(&self) -> usize {
        self.pair_rows
    }

    /// The distinct-value id of cell `(col, row)`, `None` when null.
    pub fn value_id(&self, col: usize, row: usize) -> Option<u32> {
        self.cells.get(col)?.get(row).copied().flatten()
    }

    /// String tier: the normalized spelling of cell `(col, row)`. Never
    /// stale — normalization does not involve the KB.
    pub fn cell_norm(&self, col: usize, row: usize) -> Option<&str> {
        self.value_id(col, row)
            .map(|id| self.values[id as usize].norm.as_str())
    }

    /// The normalized spelling of a distinct-value id.
    pub fn norm_of(&self, id: u32) -> &str {
        &self.values[id as usize].norm
    }

    /// KB tier: `Kb::candidate_resources` of cell `(col, row)`; `None`
    /// for null cells. `kb` must be the KB the snapshot is current for.
    pub fn candidates(&self, kb: &Kb, col: usize, row: usize) -> Option<&[(ResourceId, f64)]> {
        let id = self.value_id(col, row)?;
        Some(self.candidates_of(kb, id))
    }

    /// [`Self::candidates`] by distinct-value id.
    pub fn candidates_of(&self, kb: &Kb, id: u32) -> &[(ResourceId, f64)] {
        debug_assert!(self.is_current(kb), "candidates_of on a stale snapshot");
        self.recorder.incr(Counter::ResolveCandidatesLookups);
        self.recorder.incr(Counter::ResolveCandidatesHit);
        &self.values[id as usize].candidates
    }

    /// KB tier: `Q_types` of cell `(col, row)`; `None` for null cells.
    pub fn types(&self, kb: &Kb, col: usize, row: usize) -> Option<&[ClassId]> {
        let id = self.value_id(col, row)?;
        Some(self.types_of(kb, id))
    }

    /// [`Self::types`] by distinct-value id.
    pub fn types_of(&self, kb: &Kb, id: u32) -> &[ClassId] {
        debug_assert!(self.is_current(kb), "types_of on a stale snapshot");
        self.recorder.incr(Counter::ResolveTypesLookups);
        self.recorder.incr(Counter::ResolveTypesHit);
        &self.values[id as usize].types
    }

    /// Pair memo: `Q_rels^1`/`Q_rels^2` between two distinct-value ids.
    /// Served from the prebuilt memo when covered; computed from the
    /// cached candidate lists (identically) for combinations beyond
    /// `pair_rows`.
    pub fn pair_relations(&self, kb: &Kb, a: u32, b: u32) -> Cow<'_, PairRels> {
        debug_assert!(self.is_current(kb), "pair_relations on a stale snapshot");
        self.recorder.incr(Counter::ResolvePairLookups);
        if let Some(cached) = self.pair_rels.get(&(a, b)) {
            self.recorder.incr(Counter::ResolvePairHit);
            return Cow::Borrowed(cached);
        }
        self.recorder.incr(Counter::ResolvePairMiss);
        let (rels, plan) = self.compute_pair(kb, a, b);
        self.record_plan(plan);
        Cow::Owned(rels)
    }

    /// `Q_rels` between two values from their cached candidate lists.
    fn compute_pair(&self, kb: &Kb, a: u32, b: u32) -> (PairRels, ProbePlan) {
        let va = &self.values[a as usize];
        let vb = &self.values[b as usize];
        let (res, plan) = kb.relations_for_candidates_planned(&va.candidates, &vb.candidates);
        let lit = kb.literal_relations_for_candidates(&va.candidates, &vb.norm);
        (PairRels { res, lit }, plan)
    }

    // ---- Maintenance -------------------------------------------------------
    //
    // Annotation patches the run's snapshot after every enrichment write,
    // and the incremental engine ([`crate::delta`]) keeps one resolution
    // alive across runs instead of rebuilding per clean. Every mutator
    // below requires the snapshot to be *current* (`is_current(kb)`), so
    // the cached tiers it extends are never stale.

    /// Swap in a recorder without republishing build-time gauges — delta
    /// runs re-attach their session recorder to a long-lived snapshot.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// Occurrence count of a distinct-value id (0 for evicted ids).
    pub fn refcount(&self, id: u32) -> usize {
        self.refcounts[id as usize]
    }

    /// Resolve `cell` to a distinct-value id, reusing the persisted
    /// norm→id map and resolving (one `candidate_resources` + `Q_types`
    /// probe) only when the normalized value is genuinely new. Returns the
    /// id and whether a new value was resolved. Does not touch refcounts.
    fn intern(&mut self, kb: &Kb, cell: &str) -> (u32, bool) {
        debug_assert!(self.is_current(kb), "intern on a stale snapshot");
        let norm = sim::normalize(cell);
        if let Some(&id) = self.by_norm.get(&norm) {
            return (id, false);
        }
        let candidates = kb.candidate_resources_normalized(&norm);
        let types = kb.types_for_candidates(&candidates);
        let id = u32::try_from(self.values.len()).expect("distinct-value space exhausted");
        link(&mut self.by_resource, id, &candidates);
        self.values.push(ResolvedValue {
            norm: norm.clone(),
            candidates,
            types,
        });
        self.refcounts.push(0);
        self.by_norm.insert(norm, id);
        (id, true)
    }

    /// Drop one reference to `id`, evicting the value when the count hits
    /// zero: its norm leaves the lookup map, its cached tiers are cleared,
    /// and every pair-memo entry naming it is reclaimed. Ids are never
    /// reused.
    fn release(&mut self, id: u32) {
        let rc = &mut self.refcounts[id as usize];
        debug_assert!(*rc > 0, "double release of value {id}");
        *rc -= 1;
        if *rc == 0 {
            let v = &mut self.values[id as usize];
            unlink(&mut self.by_resource, id, &v.candidates);
            self.by_norm.remove(&v.norm);
            v.norm = String::new();
            v.candidates = Vec::new();
            v.types = Vec::new();
            self.pair_rels.retain(|&(a, b), _| a != id && b != id);
            self.recorder.incr(Counter::ResolveValuesEvicted);
        }
    }

    /// Overwrite cell `(col, row)`, returning `(old_id, new_id)`. New
    /// values are resolved, dead ones evicted; `values_resolved` is bumped
    /// in the returned flag position via [`CellPatch`].
    pub fn set_cell(&mut self, kb: &Kb, col: usize, row: usize, cell: Option<&str>) -> CellPatch {
        let old = self.cells[col][row];
        let (new, resolved) = match cell {
            Some(s) => {
                let (id, fresh) = self.intern(kb, s);
                (Some(id), fresh)
            }
            None => (None, false),
        };
        self.cells[col][row] = new;
        if let Some(n) = new {
            self.refcounts[n as usize] += 1;
        }
        if let Some(o) = old {
            self.release(o);
        }
        match (old.is_some(), new.is_some()) {
            (false, true) => self.non_null_cells += 1,
            (true, false) => self.non_null_cells -= 1,
            _ => {}
        }
        CellPatch { old, new, resolved }
    }

    /// Remove row `row` from every column, releasing its values. Mirrors
    /// [`katara_table::Table::remove_row`]; rows after it shift up by one.
    pub fn remove_row(&mut self, row: usize) {
        let mut released: Vec<u32> = Vec::new();
        for col in &mut self.cells {
            if let Some(id) = col.remove(row) {
                self.non_null_cells -= 1;
                released.push(id);
            }
        }
        for id in released {
            self.release(id);
        }
    }

    /// Append a row of cells (one per column), resolving new values.
    /// Returns how many genuinely new distinct values were resolved.
    pub fn push_row(&mut self, kb: &Kb, cells: &[Option<&str>]) -> usize {
        assert_eq!(cells.len(), self.cells.len(), "row arity mismatch");
        let mut resolved = 0usize;
        for (c, cell) in cells.iter().enumerate() {
            let slot = match cell {
                Some(s) => {
                    let (id, fresh) = self.intern(kb, s);
                    resolved += usize::from(fresh);
                    self.refcounts[id as usize] += 1;
                    self.non_null_cells += 1;
                    Some(id)
                }
                None => None,
            };
            self.cells[c].push(slot);
        }
        resolved
    }

    /// Memoize the `Q_rels` results for `(a, b)` if absent, so later
    /// re-folds hit the pair memo instead of recomputing per fold.
    pub fn ensure_pair(&mut self, kb: &Kb, a: u32, b: u32) {
        debug_assert!(self.is_current(kb), "ensure_pair on a stale snapshot");
        if !self.pair_rels.contains_key(&(a, b)) {
            let (rels, plan) = self.compute_pair(kb, a, b);
            match plan {
                ProbePlan::TypeFirst => self.plan_type_first += 1,
                ProbePlan::RelFirst => self.plan_rel_first += 1,
            }
            self.record_plan(plan);
            self.pair_rels.insert((a, b), rels);
        }
    }

    /// Recompute one value's KB tiers from the live KB.
    fn re_resolve(&mut self, kb: &Kb, id: u32) {
        let v = &mut self.values[id as usize];
        unlink(&mut self.by_resource, id, &v.candidates);
        v.candidates = kb.candidate_resources_normalized(&v.norm);
        v.types = kb.types_for_candidates(&v.candidates);
        link(&mut self.by_resource, id, &v.candidates);
    }

    /// Patch the cached KB tiers for one applied [`EnrichmentDelta`],
    /// re-resolving only the values the delta can have affected.
    ///
    /// `kb` must already contain the delta. When the snapshot missed
    /// several journaled deltas, apply each in journal order; the last
    /// call leaves the snapshot current (`kb_version` is ratcheted to
    /// `kb.version()` on every call, so skipping one is unsound —
    /// that is the caller's contract, enforced by the serve/CLI layers
    /// which replay the journal tail).
    ///
    /// The invalidation predicate is a *sound over-approximation*:
    ///
    /// * `Entity { label, .. }` re-resolves values whose norm equals the
    ///   new label's norm (exact-match short-circuit may flip) and values
    ///   with no exact match whose similarity to the label clears the
    ///   KB's threshold (the fuzzy candidate set grows). The label index's
    ///   fuzzy lookup returns *exactly* the labels whose `sim::similarity`
    ///   to the value reaches the threshold, with the same scores, so a
    ///   value's candidate set gains the new label iff this predicate
    ///   holds: no affected value escapes.
    /// * `Type { resource, .. }` re-resolves values whose candidate lists
    ///   contain the resource (their `Q_types` closure may grow).
    /// * `Fact`/`LiteralFact` recompute the memoized pair entries whose
    ///   subject/object candidate sets contain the fact's endpoints.
    ///
    /// Values re-resolved by the label/type phases also invalidate every
    /// memoized pair naming them (those entries derive from the old
    /// candidate lists).
    pub fn apply_enrichment(&mut self, kb: &Kb, delta: &EnrichmentDelta) -> EnrichmentPatch {
        self.apply_ops(kb, &delta.ops)
    }

    /// [`Self::apply_enrichment`] over a slice of ops — annotation patches
    /// with the ops its running delta capture recorded since the previous
    /// patch. The work is bounded by what the ops can affect: an empty
    /// slice costs nothing, structural ops go through the resource→values
    /// index, and only label ops scan the values.
    pub(crate) fn apply_ops(&mut self, kb: &Kb, ops: &[DeltaOp]) -> EnrichmentPatch {
        // `kb` already holds the ops; the tiers are re-derived from it below.
        self.kb_version = kb.version();
        // Phase 1: new labels re-aim value→resource matching.
        let threshold = kb.sim_threshold();
        let mut dirty: HashSet<u32> = HashSet::new();
        for op in ops {
            let DeltaOp::Entity { label, .. } = op else {
                continue;
            };
            let nl = sim::normalize(label);
            for (id, v) in self.values.iter().enumerate() {
                let id = id as u32;
                if self.refcounts[id as usize] == 0 || dirty.contains(&id) {
                    continue;
                }
                if v.norm == nl
                    || (kb.resources_by_label(&v.norm).is_empty()
                        && sim::similarity(&v.norm, &nl) >= threshold)
                {
                    dirty.insert(id);
                }
            }
        }
        for &id in &dirty {
            self.re_resolve(kb, id);
        }

        // Phase 2: with label-phase candidates fresh, walk the structural
        // ops through the resource→values index.
        let values_of = |name: &str| {
            kb.resolve_resource_name(name)
                .and_then(|r| self.by_resource.get(&r))
                .map_or(&[][..], Vec::as_slice)
        };
        let mut type_dirty: HashSet<u32> = HashSet::new();
        let mut dirty_pairs: HashSet<(u32, u32)> = HashSet::new();
        for op in ops {
            match op {
                DeltaOp::Entity { .. } => {}
                DeltaOp::Type { resource, .. } => {
                    type_dirty.extend(values_of(resource).iter().copied());
                }
                DeltaOp::Fact {
                    subject, object, ..
                } => {
                    let objects = values_of(object);
                    for &a in values_of(subject) {
                        dirty_pairs.extend(objects.iter().map(|&b| (a, b)));
                    }
                }
                DeltaOp::LiteralFact {
                    subject, literal, ..
                } => {
                    if let Some(&b) = self.by_norm.get(&sim::normalize(literal)) {
                        dirty_pairs.extend(values_of(subject).iter().map(|&a| (a, b)));
                    }
                }
                // `DeltaOp` is non_exhaustive; an op kind this build does
                // not know cannot have been journaled by it either.
                _ => {}
            }
        }
        for id in type_dirty {
            if dirty.insert(id) {
                self.re_resolve(kb, id);
            }
        }

        // Phase 3: pair entries derived from stale candidates.
        if !dirty.is_empty() {
            dirty_pairs.extend(
                self.pair_rels
                    .keys()
                    .filter(|(a, b)| dirty.contains(a) || dirty.contains(b)),
            );
        }
        let mut pairs_repatched = 0usize;
        for (a, b) in dirty_pairs {
            // Uncovered pairs are computed on demand, never memoized here.
            if self.pair_rels.remove(&(a, b)).is_some() {
                self.ensure_pair(kb, a, b);
                pairs_repatched += 1;
            }
        }

        EnrichmentPatch {
            values_repatched: dirty.len(),
            pairs_repatched,
        }
    }
}

/// Index value `id` under each of its candidate resources.
fn link(
    by_resource: &mut HashMap<ResourceId, Vec<u32>>,
    id: u32,
    candidates: &[(ResourceId, f64)],
) {
    for &(r, _) in candidates {
        by_resource.entry(r).or_default().push(id);
    }
}

/// Undo [`link`] for value `id` and its (old) candidate list.
fn unlink(
    by_resource: &mut HashMap<ResourceId, Vec<u32>>,
    id: u32,
    candidates: &[(ResourceId, f64)],
) {
    for &(r, _) in candidates {
        if let Some(ids) = by_resource.get_mut(&r) {
            ids.retain(|&x| x != id);
            if ids.is_empty() {
                by_resource.remove(&r);
            }
        }
    }
}

/// What one cell overwrite changed in the resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellPatch {
    /// The cell's previous distinct-value id (`None` if it was null).
    pub old: Option<u32>,
    /// The cell's new distinct-value id (`None` if now null).
    pub new: Option<u32>,
    /// True when the new value was genuinely new to the table and had to
    /// be resolved against the KB.
    pub resolved: bool,
}

/// Work accounting from [`TableResolution::apply_enrichment`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnrichmentPatch {
    /// Values whose candidate/type tiers were re-resolved.
    pub values_repatched: usize,
    /// Memoized pair entries recomputed.
    pub pairs_repatched: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use katara_kb::KbBuilder;

    fn kb_and_table() -> (Kb, Table) {
        let mut b = KbBuilder::new();
        let country = b.class("country");
        let capital = b.class("capital");
        let person = b.class("person");
        let has_capital = b.property("hasCapital");
        let height = b.property("hasHeight");
        let italy = b.entity("Italy", &[country]);
        let rome = b.entity("Rome", &[capital]);
        let rossi = b.entity("Rossi", &[person]);
        b.fact(italy, has_capital, rome);
        b.literal_fact(rossi, height, "1.78");
        let kb = b.finalize();

        let mut t = Table::with_opaque_columns("t", 3);
        t.push_text_row(&["Italy", "Rome", ""]);
        t.push_text_row(&["  ITALY ", "Rome", "1.78"]);
        t.push_text_row(&["Rossi", "", "1.78"]);
        (kb, t)
    }

    #[test]
    fn dedup_by_normalized_value() {
        let (kb, t) = kb_and_table();
        let res = TableResolution::build(&t, &kb, usize::MAX);
        // "Italy" and "  ITALY " collapse; "" is null; distinct values:
        // italy, rome, 1.78, rossi.
        assert_eq!(res.num_values(), 4);
        assert_eq!(res.non_null_cells(), 7);
        assert_eq!(res.value_id(0, 0), res.value_id(0, 1));
        assert_eq!(res.value_id(2, 0), None);
        assert_eq!(res.cell_norm(0, 1), Some("italy"));
        assert!((res.distinct_ratio() - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn cached_tiers_match_live_queries() {
        let (kb, t) = kb_and_table();
        let res = TableResolution::build(&t, &kb, usize::MAX);
        for c in 0..t.num_columns() {
            for r in 0..t.num_rows() {
                let cell = t.cell(r, c).as_str();
                let cands = res.candidates(&kb, c, r);
                let types = res.types(&kb, c, r);
                match cell {
                    None => {
                        assert!(cands.is_none());
                        assert!(types.is_none());
                    }
                    Some(cell) => {
                        assert_eq!(cands.unwrap(), kb.candidate_resources(cell));
                        assert_eq!(types.unwrap(), kb.types_of_value(cell));
                    }
                }
            }
        }
        // Pair memo matches Q_rels on every co-occurring pair.
        for r in 0..t.num_rows() {
            for i in 0..t.num_columns() {
                for j in 0..t.num_columns() {
                    if i == j {
                        continue;
                    }
                    let (Some(a), Some(b)) = (res.value_id(i, r), res.value_id(j, r)) else {
                        continue;
                    };
                    let (sa, sb) = (
                        t.cell(r, i).as_str().unwrap(),
                        t.cell(r, j).as_str().unwrap(),
                    );
                    let pr = res.pair_relations(&kb, a, b);
                    assert_eq!(pr.res, kb.relations_between_values(sa, sb));
                    assert_eq!(pr.lit, kb.relations_to_literal(sa, sb));
                }
            }
        }
    }

    #[test]
    fn pair_memo_respects_row_cap() {
        let (kb, t) = kb_and_table();
        let res = TableResolution::build(&t, &kb, 1);
        assert_eq!(res.pair_rows(), 1);
        // Row 2's (Rossi, 1.78) pair is uncovered but still computed
        // correctly on demand.
        let (a, b) = (res.value_id(0, 2).unwrap(), res.value_id(2, 2).unwrap());
        let pr = res.pair_relations(&kb, a, b);
        assert_eq!(pr.lit, kb.relations_to_literal("Rossi", "1.78"));
    }

    #[test]
    fn empty_table() {
        let (kb, _) = kb_and_table();
        let t = Table::with_opaque_columns("empty", 2);
        let res = TableResolution::build(&t, &kb, 100);
        assert_eq!(res.num_values(), 0);
        assert_eq!(res.distinct_ratio(), 1.0);
        assert_eq!(res.value_id(0, 0), None);
    }

    /// Assert every KB tier of an edited resolution matches a fresh build
    /// over the edited table.
    fn assert_tiers_match(edited: &TableResolution, table: &Table, kb: &Kb) {
        let fresh = TableResolution::build(table, kb, usize::MAX);
        assert_eq!(edited.non_null_cells(), fresh.non_null_cells());
        for c in 0..table.num_columns() {
            for r in 0..table.num_rows() {
                assert_eq!(edited.cell_norm(c, r), fresh.cell_norm(c, r), "({c},{r})");
                let (Some(a), Some(b)) = (edited.value_id(c, r), fresh.value_id(c, r)) else {
                    assert_eq!(
                        edited.value_id(c, r).is_some(),
                        fresh.value_id(c, r).is_some()
                    );
                    continue;
                };
                assert_eq!(edited.candidates_of(kb, a), fresh.candidates_of(kb, b));
                assert_eq!(edited.types_of(kb, a), fresh.types_of(kb, b));
            }
        }
        // The resource→values index matches the live candidate lists.
        let mut expected: HashMap<ResourceId, Vec<u32>> = HashMap::new();
        for (id, v) in edited.values.iter().enumerate() {
            if edited.refcounts[id] > 0 {
                link(&mut expected, id as u32, &v.candidates);
            }
        }
        let mut indexed = edited.by_resource.clone();
        for ids in expected.values_mut().chain(indexed.values_mut()) {
            ids.sort_unstable();
        }
        assert_eq!(indexed, expected);
        // Pair tiers over every co-occurring combination.
        for r in 0..table.num_rows() {
            for i in 0..table.num_columns() {
                for j in 0..table.num_columns() {
                    if i == j {
                        continue;
                    }
                    let (Some(ea), Some(eb)) = (edited.value_id(i, r), edited.value_id(j, r))
                    else {
                        continue;
                    };
                    let (fa, fb) = (fresh.value_id(i, r).unwrap(), fresh.value_id(j, r).unwrap());
                    let ep = edited.pair_relations(kb, ea, eb);
                    let fp = fresh.pair_relations(kb, fa, fb);
                    assert_eq!(ep.res, fp.res, "pair ({i},{j}) row {r}");
                    assert_eq!(ep.lit, fp.lit, "pair ({i},{j}) row {r}");
                }
            }
        }
    }

    #[test]
    fn edits_match_fresh_build() {
        let (kb, mut t) = kb_and_table();
        let mut res = TableResolution::build(&t, &kb, usize::MAX);

        // Upsert: typo fix introduces no new value, cell remap only.
        t.set_cell(1, 0, katara_table::Value::from("Rossi".to_string()));
        let patch = res.set_cell(&kb, 0, 1, Some("Rossi"));
        assert!(!patch.resolved, "rossi already resolved");
        assert_tiers_match(&res, &t, &kb);

        // Upsert a brand-new value; the old one ("1.78" in col 2 row 1)
        // survives via row 2.
        t.set_cell(1, 2, katara_table::Value::from("2.01".to_string()));
        let patch = res.set_cell(&kb, 2, 1, Some("2.01"));
        assert!(patch.resolved);
        assert_tiers_match(&res, &t, &kb);

        // Null out a cell.
        t.set_cell(1, 1, katara_table::Value::Null);
        res.set_cell(&kb, 1, 1, None);
        assert_tiers_match(&res, &t, &kb);

        // Append a row.
        t.push_text_row(&["Italy", "Rome", ""]);
        let resolved = res.push_row(&kb, &[Some("Italy"), Some("Rome"), None]);
        assert_eq!(resolved, 0, "both values already known");
        assert_tiers_match(&res, &t, &kb);

        // Delete row 0; "2.01" (row 1 col 2) stays, row indexes shift.
        t.remove_row(0);
        res.remove_row(0);
        assert_tiers_match(&res, &t, &kb);
    }

    #[test]
    fn dead_values_are_evicted_and_norms_reusable() {
        let (kb, t) = kb_and_table();
        let mut res = TableResolution::build(&t, &kb, usize::MAX);
        let rossi = res.value_id(0, 2).unwrap();
        assert_eq!(res.refcount(rossi), 1);
        // Overwrite the only "Rossi" cell: the value dies.
        res.set_cell(&kb, 0, 2, Some("Italy"));
        assert_eq!(res.refcount(rossi), 0);
        assert_eq!(res.norm_of(rossi), "");
        // Re-introducing the spelling resolves a NEW id (never reused).
        let patch = res.set_cell(&kb, 1, 2, Some("rossi"));
        assert!(patch.resolved);
        assert_ne!(patch.new, Some(rossi));
        assert_eq!(
            res.candidates_of(&kb, patch.new.unwrap()),
            kb.candidate_resources("Rossi")
        );
    }

    #[test]
    fn enrichment_patch_matches_fresh_build() {
        use katara_kb::{DeltaOp, EnrichmentDelta};
        let (mut kb, mut t) = kb_and_table();
        t.push_text_row(&["Pretoria", "Italy", ""]);
        let mut res = TableResolution::build(&t, &kb, usize::MAX);

        // A delta that exercises every op kind: a new capital entity whose
        // label is an existing cell value (exact-match flip for the
        // "pretoria" cell), a type for it, a fact landing on a cached
        // pair, and a literal fact.
        kb.begin_delta_capture();
        let capital = kb.class_by_name("capital").unwrap();
        let has_capital = kb.property_by_name("hasCapital").unwrap();
        let height = kb.property_by_name("hasHeight").unwrap();
        let pretoria = kb.add_entity("Pretoria", "Pretoria", &[capital]);
        let italy = kb.resource_by_name("Italy").unwrap();
        kb.add_fact(italy, has_capital, pretoria);
        let rossi = kb.resource_by_name("Rossi").unwrap();
        kb.add_literal_fact(rossi, height, "1.78");
        let delta = kb.take_delta();
        assert!(!delta.is_empty());
        assert!(matches!(delta.ops[0], DeltaOp::Entity { .. }));

        assert!(!res.is_current(&kb));
        let patch = res.apply_enrichment(&kb, &delta);
        assert!(res.is_current(&kb));
        assert!(patch.values_repatched >= 1, "pretoria must be repatched");
        assert_tiers_match(&res, &t, &kb);

        // And an empty delta is a no-op that still ratchets the version.
        let patch = res.apply_enrichment(&kb, &EnrichmentDelta::default());
        assert_eq!(patch, EnrichmentPatch::default());
    }
}
