//! Label lookup: exact (normalized) and approximate (threshold-bounded).
//!
//! This is the Lucene/LARQ stand-in. All labels are stored normalized (see
//! [`crate::sim::normalize`]). Exact lookup is a hash probe. Approximate
//! lookup returns exactly the labels whose [`crate::sim::similarity`] to
//! the query reaches the threshold (the paper uses 0.7), with the same
//! scores, found without scoring every label:
//!
//! * the Jaccard side counts trigram postings into a dense per-slot
//!   array; a label with Jaccard ≥ τ > 0 shares a trigram with the query,
//!   so the posting pass sees all of them, and `shared / (|Q| + |S| -
//!   shared)` is the Jaccard score itself;
//! * the Levenshtein side scans only the label-length buckets within the
//!   threshold's edit budget `k`, skips labels whose 64-bit char masks
//!   already prove more than `k` edits, and verifies the rest with the
//!   bounded bit-parallel OSA kernel of [`crate::sim`].
//!
//! Like the parser modules, this module denies `clippy::unwrap_used`:
//! lookups run on arbitrary user strings and must never panic — in
//! particular, float sorts use `total_cmp` so a NaN similarity score can
//! neither panic nor scramble the ranking.

#![deny(clippy::unwrap_used)]

use std::collections::HashMap;

use crate::ids::ResourceId;
use crate::sim;

/// One approximate-lookup hit.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelMatch {
    /// The matched resource.
    pub resource: ResourceId,
    /// Similarity of the query to this resource's label, in `[0, 1]`.
    pub score: f64,
}

/// An inverted index from labels to resources.
#[derive(Debug, Default, Clone)]
pub struct LabelIndex {
    /// Distinct normalized labels; a slot holds every resource carrying
    /// that label (homonyms: `Rossi` the player and `Rossi` the racer).
    slots: Vec<(String, Vec<ResourceId>)>,
    slot_of: HashMap<String, u32>,
    /// trigram -> slots containing it, ascending.
    grams: HashMap<[char; 3], Vec<u32>>,
    /// Per-slot number of distinct trigrams, `|S|` of the Jaccard side.
    gram_counts: Vec<u32>,
    /// Slots grouped by label length in chars, ascending length.
    by_len: Vec<LengthBucket>,
}

/// The slots whose labels have `len` chars, ascending, with each label's
/// [`char_mask`] alongside.
#[derive(Debug, Clone)]
struct LengthBucket {
    len: usize,
    slots: Vec<u32>,
    masks: Vec<u64>,
}

impl LabelIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct labels.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no label has been inserted.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Associate `label` (raw; normalized internally) with `resource`.
    pub fn insert(&mut self, label: &str, resource: ResourceId) {
        let norm = sim::normalize(label);
        let slot = match self.slot_of.get(&norm) {
            Some(&s) => s,
            None => {
                let s = u32::try_from(self.slots.len()).expect("label slots exhausted");
                let grams = sim::sorted_trigrams(&norm);
                for &g in &grams {
                    self.grams.entry(g).or_default().push(s);
                }
                self.gram_counts
                    .push(u32::try_from(grams.len()).expect("label trigram count exceeds u32"));
                let len = norm.chars().count();
                let at = match self.by_len.binary_search_by_key(&len, |b| b.len) {
                    Ok(at) => at,
                    Err(at) => {
                        self.by_len.insert(
                            at,
                            LengthBucket {
                                len,
                                slots: Vec::new(),
                                masks: Vec::new(),
                            },
                        );
                        at
                    }
                };
                let bucket = &mut self.by_len[at];
                bucket.slots.push(s);
                bucket.masks.push(char_mask(&norm));
                self.slots.push((norm.clone(), Vec::new()));
                self.slot_of.insert(norm, s);
                s
            }
        };
        let resources = &mut self.slots[slot as usize].1;
        if !resources.contains(&resource) {
            resources.push(resource);
        }
    }

    /// Resources whose normalized label equals `normalize(query)` exactly.
    pub fn exact(&self, query: &str) -> &[ResourceId] {
        self.exact_normalized(&sim::normalize(query))
    }

    /// [`Self::exact`] for an *already normalized* query (the caller
    /// guarantees `norm == sim::normalize(norm)`), skipping the per-call
    /// normalization. The snapshot layer normalizes each distinct cell
    /// value once and probes through this entry point.
    pub fn exact_normalized(&self, norm: &str) -> &[ResourceId] {
        match self.slot_of.get(norm) {
            Some(&s) => &self.slots[s as usize].1,
            None => &[],
        }
    }

    /// Resources whose label is similar to `query` at `threshold` or above,
    /// best score first. Exact matches always score 1.0 and come first.
    ///
    /// The result is exact: every label `l` with `sim::similarity(
    /// normalize(query), l) >= threshold`, scored with that value, ordered
    /// by score descending and then by insertion order of the label.
    pub fn lookup(&self, query: &str, threshold: f64) -> Vec<LabelMatch> {
        self.lookup_normalized(&sim::normalize(query), threshold)
    }

    /// [`Self::lookup`] for an *already normalized* query. Scores are
    /// bit-identical to [`sim::similarity`] on the normalized strings:
    /// both sides of the `max(levenshtein, jaccard)` hybrid are computed
    /// with the same integer inputs and f64 expressions.
    ///
    /// A label is reported iff one side reaches `threshold`:
    /// * Levenshtein: its OSA distance `d` is at most `k = sim::max_edits(
    ///   max_len, threshold)`. Since `d ≥ |len_q - len_l|`, only length
    ///   buckets within `k` are scanned. Each substitution or deletion
    ///   removes one char of the query and transpositions remove none, so
    ///   `d` is at least the number of distinct query chars missing from
    ///   the label (and vice versa); the char-mask popcounts bound that
    ///   from below, collisions only weakening the bound. Survivors are
    ///   verified by the bounded OSA kernel of [`sim`].
    /// * Jaccard: `shared ≥ 1` for any score above zero, so every such
    ///   label is in the posting lists of the query's trigrams.
    ///
    /// When one side is below `threshold` and the other reaches it, the
    /// max is the reaching side, so each reported score is the full hybrid.
    pub fn lookup_normalized(&self, norm: &str, threshold: f64) -> Vec<LabelMatch> {
        let qgrams = sim::sorted_trigrams(norm);
        let qlen = norm.chars().count();
        let qmask = char_mask(norm);
        let mut hits: Vec<(u32, f64)> = Vec::new();

        // Jaccard side: |Q ∩ S| per slot sharing a trigram.
        let mut shared = vec![0u32; self.slots.len()];
        let mut touched: Vec<u32> = Vec::new();
        for g in &qgrams {
            for &s in self.grams.get(g).map_or(&[][..], Vec::as_slice) {
                let count = &mut shared[s as usize];
                if *count == 0 {
                    touched.push(s);
                }
                *count += 1;
            }
        }
        let jaccard = |slot: u32, count: u32| {
            let union = qgrams.len() + self.gram_counts[slot as usize] as usize - count as usize;
            count as f64 / union as f64
        };

        // Levenshtein side: length buckets, char masks, OSA kernel. A
        // reported slot's count is zeroed so the Jaccard pass skips it.
        let osa = sim::OsaPattern::new(norm);
        for bucket in &self.by_len {
            let max_len = qlen.max(bucket.len);
            let Some(k) = sim::max_edits(max_len, threshold) else {
                continue;
            };
            if qlen.abs_diff(bucket.len) > k {
                continue;
            }
            for (&slot, &mask) in bucket.slots.iter().zip(&bucket.masks) {
                if (qmask & !mask).count_ones() as usize > k
                    || (mask & !qmask).count_ones() as usize > k
                {
                    continue;
                }
                let Some(d) = osa.distance_within(&self.slots[slot as usize].0, k) else {
                    continue;
                };
                let lev = sim::levenshtein_score(d, max_len);
                let count = std::mem::take(&mut shared[slot as usize]);
                hits.push((slot, lev.max(jaccard(slot, count))));
            }
        }

        // The rest: labels only the Jaccard side can reach.
        for slot in touched {
            let count = shared[slot as usize];
            if count > 0 {
                let jac = jaccard(slot, count);
                if jac >= threshold {
                    hits.push((slot, jac));
                }
            }
        }
        // Best score first; ties broken by slot index for determinism.
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut out = Vec::new();
        for (slot, score) in hits {
            for &r in &self.slots[slot as usize].1 {
                out.push(LabelMatch { resource: r, score });
            }
        }
        out
    }

    /// Iterate all `(normalized label, resources)` slots.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[ResourceId])> {
        self.slots.iter().map(|(l, rs)| (l.as_str(), rs.as_slice()))
    }
}

/// A 64-bit set of the chars in `s`: lowercase letters and digits get
/// their own bits (labels are normalized to lowercase), everything else
/// shares the remaining 28.
fn char_mask(s: &str) -> u64 {
    s.chars().fold(0u64, |mask, c| {
        let bit = match c {
            'a'..='z' => c as u32 - 'a' as u32,
            '0'..='9' => 26 + (c as u32 - '0' as u32),
            _ => 36 + c as u32 % 28,
        };
        mask | 1u64 << bit
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(entries: &[(&str, u32)]) -> LabelIndex {
        let mut i = LabelIndex::new();
        for &(l, r) in entries {
            i.insert(l, ResourceId(r));
        }
        i
    }

    #[test]
    fn exact_lookup_is_normalized() {
        let i = idx(&[("Rome", 1)]);
        assert_eq!(i.exact("rome"), &[ResourceId(1)]);
        assert_eq!(i.exact("  ROME "), &[ResourceId(1)]);
        assert_eq!(i.exact("Milan"), &[]);
    }

    #[test]
    fn homonyms_share_a_slot() {
        let i = idx(&[("Rossi", 1), ("Rossi", 2)]);
        assert_eq!(i.exact("rossi"), &[ResourceId(1), ResourceId(2)]);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let i = idx(&[("Rome", 1), ("Rome", 1)]);
        assert_eq!(i.exact("rome"), &[ResourceId(1)]);
    }

    #[test]
    fn fuzzy_lookup_finds_typos() {
        let i = idx(&[("Pretoria", 1), ("Rome", 2), ("Madrid", 3)]);
        let hits = i.lookup("Pretorai", 0.7);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].resource, ResourceId(1));
        assert!(hits[0].score >= 0.7);
    }

    #[test]
    fn fuzzy_lookup_orders_by_score() {
        let i = idx(&[("Rome", 1), ("Roma", 2)]);
        let hits = i.lookup("Rome", 0.5);
        assert_eq!(hits[0].resource, ResourceId(1));
        assert!((hits[0].score - 1.0).abs() < 1e-12);
        assert!(hits.iter().any(|h| h.resource == ResourceId(2)));
    }

    #[test]
    fn threshold_filters() {
        let i = idx(&[("Rome", 1)]);
        assert!(i.lookup("Tokyo", 0.7).is_empty());
    }

    #[test]
    fn normalized_entry_points_match_raw() {
        let i = idx(&[("Pretoria", 1), ("Rome", 2), ("Madrid", 3), ("Roma", 4)]);
        for q in ["Pretorai", "  ROME ", "madird", "nowhere"] {
            let norm = sim::normalize(q);
            assert_eq!(i.exact(q), i.exact_normalized(&norm), "exact {q}");
            assert_eq!(
                i.lookup(q, 0.5),
                i.lookup_normalized(&norm, 0.5),
                "lookup {q}"
            );
        }
    }

    #[test]
    fn lookup_scores_match_sim_similarity() {
        let i = idx(&[("Madrid", 1)]);
        let hits = i.lookup("Madird", 0.5);
        assert_eq!(hits.len(), 1);
        let expect = sim::similarity(&sim::normalize("Madird"), &sim::normalize("Madrid"));
        assert!((hits[0].score - expect).abs() < 1e-15);
    }

    #[test]
    fn empty_index_lookup() {
        let i = LabelIndex::new();
        assert!(i.is_empty());
        assert!(i.lookup("anything", 0.7).is_empty());
        assert_eq!(i.exact("anything"), &[]);
    }
}
