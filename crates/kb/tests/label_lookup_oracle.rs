//! Approximate label lookup against a brute-force reference.
//!
//! `LabelIndex::lookup_normalized` must return exactly what scoring every
//! label with `sim::similarity` returns: the same labels, the same score
//! bits and the same order (score descending, then insertion order). The
//! generated indexes mix short labels (0–20 chars, where transpositions
//! used to slip past a trigram prefilter) with a few labels longer than
//! 64 chars, over small alphabets that include a space and a non-ASCII
//! char. Queries are labels under up to four random OSA edits, weighted
//! towards transpositions, plus unrelated strings.
//!
//! The case count is elevated in CI via `KATARA_FUZZ_CASES`.

use katara_kb::sim;
use katara_kb::{LabelIndex, LabelMatch, ResourceId};
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

const THRESHOLDS: [f64; 5] = [0.0, 0.5, 0.7, 0.85, 1.0];

const ALPHABETS: [&[char]; 3] = [
    &['a', 'b', ' ', 'é'],
    &['a', 'b', 'c', 'd', ' ', 'ß'],
    &['a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', ' ', 'ж'],
];

/// The reference: score every slot, keep those reaching `threshold`.
fn brute_force(index: &LabelIndex, norm: &str, threshold: f64) -> Vec<(ResourceId, u64)> {
    let mut hits: Vec<(usize, f64, &[ResourceId])> = index
        .iter()
        .enumerate()
        .filter_map(|(slot, (label, resources))| {
            let score = sim::similarity(norm, label);
            (score >= threshold).then_some((slot, score, resources))
        })
        .collect();
    hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    hits.into_iter()
        .flat_map(|(_, score, rs)| rs.iter().map(move |&r| (r, score.to_bits())))
        .collect()
}

fn indexed(index: &LabelIndex, norm: &str, threshold: f64) -> Vec<(ResourceId, u64)> {
    index
        .lookup_normalized(norm, threshold)
        .into_iter()
        .map(|m| (m.resource, m.score.to_bits()))
        .collect()
}

fn random_string(rng: &mut StdRng, alphabet: &[char], len: usize) -> String {
    (0..len)
        .map(|_| alphabet[rng.random_range(0..alphabet.len())])
        .collect()
}

/// Up to four random OSA edits, half of them adjacent transpositions.
fn mutate(rng: &mut StdRng, s: &str, alphabet: &[char]) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    for _ in 0..rng.random_range(0..=4usize) {
        let pick = alphabet[rng.random_range(0..alphabet.len())];
        match rng.random_range(0..8u32) {
            0..=3 if chars.len() >= 2 => {
                let i = rng.random_range(0..chars.len() - 1);
                chars.swap(i, i + 1);
            }
            4 | 5 if !chars.is_empty() => {
                let i = rng.random_range(0..chars.len());
                chars[i] = pick;
            }
            6 if !chars.is_empty() => {
                chars.remove(rng.random_range(0..chars.len()));
            }
            _ => chars.insert(rng.random_range(0..=chars.len()), pick),
        }
    }
    chars.into_iter().collect()
}

/// A random index (with homonyms) over `alphabet`, and its raw labels.
fn random_index(rng: &mut StdRng, alphabet: &[char]) -> (LabelIndex, Vec<String>) {
    let mut index = LabelIndex::new();
    let mut labels: Vec<String> = Vec::new();
    let n = rng.random_range(1..40usize);
    for r in 0..n {
        let label = if r > 0 && rng.random_bool(0.1) {
            labels[rng.random_range(0..labels.len())].clone()
        } else if rng.random_bool(0.08) {
            let len = rng.random_range(60..80usize);
            random_string(rng, alphabet, len)
        } else {
            let len = rng.random_range(0..=20usize);
            random_string(rng, alphabet, len)
        };
        index.insert(&label, ResourceId(r as u32));
        labels.push(label);
    }
    (index, labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(64)))]

    #[test]
    fn lookup_equals_brute_force_scan(seed in 0u64..u64::MAX, which in 0usize..ALPHABETS.len()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let alphabet = ALPHABETS[which];
        let (index, labels) = random_index(&mut rng, alphabet);
        for _ in 0..8 {
            let raw = if rng.random_bool(0.8) {
                let base = &labels[rng.random_range(0..labels.len())];
                mutate(&mut rng, base, alphabet)
            } else {
                let len = rng.random_range(0..=24usize);
                random_string(&mut rng, alphabet, len)
            };
            let norm = sim::normalize(&raw);
            for threshold in THRESHOLDS {
                prop_assert_eq!(
                    indexed(&index, &norm, threshold),
                    brute_force(&index, &norm, threshold),
                    "query {:?} at {} over labels {:?}", norm, threshold, labels
                );
            }
        }
    }
}

#[test]
fn transpositions_the_trigram_prefilter_lost_are_found() {
    for (label, query) in [("ibemjjf", "iebmjfj"), ("jdjgkjljla", "jdgjkljjal")] {
        let mut index = LabelIndex::new();
        index.insert(label, ResourceId(7));
        let score = sim::similarity(query, label);
        assert!(score >= 0.7, "{query}/{label} scores {score}");
        assert_eq!(
            index.lookup(query, 0.7),
            vec![LabelMatch {
                resource: ResourceId(7),
                score,
            }],
            "{query}/{label}"
        );
    }
}

#[test]
fn empty_query_and_empty_label() {
    let mut index = LabelIndex::new();
    index.insert("", ResourceId(0));
    index.insert("a", ResourceId(1));
    index.insert("abcd", ResourceId(2));
    for threshold in THRESHOLDS {
        for norm in ["", "a", "b"] {
            assert_eq!(
                indexed(&index, norm, threshold),
                brute_force(&index, norm, threshold),
                "query {norm:?} at {threshold}"
            );
        }
    }
    assert!(index.lookup("", f64::NAN).is_empty());
}
