//! String similarity (the paper's "domain-specific similarity function ≈").
//!
//! KATARA matches table cells to KB labels through Lucene (LARQ) with a 0.7
//! threshold. We emulate that with a hybrid of normalized Levenshtein
//! similarity and character-trigram Jaccard over *normalized* strings
//! (lower-cased, trimmed, inner whitespace collapsed). Either metric alone
//! is a poor Lucene stand-in: Levenshtein under-scores token reordering,
//! Jaccard under-scores very short strings. Taking the max of the two keeps
//! both the "typo" and the "token soup" match families above the threshold.

/// Normalize a string for label comparison: trim, lowercase, collapse runs
/// of whitespace into a single space.
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_was_space = true; // leading spaces are dropped
    for ch in s.trim().chars() {
        if ch.is_whitespace() {
            if !last_was_space {
                out.push(' ');
                last_was_space = true;
            }
        } else {
            for lc in ch.to_lowercase() {
                out.push(lc);
            }
            last_was_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Damerau-Levenshtein (optimal string alignment) edit distance between two
/// strings, over `char`s. Adjacent transpositions count as one edit, which
/// matches Lucene's fuzzy matching behaviour.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Three-row DP (previous-previous row needed for transpositions).
    let w = b.len() + 1;
    let mut prev2 = vec![0usize; w];
    let mut prev: Vec<usize> = (0..w).collect();
    let mut cur = vec![0usize; w];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            let mut best = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
            if i > 0 && j > 0 && ca == b[j - 1] && a[i - 1] == cb {
                best = best.min(prev2[j - 1] + 1);
            }
            cur[j + 1] = best;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Normalized Levenshtein similarity in `[0, 1]`:
/// `1 - dist / max(len_a, len_b)`. Two empty strings are fully similar.
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    levenshtein_score(levenshtein(a, b), max_len)
}

/// The score [`levenshtein_sim`] gives distance `dist` between strings
/// whose longer side has `max_len` chars. Shared with the label index so
/// both compute bit-identical scores.
pub(crate) fn levenshtein_score(dist: usize, max_len: usize) -> f64 {
    if max_len == 0 {
        return 1.0;
    }
    1.0 - dist as f64 / max_len as f64
}

/// The largest distance `d` for which two strings whose longer side has
/// `max_len` chars still reach `threshold` on the Levenshtein side, i.e.
/// the largest `d ≤ max_len` with `levenshtein_score(d, max_len) >=
/// threshold`; `None` if even `d = 0` falls short. Evaluated with the
/// score's own f64 expression, not with `floor((1 - threshold) *
/// max_len)`, which can be off by one.
pub(crate) fn max_edits(max_len: usize, threshold: f64) -> Option<usize> {
    (0..=max_len)
        .rev()
        .find(|&d| levenshtein_score(d, max_len) >= threshold)
}

/// Bounded [`levenshtein`] (OSA) distance from one fixed pattern to many
/// texts: the verification kernel of approximate label lookup.
///
/// Patterns of at most 64 chars run Hyyrö's bit-parallel OSA recurrence
/// (one 64-bit step per text char, stopping early once the distance
/// provably exceeds `max`); longer patterns fall back to [`levenshtein`].
/// Both return exactly `levenshtein(pattern, text)` when it is at most
/// `max`, `None` otherwise.
#[derive(Debug, Clone)]
pub(crate) struct OsaPattern<'a> {
    pattern: &'a str,
    len: usize,
    /// Bit `i` of `ascii_eq[c]` is set iff char `i` of the pattern is `c`
    /// (patterns of at most 64 chars only); `other_eq` holds the
    /// non-ASCII chars.
    ascii_eq: [u64; 128],
    other_eq: Vec<(char, u64)>,
}

impl<'a> OsaPattern<'a> {
    /// Longest pattern the bit-parallel kernel handles.
    const WORD_CHARS: usize = 64;

    /// Prepare `pattern` for repeated distance queries.
    pub(crate) fn new(pattern: &'a str) -> Self {
        let len = pattern.chars().count();
        let mut ascii_eq = [0u64; 128];
        let mut other_eq: Vec<(char, u64)> = Vec::new();
        if len <= Self::WORD_CHARS {
            for (i, c) in pattern.chars().enumerate() {
                let bit = 1u64 << i;
                if c.is_ascii() {
                    ascii_eq[c as usize] |= bit;
                } else if let Some(e) = other_eq.iter_mut().find(|e| e.0 == c) {
                    e.1 |= bit;
                } else {
                    other_eq.push((c, bit));
                }
            }
        }
        Self {
            pattern,
            len,
            ascii_eq,
            other_eq,
        }
    }

    /// `levenshtein(pattern, text)` if it is at most `max`, else `None`.
    pub(crate) fn distance_within(&self, text: &str, max: usize) -> Option<usize> {
        let m = self.len;
        let n = text.chars().count();
        // The distance never falls below the length difference.
        if m.abs_diff(n) > max {
            return None;
        }
        if m == 0 || n == 0 {
            return Some(m.max(n));
        }
        if m <= Self::WORD_CHARS {
            self.bit_parallel(text, n, max)
        } else {
            let d = levenshtein(self.pattern, text);
            (d <= max).then_some(d)
        }
    }

    fn eq_mask(&self, c: char) -> u64 {
        if c.is_ascii() {
            self.ascii_eq[c as usize]
        } else {
            self.other_eq.iter().find(|e| e.0 == c).map_or(0, |e| e.1)
        }
    }

    /// Hyyrö (2003): Myers' bit-vector edit distance plus a transposition
    /// term. Bit `i` of the vertical deltas `vp`/`vn` is `D[i+1][j] -
    /// D[i][j]`; `dist` tracks the last row, `D[m][j]`.
    fn bit_parallel(&self, text: &str, n: usize, max: usize) -> Option<usize> {
        let m = self.len;
        let last = 1u64 << (m - 1);
        let (mut vp, mut vn, mut d0, mut pm_prev) = (!0u64, 0u64, 0u64, 0u64);
        let mut dist = m;
        for (j, c) in text.chars().enumerate() {
            let pm = self.eq_mask(c);
            let tr = ((!d0 & pm) << 1) & pm_prev;
            d0 = ((pm & vp).wrapping_add(vp) ^ vp) | pm | vn | tr;
            let hp = vn | !(d0 | vp);
            let hn = d0 & vp;
            if hp & last != 0 {
                dist += 1;
            } else if hn & last != 0 {
                dist -= 1;
            }
            let hp = (hp << 1) | 1;
            vp = (hn << 1) | !(d0 | hp);
            vn = hp & d0;
            pm_prev = pm;
            // Each remaining text char moves `D[m][·]` by at most one.
            if dist > max.saturating_add(n - j - 1) {
                return None;
            }
        }
        (dist <= max).then_some(dist)
    }
}

/// The character trigrams of `s`, padded with two sentinel chars on each
/// side so short strings still produce several grams (standard n-gram
/// indexing practice; mirrors Lucene's `NGramTokenizer` behaviour closely
/// enough for threshold matching).
pub fn trigrams(s: &str) -> Vec<[char; 3]> {
    let padded: Vec<char> = std::iter::repeat_n('\u{2}', 2)
        .chain(s.chars())
        .chain(std::iter::repeat_n('\u{3}', 2))
        .collect();
    padded.windows(3).map(|w| [w[0], w[1], w[2]]).collect()
}

/// The *distinct* character trigrams of `s`, sorted. This is the set form
/// of [`trigrams`], represented as a sorted vec so set operations are
/// linear merges instead of hash probes.
pub fn sorted_trigrams(s: &str) -> Vec<[char; 3]> {
    let mut g = trigrams(s);
    g.sort_unstable();
    g.dedup();
    g
}

/// Jaccard similarity of two *sorted, deduplicated* trigram vectors (as
/// produced by [`sorted_trigrams`]) via a two-pointer intersection count.
/// Two empty sets are fully similar.
pub fn jaccard_sorted(a: &[[char; 3]], b: &[[char; 3]]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Jaccard similarity of the trigram *sets* of two strings.
pub fn trigram_jaccard(a: &str, b: &str) -> f64 {
    jaccard_sorted(&sorted_trigrams(a), &sorted_trigrams(b))
}

/// Hybrid similarity in `[0, 1]` over *already normalized* strings: the max
/// of normalized Levenshtein and trigram Jaccard.
pub fn similarity(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    levenshtein_sim(a, b).max(trigram_jaccard(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_basics() {
        assert_eq!(normalize("  Rome "), "rome");
        assert_eq!(normalize("S.   Africa"), "s. africa");
        assert_eq!(normalize("ITALY"), "italy");
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("   "), "");
        assert_eq!(normalize("a\tb\nc"), "a b c");
    }

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("rome", "dome"), 1);
        // Adjacent transposition is one edit (Damerau/OSA).
        assert_eq!(levenshtein("madrid", "madird"), 1);
        assert_eq!(levenshtein("ab", "ba"), 1);
    }

    #[test]
    fn levenshtein_sim_bounds() {
        assert_eq!(levenshtein_sim("", ""), 1.0);
        assert_eq!(levenshtein_sim("abc", "abc"), 1.0);
        assert_eq!(levenshtein_sim("abc", "xyz"), 0.0);
    }

    #[test]
    fn similarity_symmetric() {
        let pairs = [
            ("rome", "roma"),
            ("italy", "itlay"),
            ("pretoria", "p. eliz."),
        ];
        for (a, b) in pairs {
            let s1 = similarity(a, b);
            let s2 = similarity(b, a);
            assert!((s1 - s2).abs() < 1e-12, "asymmetric for {a}/{b}");
        }
    }

    #[test]
    fn typo_passes_paper_threshold() {
        // One-character typo in a medium-length string should count as a
        // match at the paper's 0.7 threshold.
        assert!(similarity("pretoria", "pretorai") >= 0.7);
        assert!(similarity("italy", "itly") >= 0.7);
        // Completely different strings should not.
        assert!(similarity("italy", "uruguay") < 0.7);
    }

    #[test]
    fn identical_is_one() {
        assert_eq!(similarity("madrid", "madrid"), 1.0);
    }

    #[test]
    fn trigrams_of_short_strings_pinned() {
        // Two sentinel chars on each side: an n-char string yields n + 2
        // windows of width 3. The empty string still produces the two
        // all-sentinel grams, so the gram index never sees an empty key set.
        assert_eq!(trigrams("").len(), 2);
        assert_eq!(trigrams("a").len(), 3);
        assert_eq!(trigrams("ab").len(), 4);
        // "" and "a" share no window (every gram of "a" contains 'a'), so
        // their Jaccard is exactly 0 — a well-defined number, never NaN,
        // because the padded gram sets are non-empty.
        assert_eq!(trigram_jaccard("", "a"), 0.0);
    }

    #[test]
    fn sorted_trigrams_dedups() {
        // "aaaa" has six padded windows but the gram [a,a,a] repeats.
        assert_eq!(trigrams("aaaa").len(), 6);
        assert_eq!(sorted_trigrams("aaaa").len(), 5);
        let g = sorted_trigrams("aaaa");
        assert!(g.windows(2).all(|w| w[0] < w[1]), "sorted + strict dedup");
    }

    #[test]
    fn jaccard_bounds() {
        assert!(trigram_jaccard("abc", "abc") > 0.99);
        assert_eq!(trigram_jaccard("", ""), 1.0);
        let j = trigram_jaccard("abcdef", "uvwxyz");
        assert!((0.0..=1.0).contains(&j));
    }

    #[test]
    fn jaccard_sorted_matches_string_form() {
        for (a, b) in [("rome", "roma"), ("", "x"), ("ab", "ba"), ("aa", "aa")] {
            let expect = trigram_jaccard(a, b);
            let got = jaccard_sorted(&sorted_trigrams(a), &sorted_trigrams(b));
            assert!((expect - got).abs() < 1e-15, "{a}/{b}");
        }
    }

    /// Every string over `alphabet` of length at most `max_len`.
    fn all_strings(alphabet: &[char], max_len: usize) -> Vec<String> {
        let mut out = vec![String::new()];
        let mut frontier = vec![String::new()];
        for _ in 0..max_len {
            frontier = frontier
                .iter()
                .flat_map(|s| {
                    alphabet.iter().map(move |&c| {
                        let mut t = s.clone();
                        t.push(c);
                        t
                    })
                })
                .collect();
            out.extend(frontier.iter().cloned());
        }
        out
    }

    /// `distance_within` agrees with `levenshtein` unbounded, at the
    /// exact distance, and one below it.
    fn check_kernel(osa: &OsaPattern, pattern: &str, text: &str) {
        let d = levenshtein(pattern, text);
        assert_eq!(
            osa.distance_within(text, usize::MAX),
            Some(d),
            "{pattern:?}/{text:?}"
        );
        assert_eq!(
            osa.distance_within(text, d),
            Some(d),
            "{pattern:?}/{text:?} at {d}"
        );
        if d > 0 {
            assert_eq!(
                osa.distance_within(text, d - 1),
                None,
                "{pattern:?}/{text:?} below {d}"
            );
        }
    }

    #[test]
    fn osa_kernel_equals_levenshtein_on_all_short_strings() {
        let strings = all_strings(&['a', 'b', 'c'], 6);
        assert_eq!(strings.len(), 1093);
        for pattern in &strings {
            let osa = OsaPattern::new(pattern);
            for text in &strings {
                check_kernel(&osa, pattern, text);
            }
        }
    }

    #[test]
    fn osa_kernel_equals_levenshtein_around_the_word_size() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(64);
        let alphabet = ['a', 'b', 'c'];
        let random = |rng: &mut StdRng, len: usize| -> String {
            (0..len)
                .map(|_| alphabet[rng.random_range(0..3usize)])
                .collect()
        };
        // 63 and 64 chars run the bit-parallel kernel, 65 the fallback.
        for len in [63, 64, 65] {
            for _ in 0..64 {
                let pattern = random(&mut rng, len);
                let osa = OsaPattern::new(&pattern);
                for _ in 0..4 {
                    // Up to four edits, half of them transpositions.
                    let mut near: Vec<char> = pattern.chars().collect();
                    for _ in 0..rng.random_range(0..=4usize) {
                        let i = rng.random_range(0..near.len() - 1);
                        match rng.random_range(0..4u32) {
                            0 | 1 => near.swap(i, i + 1),
                            2 => near[i] = alphabet[rng.random_range(0..3usize)],
                            _ => {
                                near.remove(i);
                            }
                        }
                    }
                    let near: String = near.into_iter().collect();
                    check_kernel(&osa, &pattern, &near);
                }
                let other_len = rng.random_range(0..=70usize);
                let far = random(&mut rng, other_len);
                check_kernel(&osa, &pattern, &far);
            }
        }
    }

    #[test]
    fn max_edits_is_the_exact_score_cutoff() {
        for max_len in 0..=40 {
            for threshold in [-0.5, 0.0, 0.3, 0.5, 0.7, 0.75, 0.8, 0.85, 0.9, 1.0, 1.5] {
                let reaches = |d: usize| levenshtein_score(d, max_len) >= threshold;
                match max_edits(max_len, threshold) {
                    Some(k) => assert!(
                        k <= max_len && reaches(k) && (k == max_len || !reaches(k + 1)),
                        "{max_len} at {threshold}: {k}"
                    ),
                    None => assert!(!reaches(0), "{max_len} at {threshold}"),
                }
            }
        }
        assert_eq!(max_edits(10, f64::NAN), None);
        // 1 - 2/10 is exactly 0.8, but floor((1 - 0.8) · 10) is
        // floor(1.9999999999999996) = 1.
        assert_eq!(max_edits(10, 0.8), Some(2));
    }
}
