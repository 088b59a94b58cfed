//! Character n-gram similarity.
//!
//! Strings are padded with `#` sentinels so that affixes contribute their
//! own grams (the COMA convention); profiles are multisets, and Dice is
//! computed over multiset intersections.
//!
//! The similarity functions run on [`GramProfile`] — a flat, sorted
//! `Vec<(u64, u32)>` of gram keys and counts — intersected by a linear
//! merge, with no per-call `HashMap<String, u32>` or per-gram `String`
//! allocation. Grams whose UTF-8 form fits in 7 bytes (every ASCII
//! trigram) are packed *injectively* into their key, so the common case
//! is collision-free by construction; longer grams fall back to a
//! 56-bit FNV-1a hash in a disjoint key range. [`ngram_profile`] keeps
//! the original hash-map profile as the reference the tests compare
//! against.

use crate::clamp01;
use std::collections::HashMap;

/// Sentinel used to pad strings before gram extraction.
const PAD: char = '#';

/// Multiset of character `n`-grams of `s`, with `n-1` sentinel pads on each
/// side. Keys are gram strings, values are occurrence counts.
///
/// This is the *reference* profile representation: the similarity
/// function [`dice_ngram`] uses the flat [`GramProfile`] instead, and
/// the property tests assert both paths agree. For `n == 0` the profile
/// is empty; for an empty string it is empty too.
///
/// ```
/// let p = smx_text::ngram_profile("ab", 2);
/// assert_eq!(p.get("#a"), Some(&1));
/// assert_eq!(p.get("ab"), Some(&1));
/// assert_eq!(p.get("b#"), Some(&1));
/// ```
pub fn ngram_profile(s: &str, n: usize) -> HashMap<String, u32> {
    let mut profile = HashMap::new();
    if n == 0 || s.is_empty() {
        return profile;
    }
    for window in padded(s, n).windows(n) {
        let gram: String = window.iter().collect();
        *profile.entry(gram).or_insert(0) += 1;
    }
    profile
}

/// The `#`-padded scalar-value sequence gram windows slide over.
fn padded(s: &str, n: usize) -> Vec<char> {
    let mut padded: Vec<char> = Vec::with_capacity(s.chars().count() + 2 * (n - 1));
    padded.extend(std::iter::repeat_n(PAD, n - 1));
    padded.extend(s.chars());
    padded.extend(std::iter::repeat_n(PAD, n - 1));
    padded
}

/// Key of one gram window.
///
/// Grams whose UTF-8 encoding fits in 7 bytes are packed bijectively:
/// byte `i` of the gram occupies bits `8i..8i+8` and the length sits in
/// the top byte (`1..=7`), so *distinct short grams always get distinct
/// keys*. Longer grams (only possible with multiple multi-byte scalars
/// in one window) hash via FNV-1a into a range whose top byte is `0xFF`,
/// disjoint from every packed key.
fn gram_key(window: &[char]) -> u64 {
    let mut buf = [0u8; 7];
    let mut len = 0usize;
    for &c in window {
        let l = c.len_utf8();
        if len + l > buf.len() {
            return gram_key_hashed(window);
        }
        c.encode_utf8(&mut buf[len..]);
        len += l;
    }
    let mut key = (len as u64) << 56;
    for (i, &b) in buf[..len].iter().enumerate() {
        key |= u64::from(b) << (8 * i);
    }
    key
}

/// FNV-1a fallback for grams longer than 7 UTF-8 bytes, tagged into the
/// `0xFF` top-byte range so it can never collide with a packed key.
fn gram_key_hashed(window: &[char]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut utf8 = [0u8; 4];
    for &c in window {
        for &b in c.encode_utf8(&mut utf8).as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    (h & 0x00FF_FFFF_FFFF_FFFF) | (0xFF_u64 << 56)
}

/// Flat multiset of hashed character n-grams, stored
/// structure-of-arrays: gram keys sorted ascending in one flat `u64`
/// lane array, occurrence counts in a parallel array, plus the
/// multiset's total size.
///
/// Building one costs a single sort; intersecting two is a merge over
/// the sorted key lanes with no hashing and no allocation — the
/// representation repository label stores precompute per distinct label
/// at ingest. Two merge implementations exist: the element-at-a-time
/// scalar oracle ([`intersection`](GramProfile::intersection)) and a
/// four-lane block-skipping variant
/// ([`intersection_blocked`](GramProfile::intersection_blocked)) the
/// vectorised kernel tiers dispatch to; both return the same count on
/// every input (property-tested), so similarity values never depend on
/// the tier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GramProfile {
    /// Distinct gram keys, sorted ascending — the flat compare lanes.
    keys: Vec<u64>,
    /// `counts[i]` is the multiplicity of `keys[i]`.
    counts: Vec<u32>,
    /// Sum of all counts — the multiset's cardinality `|A|`.
    total: u64,
}

/// Lanes per skip block in [`GramProfile::intersection_blocked`]: the
/// whole block is ruled out against the other side's current key with
/// one comparison against its maximum lane.
const GRAM_BLOCK_LANES: usize = 4;

impl GramProfile {
    /// Profile of the `n`-grams of `s` (with `#` padding, like
    /// [`ngram_profile`]). Empty for `n == 0` or an empty string.
    pub fn new(s: &str, n: usize) -> Self {
        if n == 0 || s.is_empty() {
            return GramProfile::default();
        }
        let padded = padded(s, n);
        let mut sorted: Vec<u64> = padded.windows(n).map(gram_key).collect();
        sorted.sort_unstable();
        let total = sorted.len() as u64;
        let mut keys: Vec<u64> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        for key in sorted {
            match keys.last() {
                Some(&last) if last == key => *counts.last_mut().expect("parallel arrays") += 1,
                _ => {
                    keys.push(key);
                    counts.push(1);
                }
            }
        }
        GramProfile {
            keys,
            counts,
            total,
        }
    }

    /// Trigram profile — the configuration [`trigram_similarity`] and the
    /// matching row kernel use.
    pub fn trigrams(s: &str) -> Self {
        GramProfile::new(s, 3)
    }

    /// The sorted distinct gram keys — the flat compare lanes.
    #[inline]
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Occurrence counts parallel to [`keys`](GramProfile::keys).
    #[inline]
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The multiset's total size `|A|` (sum of counts).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether the profile holds no grams.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of *distinct* grams.
    pub fn distinct(&self) -> usize {
        self.keys.len()
    }

    /// Multiset intersection size `|A ∩ B|` via an element-at-a-time
    /// linear merge over the two sorted key lanes — the scalar oracle
    /// the blocked variant is differential-tested against.
    pub fn intersection(&self, other: &GramProfile) -> u64 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut inter = 0u64;
        while i < self.keys.len() && j < other.keys.len() {
            let (ka, kb) = (self.keys[i], other.keys[j]);
            match ka.cmp(&kb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += u64::from(self.counts[i].min(other.counts[j]));
                    i += 1;
                    j += 1;
                }
            }
        }
        inter
    }

    /// [`intersection`](GramProfile::intersection) with four-lane block
    /// skipping: whenever the next `GRAM_BLOCK_LANES` (four) keys of one side
    /// all sit strictly below the other side's current key (one compare
    /// against the block's maximum lane — keys are sorted), the whole
    /// block is skipped without touching its lanes individually. Runs of
    /// non-overlapping keys — the common case for distinct labels, whose
    /// profiles share only a few grams — cost one comparison per four
    /// lanes instead of one per element. Matching keys contribute
    /// `min(count_a, count_b)` exactly as the oracle does, so the result
    /// is always identical.
    pub fn intersection_blocked(&self, other: &GramProfile) -> u64 {
        const B: usize = GRAM_BLOCK_LANES;
        let (ak, bk) = (&self.keys[..], &other.keys[..]);
        let (mut i, mut j) = (0usize, 0usize);
        let mut inter = 0u64;
        while i < ak.len() && j < bk.len() {
            while i + B <= ak.len() && ak[i + B - 1] < bk[j] {
                i += B;
            }
            if i >= ak.len() {
                break;
            }
            while j + B <= bk.len() && bk[j + B - 1] < ak[i] {
                j += B;
            }
            if j >= bk.len() {
                break;
            }
            let (ka, kb) = (ak[i], bk[j]);
            if ka == kb {
                inter += u64::from(self.counts[i].min(other.counts[j]));
                i += 1;
                j += 1;
            } else if ka < kb {
                i += 1;
            } else {
                j += 1;
            }
        }
        inter
    }
}

/// `(|A ∩ B|, |A|, |B|)` of two profiles.
fn multiset_sizes(a: &GramProfile, b: &GramProfile) -> (u64, u64, u64) {
    (a.intersection(b), a.total, b.total)
}

/// Multiset Dice coefficient of the `n`-gram profiles of `a` and `b`:
/// `2·|A ∩ B| / (|A| + |B|)`.
pub fn dice_ngram(a: &str, b: &str, n: usize) -> f64 {
    if a == b {
        return 1.0;
    }
    dice_profiles(&GramProfile::new(a, n), &GramProfile::new(b, n))
}

/// Dice over prebuilt profiles. Callers must handle the `a == b` fast
/// path themselves (equal strings short-circuit to `1.0` in
/// [`dice_ngram`] *before* profiles are consulted).
pub(crate) fn dice_profiles(pa: &GramProfile, pb: &GramProfile) -> f64 {
    let (inter, sa, sb) = multiset_sizes(pa, pb);
    if sa + sb == 0 {
        return 1.0;
    }
    clamp01(2.0 * inter as f64 / (sa + sb) as f64)
}

/// [`dice_profiles`] with the intersection computed by the blocked
/// (four-lane skipping) merge — what the vectorised kernel tiers call.
/// Identical result by the intersection equivalence.
pub(crate) fn dice_profiles_blocked(pa: &GramProfile, pb: &GramProfile) -> f64 {
    let (inter, sa, sb) = (pa.intersection_blocked(pb), pa.total, pb.total);
    if sa + sb == 0 {
        return 1.0;
    }
    clamp01(2.0 * inter as f64 / (sa + sb) as f64)
}

/// Trigram Dice similarity — the most common n-gram configuration in the
/// schema-matching literature.
///
/// ```
/// assert!(smx_text::trigram_similarity("telephone", "phone") > 0.3);
/// assert_eq!(smx_text::trigram_similarity("x", "x"), 1.0);
/// ```
pub fn trigram_similarity(a: &str, b: &str) -> f64 {
    dice_ngram(a, b, 3)
}

/// Test-only reference implementations over the original
/// `HashMap<String, u32>` profiles ([`ngram_profile`]). Not part of the
/// supported API — kept so differential tests can assert the flat
/// [`GramProfile`] path reproduces the hash-map path exactly.
#[doc(hidden)]
pub mod reference {
    use super::{clamp01, ngram_profile};
    use std::collections::HashMap;

    fn multiset_sizes(a: &HashMap<String, u32>, b: &HashMap<String, u32>) -> (u64, u64, u64) {
        let inter: u64 = a
            .iter()
            .map(|(g, &ca)| u64::from(ca.min(b.get(g).copied().unwrap_or(0))))
            .sum();
        let size_a: u64 = a.values().map(|&c| u64::from(c)).sum();
        let size_b: u64 = b.values().map(|&c| u64::from(c)).sum();
        (inter, size_a, size_b)
    }

    /// Reference [`super::dice_ngram`].
    pub fn dice_ngram(a: &str, b: &str, n: usize) -> f64 {
        if a == b {
            return 1.0;
        }
        let (inter, sa, sb) = multiset_sizes(&ngram_profile(a, n), &ngram_profile(b, n));
        if sa + sb == 0 {
            return 1.0;
        }
        clamp01(2.0 * inter as f64 / (sa + sb) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_counts_duplicates() {
        let p = ngram_profile("aaa", 2);
        // #a, aa, aa, a#
        assert_eq!(p.get("aa"), Some(&2));
        assert_eq!(p.get("#a"), Some(&1));
        assert_eq!(p.get("a#"), Some(&1));
        let flat = GramProfile::new("aaa", 2);
        assert_eq!(flat.total(), 4);
        assert_eq!(flat.distinct(), 3);
    }

    #[test]
    fn profile_edge_cases() {
        assert!(ngram_profile("", 3).is_empty());
        assert!(ngram_profile("abc", 0).is_empty());
        assert!(GramProfile::new("", 3).is_empty());
        assert!(GramProfile::new("abc", 0).is_empty());
        // n=1 means no padding.
        let p = ngram_profile("ab", 1);
        assert_eq!(p.len(), 2);
        assert_eq!(GramProfile::new("ab", 1).distinct(), 2);
    }

    #[test]
    fn packed_keys_are_injective_for_short_grams() {
        // Distinct ASCII trigrams must never share a key (packing is
        // bijective below 8 UTF-8 bytes).
        let grams = ["#ab", "ab#", "abc", "abd", "ba#", "###", "a#b"];
        let keys: Vec<u64> = grams
            .iter()
            .map(|g| gram_key(&g.chars().collect::<Vec<char>>()))
            .collect();
        for i in 0..keys.len() {
            for j in 0..i {
                assert_ne!(keys[i], keys[j], "{} vs {}", grams[i], grams[j]);
            }
        }
        // Multi-byte windows beyond 7 bytes land in the hashed range.
        let wide: Vec<char> = "日本語".chars().collect();
        assert_eq!(gram_key(&wide) >> 56, 0xFF);
        // Packed and hashed ranges are disjoint.
        assert!(keys.iter().all(|k| (k >> 56) <= 7));
    }

    #[test]
    fn flat_matches_reference_on_fixtures() {
        let pairs = [
            ("night", "nacht"),
            ("orders", "order"),
            ("", "q"),
            ("aaa", "aa"),
            ("naïve", "naive"),
            ("日本語スキーマ", "日本スキーマ"),
            ("custOrderNo", "custordernum"),
        ];
        for n in 1..=4 {
            for (a, b) in pairs {
                assert_eq!(
                    dice_ngram(a, b, n).to_bits(),
                    reference::dice_ngram(a, b, n).to_bits(),
                    "dice {a:?} {b:?} n={n}"
                );
            }
        }
    }

    #[test]
    fn dice_basics() {
        assert_eq!(dice_ngram("", "", 3), 1.0);
        let d = dice_ngram("night", "nacht", 2);
        assert!(d > 0.0 && d < 1.0);
    }

    #[test]
    fn symmetric() {
        for (a, b) in [("orders", "order"), ("isbn", "issn"), ("", "q")] {
            assert!((dice_ngram(a, b, 3) - dice_ngram(b, a, 3)).abs() < 1e-12);
        }
    }

    #[test]
    fn padding_makes_short_strings_comparable() {
        // Without padding "ab" has no trigram at all; with padding it does.
        assert!(trigram_similarity("ab", "ab") == 1.0);
        assert!(trigram_similarity("ab", "ac") > 0.0);
    }

    #[test]
    fn blocked_intersection_equals_scalar_merge() {
        // Mixed lengths force every block-skip branch: short-vs-long,
        // block remainders, disjoint runs, heavy overlaps, duplicates.
        let inputs = [
            "",
            "a",
            "aaa",
            "night",
            "nacht",
            "custOrderNo",
            "custordernum",
            "the_quick_brown_fox_jumps_over_the_lazy_dog",
            "日本語スキーマ",
            "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
            "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz",
        ];
        for n in 1..=4 {
            for a in inputs {
                for b in inputs {
                    let (pa, pb) = (GramProfile::new(a, n), GramProfile::new(b, n));
                    assert_eq!(
                        pa.intersection_blocked(&pb),
                        pa.intersection(&pb),
                        "{a:?} vs {b:?} n={n}"
                    );
                    assert_eq!(
                        dice_profiles_blocked(&pa, &pb).to_bits(),
                        dice_profiles(&pa, &pb).to_bits(),
                        "dice {a:?} vs {b:?} n={n}"
                    );
                }
            }
        }
    }
}
