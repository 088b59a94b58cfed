//! Edit-distance measures.
//!
//! [`levenshtein`] is the classic insert/delete/substitute distance;
//! [`levenshtein_similarity`] normalises the distance into a `[0, 1]`
//! similarity by dividing by the longer input's length.

use crate::clamp01;

/// Levenshtein edit distance between `a` and `b`, in Unicode scalar values.
///
/// Exact distances via a tiered implementation, fastest first:
///
/// 1. **Myers bit-parallel** (`O(|b|)` words of work) when both inputs are
///    ASCII and the shorter fits in one 64-bit word — the common case for
///    schema element names, and the path the matching cost-matrix fill
///    leans on;
/// 2. byte-slice two-row DP for longer ASCII inputs (no `Vec<char>`
///    allocation);
/// 3. the classic `char`-based two-row DP for anything non-ASCII.
///
/// ```
/// assert_eq!(smx_text::levenshtein("kitten", "sitting"), 3);
/// assert_eq!(smx_text::levenshtein("", "abc"), 3);
/// ```
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a.is_ascii() && b.is_ascii() {
        let (short, long) = if a.len() <= b.len() {
            (a.as_bytes(), b.as_bytes())
        } else {
            (b.as_bytes(), a.as_bytes())
        };
        if short.is_empty() {
            return long.len();
        }
        if short.len() <= 64 {
            return myers_64(short, long);
        }
        return two_row_dp(short, long);
    }
    let ac: Vec<char> = a.chars().collect();
    let bc: Vec<char> = b.chars().collect();
    let (short, long) = if ac.len() <= bc.len() {
        (ac, bc)
    } else {
        (bc, ac)
    };
    if short.is_empty() {
        return long.len();
    }
    two_row_dp(&short, &long)
}

/// Build the Myers pattern table of an ASCII pattern: `peq[c]` has bit
/// `i` set iff `short[i] == c`. Requires `1 <= short.len() <= 64`. The
/// table depends only on the pattern, so row-kernel sweeps build it once
/// per label and reuse it across a whole candidate row.
pub(crate) fn myers_pattern(short: &[u8]) -> [u64; 128] {
    debug_assert!(!short.is_empty() && short.len() <= 64);
    let mut peq = [0u64; 128];
    for (i, &c) in short.iter().enumerate() {
        peq[usize::from(c & 0x7f)] |= 1 << i;
    }
    peq
}

/// Myers (1999) bit-parallel edit distance: the DP column is packed into
/// one 64-bit word of vertical-delta bits, advanced once per character of
/// `long`. Requires `1 <= short.len() <= 64`.
fn myers_64(short: &[u8], long: &[u8]) -> usize {
    myers_64_prepared(&myers_pattern(short), short.len(), long)
}

/// The Myers advance loop against a prebuilt pattern table. `short_len`
/// must be the pattern length the table was built for (`1..=64`).
pub(crate) fn myers_64_prepared(peq: &[u64; 128], short_len: usize, long: &[u8]) -> usize {
    debug_assert!((1..=64).contains(&short_len));
    let mut pv = !0u64; // vertical delta +1 bits
    let mut mv = 0u64; // vertical delta -1 bits
    let mut score = short_len;
    let high = 1u64 << (short_len - 1);
    for &c in long {
        let eq = peq[usize::from(c & 0x7f)];
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let mut ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & high != 0 {
            score += 1;
        }
        if mh & high != 0 {
            score -= 1;
        }
        ph = (ph << 1) | 1;
        pv = (mh << 1) | !(xv | ph);
        mv = ph & xv;
    }
    score
}

/// One step of the Myers recurrence — the body [`myers_64_prepared`]
/// runs per candidate byte, factored out so the unrolled variant
/// replays exactly the same operation sequence.
#[inline(always)]
fn myers_step(peq: &[u64; 128], c: u8, pv: &mut u64, mv: &mut u64, score: &mut usize, high: u64) {
    let eq = peq[usize::from(c & 0x7f)];
    let xv = eq | *mv;
    let xh = (((eq & *pv).wrapping_add(*pv)) ^ *pv) | eq;
    let mut ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    *score += usize::from(ph & high != 0);
    *score -= usize::from(mh & high != 0);
    ph = (ph << 1) | 1;
    *pv = (mh << 1) | !(xv | ph);
    *mv = ph & xv;
}

/// [`myers_64_prepared`] with the advance loop unrolled four candidate
/// bytes per block, keeping the `pv`/`mv` column state and the prepared
/// pattern table register/cache-resident across the block — the variant
/// the vectorised kernel tiers dispatch to for whole-row sweeps. The
/// recurrence is inherently sequential, so unrolling only removes loop
/// overhead; the step sequence (and therefore the score) is identical
/// to the oracle on every input.
pub(crate) fn myers_64_prepared_unrolled(peq: &[u64; 128], short_len: usize, long: &[u8]) -> usize {
    debug_assert!((1..=64).contains(&short_len));
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = short_len;
    let high = 1u64 << (short_len - 1);
    let mut blocks = long.chunks_exact(4);
    for block in &mut blocks {
        myers_step(peq, block[0], &mut pv, &mut mv, &mut score, high);
        myers_step(peq, block[1], &mut pv, &mut mv, &mut score, high);
        myers_step(peq, block[2], &mut pv, &mut mv, &mut score, high);
        myers_step(peq, block[3], &mut pv, &mut mv, &mut score, high);
    }
    for &c in blocks.remainder() {
        myers_step(peq, c, &mut pv, &mut mv, &mut score, high);
    }
    score
}

/// Two-row dynamic program over any symbol slice: `O(|short|·|long|)`
/// time, one row of space. `short` must be the shorter, non-empty input.
pub(crate) fn two_row_dp<T: PartialEq>(short: &[T], long: &[T]) -> usize {
    let mut row: Vec<usize> = (0..=short.len()).collect();
    for (i, lc) in long.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[short.len()]
}

/// Normalised Levenshtein similarity: `1 - dist / max(|a|, |b|)`.
///
/// Returns `1.0` for two empty strings (they are identical).
///
/// ```
/// let s = smx_text::levenshtein_similarity("author", "authors");
/// assert!((s - 6.0 / 7.0).abs() < 1e-12);
/// ```
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let scalar_len = |s: &str| {
        if s.is_ascii() {
            s.len()
        } else {
            s.chars().count()
        }
    };
    let max_len = scalar_len(a).max(scalar_len(b));
    if max_len == 0 {
        return 1.0;
    }
    clamp01(1.0 - levenshtein(a, b) as f64 / max_len as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("book", "back"), 2);
    }

    #[test]
    fn distance_is_symmetric() {
        for (a, b) in [("kitten", "sitting"), ("schema", "schemata"), ("", "x")] {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
        }
    }

    #[test]
    fn distance_unicode_is_scalar_based() {
        // 2 scalar substitutions, regardless of UTF-8 byte widths.
        assert_eq!(levenshtein("naïve", "naive"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn similarity_range_and_identity() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("title", "title"), 1.0);
        assert_eq!(levenshtein_similarity("a", "b"), 0.0);
        let s = levenshtein_similarity("publisher", "publish");
        assert!(s > 0.7 && s < 1.0);
    }

    #[test]
    fn triangle_inequality_holds_for_distance() {
        let (a, b, c) = ("order", "ordre", "odors");
        assert!(levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c));
    }

    #[test]
    fn myers_agrees_with_dp_on_ascii() {
        // Deterministic pseudo-random ASCII pairs across the whole Myers
        // regime, 0..=70 — deliberately straddling the 64-bit word
        // boundary where the high-bit mask and carry propagation live.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let alphabet = b"abcdefgh_0123";
        let mut checked_at_word_boundary = 0usize;
        for round in 0..1500 {
            // First rounds sweep lengths systematically so every short-side
            // length 0..=70 (incl. exactly 64) is hit; the rest are random.
            let (la, lb) = if round <= 70 {
                (round, round + next() % 7)
            } else {
                (next() % 71, next() % 71)
            };
            let a: String = (0..la)
                .map(|_| alphabet[next() % alphabet.len()] as char)
                .collect();
            let b: String = (0..lb)
                .map(|_| alphabet[next() % alphabet.len()] as char)
                .collect();
            let via_public = levenshtein(&a, &b);
            let (short, long) = if a.len() <= b.len() {
                (a.as_bytes(), b.as_bytes())
            } else {
                (b.as_bytes(), a.as_bytes())
            };
            if short.len() == 64 {
                checked_at_word_boundary += 1;
            }
            let reference = if short.is_empty() {
                long.len()
            } else {
                two_row_dp(short, long)
            };
            assert_eq!(via_public, reference, "{a:?} vs {b:?}");
        }
        assert!(
            checked_at_word_boundary >= 5,
            "only {checked_at_word_boundary} pairs exercised the 64-char word boundary"
        );
    }

    #[test]
    fn myers_exact_word_boundary_pinned_cases() {
        // short side exactly 64: the `1 << 63` high bit is the score bit.
        let base: String = (0..64).map(|i| (b'a' + (i % 26) as u8) as char).collect();
        assert_eq!(levenshtein(&base, &base), 0);
        let mut one_sub = base.clone().into_bytes();
        one_sub[63] = b'!';
        let one_sub = String::from_utf8(one_sub).unwrap();
        assert_eq!(levenshtein(&base, &one_sub), 1);
        let mut first_sub = base.clone().into_bytes();
        first_sub[0] = b'!';
        let first_sub = String::from_utf8(first_sub).unwrap();
        assert_eq!(levenshtein(&base, &first_sub), 1);
        // 64 vs 65 (one insertion at the end, then at the front).
        let appended = format!("{base}z");
        assert_eq!(levenshtein(&base, &appended), 1);
        let prepended = format!("z{base}");
        assert_eq!(levenshtein(&base, &prepended), 1);
        // Completely disjoint 64-char strings: distance = 64.
        let other: String = std::iter::repeat_n('0', 64).collect();
        assert_eq!(levenshtein(&base, &other), 64);
    }

    #[test]
    fn long_ascii_takes_dp_path() {
        let a = "a".repeat(100);
        let b = format!("{}{}", "a".repeat(99), "b");
        assert_eq!(levenshtein(&a, &b), 1);
        assert_eq!(levenshtein(&a, &a), 0);
        // 65-char short side: just past the Myers word width.
        let c = "x".repeat(65);
        let d = "x".repeat(70);
        assert_eq!(levenshtein(&c, &d), 5);
    }

    #[test]
    fn unrolled_myers_equals_oracle() {
        // Pseudo-random ASCII pairs across the Myers regime, plus block
        // remainders 0..=3 — the unrolled loop must replay the oracle's
        // exact step sequence on every length.
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let alphabet = b"abcdef_012";
        for round in 0..600 {
            let la = 1 + round % 64;
            let lb = next() % 80;
            let a: Vec<u8> = (0..la).map(|_| alphabet[next() % alphabet.len()]).collect();
            let b: Vec<u8> = (0..lb).map(|_| alphabet[next() % alphabet.len()]).collect();
            let peq = myers_pattern(&a);
            assert_eq!(
                myers_64_prepared_unrolled(&peq, a.len(), &b),
                myers_64_prepared(&peq, a.len(), &b),
                "{:?} vs {:?}",
                std::str::from_utf8(&a),
                std::str::from_utf8(&b)
            );
        }
    }

    #[test]
    fn mixed_ascii_unicode_consistent() {
        // One ASCII + one non-ASCII input exercises the char DP; distances
        // stay scalar-based.
        assert_eq!(levenshtein("nave", "naïve"), 1);
        assert_eq!(levenshtein("naïve", "nave"), 1);
    }
}
