//! Candidate-generation filter index: admissible per-label upper bounds
//! on the default name-similarity mix.
//!
//! The exhaustive matcher ultimately pays a full `k × n` row sweep per
//! distinct personal label. The source paper's framing of
//! non-exhaustive systems is that skipping work is fine *as long as the
//! effectiveness given up is bounded* — which requires a cheap,
//! **admissible** estimate of how similar a stored label could possibly
//! be to a query. This module provides that estimate: per stored label
//! a small structure-of-arrays `FilterProfile` (normalised length,
//! first-four-character prefix lane, character-unigram multiset,
//! distinct-token lengths and initials, and the label's trigram
//! [`GramProfile`] lanes shared with the row kernel), plus a trigram
//! inverted index so gram intersections are accumulated sparsely over
//! posting lists instead of per pair.
//!
//! [`FilterIndex::sim_upper_bounds`] returns, for one prepared query
//! ([`QueryFilter`]), a value per stored label that is **never below**
//! the true `NameSimilarity::similarity` of the pair (property-tested
//! against the scalar oracle). The bound reproduces the mix term by
//! term from [`smx_text::default_name_mix`]:
//!
//! * **Trigram** — the *exact* Dice coefficient, assembled from the
//!   inverted index (labels sharing no gram with the query contribute
//!   zero without being touched).
//! * **Jaro–Winkler** — Jaro's match count `m` is at most
//!   `min(|a|, |b|, unigram-multiset overlap)` and its transposition
//!   term is at most `1`, so `(m/|a| + m/|b| + 1)/3` bounds Jaro; the
//!   Winkler prefix is computed exactly from the stored prefix lanes.
//!   Both Jaro–Winkler's boost and the bound are monotone in Jaro, so
//!   the composition stays admissible.
//! * **Token set** — the exact token-set Dice (sorted distinct-token
//!   merge) joined with a Monge–Elkan bound: Monge–Elkan never exceeds
//!   the best token-pair Jaro–Winkler, which is bounded per query token
//!   from its unigram overlap with the label's characters (each token's
//!   characters are a sub-multiset of the label's normalised form), the
//!   stored distinct token lengths, and the token-initials mask (no
//!   shared initial ⇒ no Winkler boost).
//! * **Levenshtein** — edit distance is at least the length difference,
//!   so `1 - |len_a - len_b| / max_len` bounds the similarity from the
//!   length lanes alone.
//!
//! A `BOUND_EPS` margin absorbs ulp-level float wobble between the
//! bound's arithmetic and the oracle's; raw-equal pairs and labels
//! whose normalised form is empty are handled by the oracle's own
//! conventions rather than the per-measure bounds.

use crate::intern::LabelId;
use smx_text::{clamp01, default_name_mix, GramProfile, LabelProfile, SimilarityMeasure};
use std::collections::HashMap;

/// Winkler prefix scaling factor — must match `smx_text::jaro_winkler`.
const WINKLER_SCALING: f64 = 0.1;
/// Winkler prefix cap — must match `smx_text::jaro_winkler`.
const MAX_PREFIX: usize = 4;

/// Additive slack on every composed bound, absorbing ulp-level
/// differences between the bound's float arithmetic and the oracle's.
pub const BOUND_EPS: f64 = 1e-9;

/// Map a character to its token-initials bucket: `a..z` and `0..9` get
/// their own bit, everything else shares a catch-all bit (collisions
/// only ever *allow* a Winkler boost, which keeps the bound admissible).
fn initial_bucket(c: char) -> u32 {
    match c {
        'a'..='z' => c as u32 - 'a' as u32,
        '0'..='9' => 26 + (c as u32 - '0' as u32),
        _ => 36,
    }
}

/// Run-length-encoded character multiset: `(scalar, count)` sorted by
/// scalar ascending.
fn unigram_lanes(chars: impl Iterator<Item = char>) -> Vec<(u32, u32)> {
    let mut scalars: Vec<u32> = chars.map(|c| c as u32).collect();
    scalars.sort_unstable();
    let mut lanes: Vec<(u32, u32)> = Vec::new();
    for s in scalars {
        match lanes.last_mut() {
            Some(l) if l.0 == s => l.1 += 1,
            _ => lanes.push((s, 1)),
        }
    }
    lanes
}

/// Multiset overlap `Σ_c min(count_a(c), count_b(c))` of two sorted
/// unigram lanes, by linear merge.
fn overlap(a: &[(u32, u32)], b: &[(u32, u32)]) -> u32 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut ov = 0u32;
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                ov += a[i].1.min(b[j].1);
                i += 1;
                j += 1;
            }
        }
    }
    ov
}

/// Count of common elements of two sorted deduplicated string slices.
fn sorted_str_intersection(a: &[String], b: &[String]) -> usize {
    let (mut i, mut j) = (0usize, 0usize);
    let mut inter = 0usize;
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
    inter
}

/// Per-label filter lanes: everything the admissible bound needs to
/// score "how similar could this label possibly be", without the label
/// text itself.
#[derive(Debug, Clone)]
struct FilterProfile {
    /// Normalised-form length in scalar values (the Levenshtein and
    /// Jaro denominators; `0` marks a degenerate label whose
    /// normalised form is empty).
    norm_len: u32,
    /// First four scalar values of the normalised form (`0`-padded; the
    /// pad is never compared because the prefix walk is clipped to
    /// `norm_len`).
    prefix: [u32; 4],
    /// Character-unigram multiset of the normalised form, sorted.
    unigrams: Vec<(u32, u32)>,
    /// Number of distinct identifier tokens.
    token_count: u32,
    /// Distinct token lengths (in chars), sorted ascending.
    token_lens: Vec<u32>,
    /// Token-initials bucket mask (see [`initial_bucket`]).
    initials: u64,
    /// Trigram profile of the normalised form — the same SoA lanes the
    /// row kernel compares, cloned at ingest so the sort happens once.
    grams: GramProfile,
}

impl FilterProfile {
    /// Derive the filter lanes from a label's kernel profile.
    fn from_label(p: &LabelProfile) -> Self {
        let mut prefix = [0u32; 4];
        for (i, c) in p.normalized().chars().take(MAX_PREFIX).enumerate() {
            prefix[i] = c as u32;
        }
        let mut token_lens: Vec<u32> = p
            .token_set()
            .iter()
            .map(|t| t.chars().count() as u32)
            .collect();
        token_lens.sort_unstable();
        token_lens.dedup();
        let mut initials = 0u64;
        for t in p.token_set() {
            if let Some(c) = t.chars().next() {
                initials |= 1u64 << initial_bucket(c);
            }
        }
        FilterProfile {
            norm_len: p.scalar_len() as u32,
            prefix,
            unigrams: unigram_lanes(p.normalized().chars()),
            token_count: p.token_set().len() as u32,
            token_lens,
            initials,
            grams: p.grams().clone(),
        }
    }
}

/// Per distinct query token: `(char length, initial bucket, unigram lanes)`.
type TokenUnigrams = (u32, u32, Vec<(u32, u32)>);

/// A query prepared for bounding against every stored label: its own
/// kernel profile (normalised form, token set, gram lanes), its filter
/// lanes, and per-distinct-token unigram multisets for the Monge–Elkan
/// bound.
#[derive(Debug, Clone)]
pub struct QueryFilter {
    raw: String,
    profile: LabelProfile,
    lanes: FilterProfile,
    token_unigrams: Vec<TokenUnigrams>,
}

impl QueryFilter {
    /// Prepare `query` for candidate generation.
    pub fn new(query: &str) -> Self {
        let profile = LabelProfile::new(query);
        let lanes = FilterProfile::from_label(&profile);
        let token_unigrams = profile
            .token_set()
            .iter()
            .map(|t| {
                let chars: Vec<char> = t.chars().collect();
                let init = initial_bucket(chars[0]); // tokens are non-empty
                (
                    chars.len() as u32,
                    init,
                    unigram_lanes(chars.iter().copied()),
                )
            })
            .collect();
        QueryFilter {
            raw: query.to_owned(),
            profile,
            lanes,
            token_unigrams,
        }
    }

    /// The query string as given.
    pub fn raw(&self) -> &str {
        &self.raw
    }
}

/// The candidate-generation index over every stored label: filter lanes
/// per label plus a trigram inverted index (`gram key → (label, count)`
/// postings, labels ascending), maintained incrementally as labels are
/// ingested.
#[derive(Debug, Clone, Default)]
pub struct FilterIndex {
    profiles: Vec<FilterProfile>,
    tri_postings: HashMap<u64, Vec<(u32, u32)>>,
}

impl FilterIndex {
    /// An empty index.
    pub fn new() -> Self {
        FilterIndex::default()
    }

    /// Number of indexed labels.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether no label is indexed yet.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Index the next label (ids are dense and append-only, mirroring
    /// the interner).
    pub fn add_label(&mut self, profile: &LabelProfile) {
        let id = self.profiles.len() as u32;
        let lanes = FilterProfile::from_label(profile);
        for (&key, &count) in lanes.grams.keys().iter().zip(lanes.grams.counts()) {
            self.tri_postings.entry(key).or_default().push((id, count));
        }
        self.profiles.push(lanes);
    }

    /// Rebuild the whole index from kernel profiles (every snapshot
    /// load: the lanes are a pure function of the label text, so they
    /// are never persisted).
    pub fn rebuild(profiles: &[LabelProfile]) -> Self {
        let mut index = FilterIndex::new();
        for p in profiles {
            index.add_label(p);
        }
        index
    }

    /// Admissible upper bound on `NameSimilarity::similarity(query, l)`
    /// for every stored label `l`, written into `out` (indexed by label
    /// id). `label_profiles` are the store's kernel profiles (for the
    /// exact token-set Dice merge) and `exact` is the label raw-equal
    /// to the query, if interned — that pair scores `1.0` by the
    /// oracle's raw-equality convention.
    pub fn sim_upper_bounds(
        &self,
        query: &QueryFilter,
        label_profiles: &[LabelProfile],
        exact: Option<LabelId>,
        out: &mut Vec<f64>,
    ) {
        let n = self.profiles.len();
        debug_assert_eq!(n, label_profiles.len());
        out.clear();
        out.resize(n, 0.0);
        let q = &query.lanes;
        if q.norm_len == 0 {
            // A normalisation-empty query scores 1.0 against every
            // normalisation-empty label (every measure's both-empty
            // convention) and 0.0 against everything else.
            for (slot, p) in out.iter_mut().zip(&self.profiles) {
                *slot = if p.norm_len == 0 { 1.0 } else { 0.0 };
            }
            if let Some(id) = exact {
                out[id.index()] = 1.0;
            }
            return;
        }
        // Exact trigram intersections, accumulated sparsely: labels
        // sharing no gram with the query keep intersection 0.
        let mut tri = vec![0u32; n];
        for (&key, &qcount) in q.grams.keys().iter().zip(q.grams.counts()) {
            if let Some(postings) = self.tri_postings.get(&key) {
                for &(label, lcount) in postings {
                    tri[label as usize] += qcount.min(lcount);
                }
            }
        }
        for (i, p) in self.profiles.iter().enumerate() {
            out[i] = self.full_bound_inner(query, label_profiles, i, tri[i], p);
        }
        if let Some(id) = exact {
            out[id.index()] = 1.0;
        }
    }

    /// [`sim_upper_bounds`](Self::sim_upper_bounds) with the expensive
    /// token-set lane replaced by its trivial cap `1.0` — every value is
    /// still an admissible upper bound, just a weaker one (never below
    /// the full bound). The exact trigram intersection counts the pass
    /// accumulates are written to `tri` (indexed by label id) so
    /// individual labels can later be promoted to full precision without
    /// re-walking the posting lists. The store's memoised bound rows
    /// ([`LabelStore::bound_row`](crate::LabelStore::bound_row)) run on
    /// this pass and refine only the labels candidate generation asks
    /// for.
    pub fn sim_upper_bounds_cheap(
        &self,
        query: &QueryFilter,
        exact: Option<LabelId>,
        out: &mut Vec<f64>,
        tri: &mut Vec<u32>,
    ) {
        let n = self.profiles.len();
        out.clear();
        out.resize(n, 0.0);
        tri.clear();
        tri.resize(n, 0);
        let q = &query.lanes;
        if q.norm_len == 0 {
            for (slot, p) in out.iter_mut().zip(&self.profiles) {
                *slot = if p.norm_len == 0 { 1.0 } else { 0.0 };
            }
            if let Some(id) = exact {
                out[id.index()] = 1.0;
            }
            return;
        }
        for (&key, &qcount) in q.grams.keys().iter().zip(q.grams.counts()) {
            if let Some(postings) = self.tri_postings.get(&key) {
                for &(label, lcount) in postings {
                    tri[label as usize] += qcount.min(lcount);
                }
            }
        }
        let mix = default_name_mix();
        let total_weight: f64 = mix.iter().map(|&(_, w)| w).sum();
        let sa = q.grams.total();
        // The query's unigram counts as a dense ASCII table: the inner
        // loop then reads label lanes straight through instead of
        // running a sorted merge per label. Non-ASCII query codes (rare
        // in normalised identifiers) fall back to the merge.
        let mut qtab = [0u32; 128];
        let mut q_wide = false;
        for &(c, n) in &q.unigrams {
            match qtab.get_mut(c as usize) {
                Some(slot) => *slot = n,
                None => q_wide = true,
            }
        }
        for (i, p) in self.profiles.iter().enumerate() {
            if p.norm_len == 0 {
                out[i] = 0.0;
                continue;
            }
            let tri_ub = clamp01(2.0 * tri[i] as f64 / (sa + p.grams.total()) as f64);
            let ov = if q_wide {
                overlap(&q.unigrams, &p.unigrams)
            } else {
                // Codes ≥ 128 on the label side cannot match an
                // all-ASCII query, so skipping them preserves equality
                // with the merge.
                p.unigrams
                    .iter()
                    .map(|&(c, n)| match qtab.get(c as usize) {
                        Some(&qc) => n.min(qc),
                        None => 0,
                    })
                    .sum()
            };
            let jw_ub = jw_upper_with(ov, q, p);
            let lev_ub = lev_upper(q.norm_len, p.norm_len);
            let mut score = 0.0;
            for &(measure, weight) in mix {
                let bound = match measure {
                    SimilarityMeasure::Trigram => tri_ub,
                    SimilarityMeasure::JaroWinkler => jw_ub,
                    SimilarityMeasure::TokenSet => 1.0,
                    SimilarityMeasure::Levenshtein => lev_ub,
                };
                score += weight * bound;
            }
            out[i] = (score / total_weight + BOUND_EPS).min(1.0);
        }
        if let Some(id) = exact {
            out[id.index()] = 1.0;
        }
    }

    /// Full-precision upper bound for one label, given the trigram
    /// intersection count the cheap pass recorded for it. Returns
    /// exactly the value [`sim_upper_bounds`](Self::sim_upper_bounds)
    /// would have written at `id` (including the raw-equality
    /// convention when `exact == Some(id)`), so promoting a cheap bound
    /// never changes what a full pass would have decided.
    pub(crate) fn refine_sim_upper_bound(
        &self,
        query: &QueryFilter,
        label_profiles: &[LabelProfile],
        exact: Option<LabelId>,
        id: LabelId,
        tri_count: u32,
    ) -> f64 {
        if exact == Some(id) {
            return 1.0;
        }
        let q = &query.lanes;
        let p = &self.profiles[id.index()];
        if q.norm_len == 0 {
            return if p.norm_len == 0 { 1.0 } else { 0.0 };
        }
        self.full_bound_inner(query, label_profiles, id.index(), tri_count, p)
    }

    /// The full four-lane bound of one non-empty-query pair — shared by
    /// the dense pass and per-label refinement so both produce bitwise
    /// identical values.
    fn full_bound_inner(
        &self,
        query: &QueryFilter,
        label_profiles: &[LabelProfile],
        i: usize,
        tri_count: u32,
        p: &FilterProfile,
    ) -> f64 {
        if p.norm_len == 0 {
            // Non-empty query vs empty label: every measure's
            // one-empty convention scores 0 (token sets included —
            // an empty normalised form has no tokens).
            return 0.0;
        }
        let q = &query.lanes;
        let mix = default_name_mix();
        let total_weight: f64 = mix.iter().map(|&(_, w)| w).sum();
        let sa = q.grams.total();
        let tri_ub = clamp01(2.0 * tri_count as f64 / (sa + p.grams.total()) as f64);
        let jw_ub = jw_upper(q, p);
        let ts_ub = token_set_upper(query, p, label_profiles[i].token_set());
        let lev_ub = lev_upper(q.norm_len, p.norm_len);
        let mut score = 0.0;
        for &(measure, weight) in mix {
            let bound = match measure {
                SimilarityMeasure::Trigram => tri_ub,
                SimilarityMeasure::JaroWinkler => jw_ub,
                SimilarityMeasure::TokenSet => ts_ub,
                SimilarityMeasure::Levenshtein => lev_ub,
            };
            score += weight * bound;
        }
        (score / total_weight + BOUND_EPS).min(1.0)
    }
}

/// Upper bound on Jaro–Winkler of two non-empty normalised forms from
/// their length, unigram, and prefix lanes.
fn jw_upper(q: &FilterProfile, p: &FilterProfile) -> f64 {
    jw_upper_with(overlap(&q.unigrams, &p.unigrams), q, p)
}

/// [`jw_upper`] with the raw unigram overlap already computed — the
/// cheap sweep amortises the query side into a dense count table and
/// hands the overlap in, so both entry points stay bitwise identical.
fn jw_upper_with(overlap: u32, q: &FilterProfile, p: &FilterProfile) -> f64 {
    let m = overlap.min(q.norm_len).min(p.norm_len);
    if m == 0 {
        // No shared character ⇒ no Jaro match and no common prefix.
        return 0.0;
    }
    let j = jaro_upper(m, q.norm_len, p.norm_len);
    let limit = MAX_PREFIX.min(q.norm_len as usize).min(p.norm_len as usize);
    let mut prefix = 0usize;
    while prefix < limit && q.prefix[prefix] == p.prefix[prefix] {
        prefix += 1;
    }
    winkler_boost(j, prefix)
}

/// `(m/|a| + m/|b| + 1)/3`, capped at 1 — Jaro with its transposition
/// term replaced by its maximum, monotone in the match count `m`.
fn jaro_upper(m: u32, la: u32, lb: u32) -> f64 {
    let mf = m as f64;
    ((mf / la as f64 + mf / lb as f64 + 1.0) / 3.0).min(1.0)
}

/// The Winkler boost applied to a Jaro bound: monotone in `j` (slope
/// `1 - 0.1·prefix ≥ 0.6`), so boosting an upper bound stays an upper
/// bound.
fn winkler_boost(j: f64, prefix: usize) -> f64 {
    (j + prefix as f64 * WINKLER_SCALING * (1.0 - j)).min(1.0)
}

/// Upper bound on the token-set measure (Dice ⊔ Monge–Elkan): the Dice
/// part is exact (sorted distinct-token merge); Monge–Elkan is bounded
/// by the best token-pair Jaro–Winkler, itself bounded per query token
/// from lane data (a label token's characters are a sub-multiset of the
/// label's normalised form, so the token-vs-label unigram overlap
/// bounds every token-vs-token overlap).
fn token_set_upper(query: &QueryFilter, p: &FilterProfile, label_tokens: &[String]) -> f64 {
    let tq = query.profile.token_set().len();
    let tl = p.token_count as usize;
    debug_assert!(tq > 0 && tl > 0, "degenerate labels handled by caller");
    let inter = sorted_str_intersection(query.profile.token_set(), label_tokens);
    let dice = clamp01(2.0 * inter as f64 / (tq + tl) as f64);
    let mut me = 0.0f64;
    for (lx, init, uni) in &query.token_unigrams {
        let ov = overlap(uni, &p.unigrams);
        if ov == 0 {
            continue; // no shared character with any label token
        }
        let allow_prefix = p.initials & (1u64 << init) != 0;
        for &ly in &p.token_lens {
            let m = ov.min(*lx).min(ly);
            if m == 0 {
                continue;
            }
            let j = jaro_upper(m, *lx, ly);
            let prefix = if allow_prefix {
                MAX_PREFIX.min(*lx as usize).min(ly as usize)
            } else {
                0
            };
            me = me.max(winkler_boost(j, prefix));
        }
    }
    dice.max(me)
}

/// Upper bound on normalised Levenshtein similarity of two non-empty
/// forms from the length lanes alone: `d ≥ |la - lb|`.
fn lev_upper(la: u32, lb: u32) -> f64 {
    1.0 - la.abs_diff(lb) as f64 / la.max(lb) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_text::NameSimilarity;

    fn index_of(labels: &[&str]) -> (FilterIndex, Vec<LabelProfile>) {
        let profiles: Vec<LabelProfile> = labels.iter().map(|l| LabelProfile::new(l)).collect();
        (FilterIndex::rebuild(&profiles), profiles)
    }

    fn check_admissible(queries: &[&str], labels: &[&str]) {
        let (index, profiles) = index_of(labels);
        let oracle = NameSimilarity::default();
        let mut out = Vec::new();
        for q in queries {
            let filter = QueryFilter::new(q);
            let exact = labels
                .iter()
                .position(|l| l == q)
                .map(|i| LabelId(i as u32));
            index.sim_upper_bounds(&filter, &profiles, exact, &mut out);
            for (i, label) in labels.iter().enumerate() {
                let actual = oracle.similarity(q, label);
                assert!(
                    out[i] >= actual,
                    "bound {} < actual {} for ({q:?}, {label:?})",
                    out[i],
                    actual,
                );
                assert!(out[i] <= 1.0);
            }
        }
    }

    #[test]
    fn bound_is_admissible_on_identifier_corpus() {
        let corpus = [
            "title",
            "subtitle",
            "pubYear",
            "publicationYear",
            "year",
            "isbn13",
            "ISBN",
            "custName",
            "customerName",
            "cust_no",
            "orderLineItem",
            "lineOrder",
            "XMLSchema",
            "price",
            "prices",
            "a",
            "zz",
            "i18n",
            "HTTPSPort",
            "__x__",
            "--__--",
            "",
            "éditeur",
            "año2024",
        ];
        check_admissible(&corpus, &corpus);
    }

    #[test]
    fn cheap_pass_dominates_full_pass_and_refine_matches_it() {
        let corpus = [
            "title",
            "subtitle",
            "pubYear",
            "publicationYear",
            "year",
            "customerName",
            "price",
            "a",
            "--__--",
            "",
            "éditeur",
        ];
        let (index, profiles) = index_of(&corpus);
        let oracle = NameSimilarity::default();
        let (mut full, mut cheap, mut tri) = (Vec::new(), Vec::new(), Vec::new());
        for q in corpus.iter().chain(["custName", "isbn", "__"].iter()) {
            let filter = QueryFilter::new(q);
            let exact = corpus
                .iter()
                .position(|l| l == q)
                .map(|i| LabelId(i as u32));
            index.sim_upper_bounds(&filter, &profiles, exact, &mut full);
            index.sim_upper_bounds_cheap(&filter, exact, &mut cheap, &mut tri);
            for (i, label) in corpus.iter().enumerate() {
                // Cheap is admissible and never tighter than full …
                assert!(cheap[i] >= oracle.similarity(q, label) - f64::EPSILON);
                assert!(
                    cheap[i] >= full[i] - f64::EPSILON,
                    "cheap {} < full {} for ({q:?}, {label:?})",
                    cheap[i],
                    full[i],
                );
                // … and refinement reproduces the full pass bitwise.
                let refined = index.refine_sim_upper_bound(
                    &filter,
                    &profiles,
                    exact,
                    LabelId(i as u32),
                    tri[i],
                );
                assert_eq!(refined.to_bits(), full[i].to_bits());
            }
        }
    }

    #[test]
    fn raw_equal_pair_scores_one() {
        let (index, profiles) = index_of(&["--__--", "title"]);
        let mut out = Vec::new();
        let q = QueryFilter::new("--__--");
        index.sim_upper_bounds(&q, &profiles, Some(LabelId(0)), &mut out);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[1], 0.0); // degenerate query vs normal label
    }

    #[test]
    fn degenerate_labels_follow_empty_conventions() {
        // Two distinct punctuation-only names: every base measure hits
        // its both-empty convention, so the oracle scores 1.0.
        let oracle = NameSimilarity::default();
        assert_eq!(oracle.similarity("--", "__"), 1.0);
        let (index, profiles) = index_of(&["--", "title"]);
        let mut out = Vec::new();
        index.sim_upper_bounds(&QueryFilter::new("__"), &profiles, None, &mut out);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn disjoint_labels_are_cheaply_bounded() {
        let (index, profiles) = index_of(&["zzz", "qqq"]);
        let mut out = Vec::new();
        index.sim_upper_bounds(&QueryFilter::new("aaa"), &profiles, None, &mut out);
        // No shared grams, chars, or tokens: only the Levenshtein
        // length term (equal lengths → 1.0) survives, at weight 0.1.
        for &b in &out {
            assert!(b <= 0.1 + 2.0 * BOUND_EPS, "bound {b} too loose");
        }
    }
}
