//! Crate-wide property tests: every similarity is in [0,1], symmetric, and
//! scores identical inputs as 1 — plus the differential suites gating the
//! batched row kernel and the flat n-gram profiles against their scalar
//! reference paths (bitwise).

use proptest::prelude::*;
use smx_text::*;

fn ident() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z0-9_\\- ]{0,16}").unwrap()
}

/// Labels for the row-kernel differential tests: mixed-case identifiers
/// with non-ASCII letters, long enough (0..=70 normalised chars) to
/// straddle the 64-char Myers word boundary.
fn kernel_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z0-9_äößé\\-]{0,70}").unwrap()
}

/// Lowercase ASCII strings that normalise to themselves, pinned to the
/// Myers boundary regime (shorter side 60..=70).
fn boundary_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z]{60,70}").unwrap()
}

type Measure = fn(&str, &str) -> f64;

/// All (name, function) pairs under test.
fn all_measures() -> Vec<(&'static str, Measure)> {
    vec![
        ("levenshtein", levenshtein_similarity),
        ("jaro", jaro),
        ("jaro_winkler", jaro_winkler),
        ("trigram", trigram_similarity),
        ("dice_tokens", dice_tokens),
        ("monge_elkan", monge_elkan),
        ("token_set", token_set_similarity),
    ]
}

proptest! {
    #[test]
    fn scores_in_unit_interval(a in ident(), b in ident()) {
        for (name, f) in all_measures() {
            let s = f(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s), "{name}({a:?},{b:?}) = {s}");
        }
    }

    #[test]
    fn scores_symmetric(a in ident(), b in ident()) {
        for (name, f) in all_measures() {
            prop_assert!((f(&a, &b) - f(&b, &a)).abs() < 1e-12, "{name} asymmetric on {a:?},{b:?}");
        }
    }

    #[test]
    fn identical_inputs_score_one(a in ident()) {
        for (name, f) in all_measures() {
            let s = f(&a, &a);
            prop_assert!((s - 1.0).abs() < 1e-12, "{name}({a:?},{a:?}) = {s}");
        }
    }

    #[test]
    fn levenshtein_triangle(a in ident(), b in ident(), c in ident()) {
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    #[test]
    fn levenshtein_distance_bounds(a in ident(), b in ident()) {
        let d = levenshtein(&a, &b);
        let (la, lb) = (a.chars().count(), b.chars().count());
        prop_assert!(d >= la.abs_diff(lb));
        prop_assert!(d <= la.max(lb));
    }

    #[test]
    fn split_tokens_nonempty_lowercase(a in ident()) {
        for t in split_identifier(&a) {
            prop_assert!(!t.as_str().is_empty());
            prop_assert_eq!(t.as_str().to_lowercase(), t.as_str());
        }
    }

    #[test]
    fn normalize_idempotent(a in ident()) {
        let once = normalize_identifier(&a);
        prop_assert_eq!(normalize_identifier(&once), once.clone());
    }

    #[test]
    fn combined_default_consistent(a in ident(), b in ident()) {
        let sim = NameSimilarity::default();
        let s = sim.similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((sim.similarity(&b, &a) - s).abs() < 1e-12);
        prop_assert!((sim.distance(&a, &b) - (1.0 - s)).abs() < 1e-12);
    }

    /// The row kernel's score-identity contract: preprocessed profiles
    /// reproduce the scalar combined measure to the bit.
    #[test]
    fn row_kernel_bitwise_matches_scalar(a in kernel_label(), b in kernel_label()) {
        let scalar = NameSimilarity::default();
        let kernel = RowKernel::new(&a);
        let profile = LabelProfile::new(&b);
        prop_assert_eq!(
            kernel.similarity(&profile).to_bits(),
            scalar.similarity(&a, &b).to_bits(),
            "similarity({:?}, {:?})", a, b
        );
        prop_assert_eq!(
            kernel.distance(&profile).to_bits(),
            scalar.distance(&a, &b).to_bits(),
            "distance({:?}, {:?})", a, b
        );
    }

    /// Every dispatch variant of the kernel reproduces the scalar
    /// combined measure to the bit (see tests/dispatch_differential.rs
    /// for the full dispatch-table suite).
    #[test]
    fn row_kernel_variants_bitwise_match_scalar(a in kernel_label(), b in kernel_label()) {
        let expected = NameSimilarity::default().similarity(&a, &b).to_bits();
        let profile = LabelProfile::new(&b);
        for variant in KernelVariant::ALL {
            let kernel = RowKernel::with_variant(&a, variant);
            prop_assert_eq!(
                kernel.similarity(&profile).to_bits(),
                expected,
                "similarity({:?}, {:?}) under {:?}", a, b, variant
            );
        }
    }

    /// The kernel's prepared-pattern edit distance equals the scalar
    /// `levenshtein` over the normalised forms — across ASCII/non-ASCII
    /// tier selection and arbitrary lengths.
    #[test]
    fn row_kernel_levenshtein_matches_scalar(a in kernel_label(), b in kernel_label()) {
        let kernel = RowKernel::new(&a);
        let profile = LabelProfile::new(&b);
        let (na, nb) = (normalize_identifier(&a), normalize_identifier(&b));
        prop_assert_eq!(
            kernel.levenshtein_to(&profile),
            levenshtein(&na, &nb),
            "levenshtein({:?}, {:?})", na, nb
        );
    }

    /// Same, pinned to the 64-char Myers word boundary: both sides
    /// normalise to themselves with the shorter side in 60..=70, so the
    /// prepared `1 << 63` high-bit/carry paths and the DP fallback just
    /// past the word are both exercised.
    #[test]
    fn row_kernel_levenshtein_at_word_boundary(a in boundary_label(), b in boundary_label()) {
        let kernel = RowKernel::new(&a);
        let profile = LabelProfile::new(&b);
        prop_assert_eq!(kernel.levenshtein_to(&profile), levenshtein(&a, &b));
        prop_assert_eq!(
            kernel.similarity(&profile).to_bits(),
            NameSimilarity::default().similarity(&a, &b).to_bits()
        );
    }

    /// Flat hashed gram profiles reproduce the HashMap reference path.
    #[test]
    fn flat_ngrams_match_reference(a in kernel_label(), b in kernel_label(), n in 1usize..5) {
        prop_assert_eq!(
            dice_ngram(&a, &b, n).to_bits(),
            ngram::reference::dice_ngram(&a, &b, n).to_bits(),
            "dice n={}", n
        );
    }
}

/// Deterministic kernel differential cases the random strategies only
/// reach by luck: empty inputs, exact 63/64/65-char normalised labels,
/// and non-ASCII labels on both and one side.
#[test]
fn row_kernel_pinned_edge_cases() {
    let base: String = (0..64).map(|i| (b'a' + (i % 26) as u8) as char).collect();
    let labels = [
        String::new(),
        "_".into(),              // normalises to empty
        "naïve".into(),          // non-ASCII
        "日本語スキーマ".into(), // non-ASCII, multi-byte grams
        "nave".into(),           // ASCII vs non-ASCII pairing
        base[..63].to_owned(),
        base.clone(),                 // exactly 64: high bit is the score bit
        format!("{base}z"),           // 65: one past the Myers word
        format!("{}!x", &base[..62]), // 64 raw, 63 normalised
    ];
    let scalar = NameSimilarity::default();
    for a in &labels {
        let kernel = RowKernel::new(a);
        for b in &labels {
            let profile = LabelProfile::new(b);
            assert_eq!(
                kernel.similarity(&profile).to_bits(),
                scalar.similarity(a, b).to_bits(),
                "similarity({a:?}, {b:?})"
            );
            assert_eq!(
                kernel.levenshtein_to(&profile),
                levenshtein(&normalize_identifier(a), &normalize_identifier(b)),
                "levenshtein({a:?}, {b:?})"
            );
        }
    }
}
