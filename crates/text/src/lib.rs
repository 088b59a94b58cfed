#![warn(missing_docs)]

//! String-similarity primitives for schema matching.
//!
//! Schema matchers score candidate mappings with an *objective function*
//! that is, at its leaves, built from element-name similarity heuristics
//! (Rahm & Bernstein's survey catalogue: edit distance, n-grams,
//! token sets, hybrids). This crate provides those leaves:
//!
//! * [`mod@levenshtein`] — edit distance and its normalised similarity,
//! * [`mod@jaro`] — Jaro and Jaro–Winkler similarity,
//! * [`ngram`] — character n-gram profiles and their Dice similarity,
//! * [`token`] — tokeniser-aware measures (token-set Dice and the
//!   Monge–Elkan hybrid),
//! * [`normalize`] — identifier tokenisation (camelCase, snake_case, digits)
//!   and normalisation,
//! * [`combined`] — weighted combinations with a sensible schema-matching
//!   default,
//! * [`kernel`] — the batched row kernel: per-label preprocessing
//!   ([`LabelProfile`]) plus a streaming evaluator ([`RowKernel`]) that is
//!   bitwise identical to the default combined measure,
//! * [`dispatch`] — runtime selection of the kernel's vectorised inner
//!   loops ([`KernelVariant`]: scalar oracle, SWAR-on-`u64`, or
//!   `std::arch` SSE2/NEON behind feature detection; `SMX_KERNEL_FORCE`
//!   overrides).
//!
//! Every similarity function returns a score in `[0, 1]`, is symmetric in
//! its arguments, and returns exactly `1.0` for equal inputs — invariants
//! enforced by the property tests in `tests/properties.rs`.

mod arch;
pub mod combined;
pub mod dispatch;
pub mod jaro;
pub mod kernel;
pub mod levenshtein;
pub mod ngram;
pub mod normalize;
mod swar;
pub mod token;

pub use combined::{default_name_mix, NameSimilarity, SimilarityMeasure, WeightedSimilarity};
pub use dispatch::KernelVariant;
pub use jaro::{jaro, jaro_winkler};
pub use kernel::{LabelProfile, RowKernel};
pub use levenshtein::{levenshtein, levenshtein_similarity};
pub use ngram::{dice_ngram, ngram_profile, trigram_similarity, GramProfile};
pub use normalize::{normalize_identifier, split_identifier, Token};
pub use token::{dice_tokens, monge_elkan, token_set_similarity};

/// Clamp a floating-point score into `[0, 1]`, mapping NaN to `0`.
///
/// All public similarity functions funnel their result through this so the
/// crate-wide range invariant holds even under pathological inputs.
#[inline]
pub fn clamp01(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::clamp01;

    #[test]
    fn clamp01_handles_nan_and_range() {
        assert_eq!(clamp01(f64::NAN), 0.0);
        assert_eq!(clamp01(-0.5), 0.0);
        assert_eq!(clamp01(1.5), 1.0);
        assert_eq!(clamp01(0.25), 0.25);
    }
}
