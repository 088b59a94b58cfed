//! Token-set similarity over identifier tokens.
//!
//! These measures first split both names with
//! [`split_identifier`] and then compare the tokens: the exact Dice
//! coefficient of the token sets, and the Monge–Elkan hybrid that scores
//! each token against its best fuzzy counterpart.

use crate::clamp01;
use crate::jaro::jaro_winkler;
use crate::normalize::{split_identifier, Token};
use std::collections::BTreeSet;

fn token_sets(a: &str, b: &str) -> (BTreeSet<Token>, BTreeSet<Token>) {
    (
        split_identifier(a).into_iter().collect(),
        split_identifier(b).into_iter().collect(),
    )
}

/// Dice coefficient of the two names' token sets.
pub fn dice_tokens(a: &str, b: &str) -> f64 {
    let (sa, sb) = token_sets(a, b);
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    clamp01(2.0 * inter as f64 / (sa.len() + sb.len()) as f64)
}

/// Monge–Elkan hybrid similarity with Jaro–Winkler as the inner measure,
/// symmetrised by averaging both directions.
///
/// For each token of `a` take the best Jaro–Winkler score against any token
/// of `b`, average over `a`'s tokens; then the same with the roles swapped;
/// return the mean of the two directions.
pub fn monge_elkan(a: &str, b: &str) -> f64 {
    let ta = split_identifier(a);
    let tb = split_identifier(b);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let directed = |xs: &[Token], ys: &[Token]| -> f64 {
        let total: f64 = xs
            .iter()
            .map(|x| {
                ys.iter()
                    .map(|y| jaro_winkler(x.as_str(), y.as_str()))
                    .fold(0.0_f64, f64::max)
            })
            .sum();
        total / xs.len() as f64
    };
    clamp01((directed(&ta, &tb) + directed(&tb, &ta)) / 2.0)
}

/// The default token-level measure used by the matcher's objective
/// function: the maximum of exact Dice and fuzzy Monge–Elkan, so exact
/// token overlap is never under-scored and near-miss tokens still count.
pub fn token_set_similarity(a: &str, b: &str) -> f64 {
    dice_tokens(a, b).max(monge_elkan(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_set_measures() {
        assert_eq!(dice_tokens("a_b", "b_a"), 1.0);
        assert!((dice_tokens("order_line", "order_item") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(dice_tokens("", ""), 1.0);
        assert_eq!(monge_elkan("", ""), 1.0);
        assert_eq!(monge_elkan("", "x"), 0.0);
    }

    #[test]
    fn monge_elkan_fuzzy_matches() {
        // `customer` vs `custmer` (typo) should stay high.
        let s = monge_elkan("customerName", "custmerName");
        assert!(s > 0.9, "got {s}");
        // Unrelated names score low.
        assert!(monge_elkan("price", "author") < 0.6);
    }

    #[test]
    fn all_symmetric() {
        for (a, b) in [("orderLine", "lineItem"), ("isbn", "issn13"), ("a", "")] {
            assert!((dice_tokens(a, b) - dice_tokens(b, a)).abs() < 1e-12);
            assert!((monge_elkan(a, b) - monge_elkan(b, a)).abs() < 1e-12);
        }
    }

    #[test]
    fn combined_measure_dominates_dice() {
        for (a, b) in [("custNo", "customerNumber"), ("pubYear", "year")] {
            assert!(token_set_similarity(a, b) >= dice_tokens(a, b));
        }
    }
}
