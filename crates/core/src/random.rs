//! The random-selection baseline of §3.4 — Equations (9)–(10).
//!
//! The worst case assumes an *adversarial* S2 that discards precisely the
//! correct answers. Any realistic improvement should at least beat a
//! system that picks, per increment, a uniformly random subset of S1's
//! answers of the same size as S2's. For that hypothetical system the
//! expected increment precision equals S1's (random selection preserves
//! the correct/incorrect mix) and increment recall scales by the size
//! ratio:
//!
//! ```text
//! P̂_rand = P̂_S1                        (9)
//! R̂_rand = R̂_S1 · (Δ|A2| / Δ|A1|)      (10)
//! ```
//!
//! Accumulating these per-increment expectations yields the random P/R
//! curve plotted in Figure 11 — a narrower, more useful lower bound.

use crate::error::BoundsError;
use crate::increment::curve_increments;
use crate::pointwise::PrEstimate;
use serde::{Deserialize, Serialize};
use smx_eval::{Counts, PrCurve};

/// Expected `(P, R)` of the random-selection system at each threshold of
/// the grid, plus the expected number of correct answers (fractional,
/// because it is an expectation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomPoint {
    /// The threshold δ.
    pub threshold: f64,
    /// S2's (and hence the random system's) answer count at δ.
    pub a2: usize,
    /// Expected correct answers `E[|T2|]`.
    pub expected_correct: f64,
    /// Expected precision/recall.
    pub expected: PrEstimate,
}

/// Compute the random baseline from S1's measured curve and S2's
/// cumulative answer counts at the same thresholds (Equations 9–10
/// accumulated with the §3.2 procedure).
pub fn random_baseline_from_counts(
    s1_curve: &PrCurve,
    a2_sizes: &[usize],
) -> Result<Vec<RandomPoint>, BoundsError> {
    let points = s1_curve.points();
    if a2_sizes.len() != points.len() {
        return Err(BoundsError::LengthMismatch {
            expected: points.len(),
            got: a2_sizes.len(),
        });
    }
    let truth_size = s1_curve.truth_size();
    let incs1 = curve_increments(s1_curve);
    let mut expected_t2 = 0.0_f64;
    let mut prev_a2 = 0usize;
    let mut out = Vec::with_capacity(points.len());
    for ((p, &a2), inc1) in points.iter().zip(a2_sizes).zip(&incs1) {
        if a2 < prev_a2 {
            return Err(BoundsError::NonMonotoneSizes {
                threshold: p.threshold,
            });
        }
        if a2 > p.counts.answers {
            return Err(BoundsError::NotASubSelection {
                threshold: p.threshold,
                s1: p.counts.answers,
                s2: a2,
            });
        }
        let delta_a2 = a2 - prev_a2;
        if delta_a2 > inc1.counts.answers {
            return Err(BoundsError::NotASubSelection {
                threshold: p.threshold,
                s1: inc1.counts.answers,
                s2: delta_a2,
            });
        }
        // Eq. (9)/(10): random selection keeps the increment's mix, so
        // E[ΔT2] = ΔT1 · (ΔA2 / ΔA1); an empty S1 increment contributes 0.
        if inc1.counts.answers > 0 {
            expected_t2 +=
                inc1.counts.correct as f64 * delta_a2 as f64 / inc1.counts.answers as f64;
        }
        prev_a2 = a2;
        let precision = if a2 == 0 {
            1.0
        } else {
            expected_t2 / a2 as f64
        };
        let recall = if truth_size == 0 {
            0.0
        } else {
            expected_t2 / truth_size as f64
        };
        out.push(RandomPoint {
            threshold: p.threshold,
            a2,
            expected_correct: expected_t2,
            expected: PrEstimate::new(precision, recall),
        });
    }
    Ok(out)
}

/// Convenience wrapper matching the envelope API: only the `(P, R)`
/// expectations.
pub fn random_baseline(
    s1_curve: &PrCurve,
    a2_sizes: &[usize],
) -> Result<Vec<PrEstimate>, BoundsError> {
    Ok(random_baseline_from_counts(s1_curve, a2_sizes)?
        .into_iter()
        .map(|p| p.expected)
        .collect())
}

/// Empirically simulate the random system once: per increment of
/// `s1_curve`'s grid, keep a uniformly random subset of the increment's
/// answers with the same size S2 had there. Used by tests to check
/// Equations (9)–(10) are indeed the expectation.
pub fn simulate_random_selection<R: FnMut(usize, usize) -> Vec<usize>>(
    s1_increment_counts: &[Counts],
    a2_increment_sizes: &[usize],
    mut choose: R,
) -> Vec<Counts> {
    // `choose(n, k)` returns k distinct indices in 0..n.
    s1_increment_counts
        .iter()
        .zip(a2_increment_sizes)
        .map(|(inc, &k)| {
            let picked = choose(inc.answers, k.min(inc.answers));
            let correct = picked.iter().filter(|&&i| i < inc.correct).count();
            Counts::new(picked.len(), correct)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure8_curve() -> PrCurve {
        PrCurve::from_counts(
            100,
            [(0.1, Counts::new(40, 15)), (0.2, Counts::new(72, 27))],
        )
        .unwrap()
    }

    #[test]
    fn random_baseline_figure8() {
        let pts = random_baseline_from_counts(&figure8_curve(), &[32, 48]).unwrap();
        // Increment 1: E[T] = 15 · 32/40 = 12 → P = 12/32 = 0.375 = P_S1.
        assert!((pts[0].expected_correct - 12.0).abs() < 1e-12);
        assert!((pts[0].expected.precision - 0.375).abs() < 1e-12);
        assert!((pts[0].expected.recall - 0.12).abs() < 1e-12);
        // Increment 2: E[ΔT] = 12 · 16/32 = 6 → cumulative 18 of 48.
        assert!((pts[1].expected_correct - 18.0).abs() < 1e-12);
        assert!((pts[1].expected.precision - 0.375).abs() < 1e-12);
        assert!((pts[1].expected.recall - 0.18).abs() < 1e-12);
    }

    #[test]
    fn random_precision_equals_s1_when_mix_uniform() {
        // If S1's precision is the same in every increment, Eq. (9) keeps
        // the random system's cumulative precision equal to S1's.
        let pts = random_baseline_from_counts(&figure8_curve(), &[10, 42]).unwrap();
        for p in &pts {
            assert!((p.expected.precision - 0.375).abs() < 1e-12);
        }
    }

    #[test]
    fn random_recall_scales_with_ratio() {
        let curve = figure8_curve();
        let full = random_baseline(&curve, &[40, 72]).unwrap();
        let half = random_baseline(&curve, &[20, 36]).unwrap();
        for (f, h) in full.iter().zip(&half) {
            assert!((h.recall - f.recall / 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn random_between_worst_and_best() {
        use crate::incremental::incremental_bounds;
        let curve = PrCurve::from_counts(
            60,
            [
                (0.05, Counts::new(12, 7)),
                (0.1, Counts::new(30, 13)),
                (0.2, Counts::new(55, 21)),
            ],
        )
        .unwrap();
        let sizes = [9, 18, 30];
        let rand = random_baseline(&curve, &sizes).unwrap();
        let bounds = incremental_bounds(&curve, &sizes).unwrap();
        for (r, b) in rand.iter().zip(bounds.points()) {
            assert!(r.precision + 1e-12 >= b.incremental.worst.precision);
            assert!(r.precision <= b.incremental.best.precision + 1e-12);
            assert!(r.recall + 1e-12 >= b.incremental.worst.recall);
            assert!(r.recall <= b.incremental.best.recall + 1e-12);
        }
    }

    #[test]
    fn validation() {
        let curve = figure8_curve();
        assert!(random_baseline(&curve, &[32]).is_err());
        assert!(random_baseline(&curve, &[32, 20]).is_err());
        assert!(random_baseline(&curve, &[60, 72]).is_err());
    }

    #[test]
    fn simulate_matches_expectation_under_deterministic_choice() {
        // A "random" chooser that picks a proportional prefix reproduces
        // the expectation exactly when sizes divide evenly.
        let incs = [Counts::new(40, 15), Counts::new(32, 12)];
        let sizes = [32usize, 16];
        let sim = simulate_random_selection(&incs, &sizes, |n, k| {
            // Evenly spread picks over 0..n.
            (0..k).map(|i| i * n / k).collect()
        });
        // First increment: indices 0..32 spread over 40 → 12 hits below 15.
        assert_eq!(sim[0].answers, 32);
        assert_eq!(sim[0].correct, 12);
        assert_eq!(sim[1].answers, 16);
        assert_eq!(sim[1].correct, 6);
    }

    #[test]
    fn monte_carlo_mean_matches_equations_9_and_10() {
        use rand::prelude::*;
        // Four increments of five answers holding 2, 2, 1 and 2 correct
        // ones; S2 keeps 2, 4, 4 and 4 of them.
        let curve = PrCurve::from_counts(
            7,
            [
                (0.25, Counts::new(5, 2)),
                (0.5, Counts::new(10, 4)),
                (0.75, Counts::new(15, 5)),
                (1.0, Counts::new(20, 7)),
            ],
        )
        .unwrap();
        let incs: Vec<Counts> = curve_increments(&curve).iter().map(|i| i.counts).collect();
        let a2_increments = [2usize, 4, 4, 4];
        let predicted = random_baseline_from_counts(&curve, &[2, 6, 10, 14]).unwrap();
        let runs = 3000;
        let mut mean_correct = [0.0f64; 4];
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(seed);
            let sim = simulate_random_selection(&incs, &a2_increments, |n, k| {
                let indices: Vec<usize> = (0..n).collect();
                indices.choose_multiple(&mut rng, k).copied().collect()
            });
            let mut correct = 0usize;
            for (j, inc) in sim.iter().enumerate() {
                correct += inc.correct;
                mean_correct[j] += correct as f64;
            }
        }
        for (j, p) in predicted.iter().enumerate() {
            let empirical = mean_correct[j] / runs as f64;
            assert!(
                (empirical - p.expected_correct).abs() < 0.15,
                "increment {j}: empirical {empirical} vs predicted {}",
                p.expected_correct
            );
        }
    }
}
