//! Best/worst/random P/R envelopes over a threshold sweep (§3.3, Figures
//! 9 and 11).
//!
//! A [`BoundsEnvelope`] packages, for every threshold of S1's measured
//! grid: the naive and incremental best/worst bounds and the random
//! baseline. The actual (unknown) P/R curve of S2 is guaranteed to lie
//! between worst and best; `contains` verifies that for scenarios where
//! ground truth *is* available.

use crate::error::BoundsError;
use crate::incremental::incremental_bounds;
use crate::pointwise::{pointwise_bounds, PointBounds, PrEstimate};
use crate::random::random_baseline;
use crate::ratio::{RatioCurve, SizeRatio};
use serde::{Deserialize, Serialize};
use smx_eval::{AnswerSet, PrCurve};

/// One threshold's worth of envelope data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvelopePoint {
    /// The threshold δ.
    pub threshold: f64,
    /// The size ratio `Â` there.
    pub ratio: SizeRatio,
    /// S1's measured `(P, R)`.
    pub s1: PrEstimate,
    /// Naive per-threshold bounds (Eqs. 1–6).
    pub naive: PointBounds,
    /// Incremental bounds (§3.2) — the ones to report.
    pub incremental: PointBounds,
    /// Random-selection baseline (Eqs. 9–10).
    pub random: PrEstimate,
}

/// Bounds envelope across a threshold sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundsEnvelope {
    points: Vec<EnvelopePoint>,
}

impl BoundsEnvelope {
    /// Count-space envelope from S1's measured curve and S2's cumulative
    /// answer counts on the same grid. This is the primary entry point:
    /// everything it needs is observable without ground truth for S2.
    pub fn from_sizes(s1_curve: &PrCurve, a2_sizes: &[usize]) -> Result<Self, BoundsError> {
        let inc = incremental_bounds(s1_curve, a2_sizes)?;
        let rand = random_baseline(s1_curve, a2_sizes)?;
        let points = inc
            .points()
            .iter()
            .zip(rand)
            .map(|(p, random)| EnvelopePoint {
                threshold: p.threshold,
                ratio: SizeRatio::from_counts(p.a2, p.s1.answers)
                    .expect("validated by incremental_bounds"),
                s1: PrEstimate::new(p.s1.precision(), p.s1.recall(inc.truth_size())),
                naive: p.naive,
                incremental: p.incremental,
                random,
            })
            .collect();
        Ok(BoundsEnvelope { points })
    }

    /// Envelope from S1's curve and S2's actual answer set: S2's counts
    /// are taken at the curve's thresholds. (The answer *identities* are
    /// not used — only sizes, as in the paper.)
    pub fn from_answer_sets(s1_curve: &PrCurve, s2: &AnswerSet) -> Result<Self, BoundsError> {
        let sizes: Vec<usize> = s1_curve
            .points()
            .iter()
            .map(|p| s2.count_at(p.threshold))
            .collect();
        Self::from_sizes(s1_curve, &sizes)
    }

    /// Ratio-space envelope for a hypothetical S2 with a fixed ratio `Â`
    /// at every threshold (Figure 9). Goes through
    /// [`from_ratio_curve`](Self::from_ratio_curve) with a constant
    /// curve, so each size is `Â·|A1|` rounded to the nearest count and
    /// clamped into the feasible band.
    pub fn fixed_ratio(s1_curve: &PrCurve, ratio: SizeRatio) -> Result<Self, BoundsError> {
        let curve = RatioCurve::constant(&s1_curve.thresholds(), ratio);
        Self::from_ratio_curve(s1_curve, &curve)
    }

    /// Ratio-space envelope from a measured ratio curve `Â(δ)` on the same
    /// grid as `s1_curve` (Figure 11). Counts are derived by rounding
    /// `Â·|A1|` to the nearest integer.
    pub fn from_ratio_curve(s1_curve: &PrCurve, ratios: &RatioCurve) -> Result<Self, BoundsError> {
        if ratios.len() != s1_curve.len() {
            return Err(BoundsError::LengthMismatch {
                expected: s1_curve.len(),
                got: ratios.len(),
            });
        }
        let mut sizes = Vec::with_capacity(s1_curve.len());
        let mut prev = 0usize;
        for (p, &(t, r)) in s1_curve.points().iter().zip(ratios.points()) {
            if t != p.threshold {
                return Err(BoundsError::BadAnchors(
                    "ratio curve grid differs from S1 grid",
                ));
            }
            // Round, then clamp into the feasible band so rounding noise
            // cannot violate monotonicity or per-increment containment.
            let ideal = (r.get() * p.counts.answers as f64).round() as usize;
            let size = ideal.clamp(prev, p.counts.answers);
            sizes.push(size);
            prev = size;
        }
        Self::from_sizes(s1_curve, &sizes)
    }

    /// The envelope's points, ascending in threshold.
    pub fn points(&self) -> &[EnvelopePoint] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the envelope has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point at exactly `threshold`, if on the grid.
    pub fn point_at(&self, threshold: f64) -> Option<&EnvelopePoint> {
        self.points.iter().find(|p| p.threshold == threshold)
    }

    /// Verify that an actually-measured S2 curve on the same grid lies
    /// inside the incremental bounds everywhere. Returns the first
    /// violating threshold, or `None` when contained.
    pub fn first_violation(&self, actual: &PrCurve, eps: f64) -> Option<f64> {
        for (env, act) in self.points.iter().zip(actual.points()) {
            let est = PrEstimate::new(act.precision, act.recall);
            if !env.incremental.contains(est, eps) {
                return Some(env.threshold);
            }
        }
        None
    }

    /// Whether `actual` lies inside the incremental bounds at every grid
    /// point.
    pub fn contains(&self, actual: &PrCurve, eps: f64) -> bool {
        actual.len() == self.len() && self.first_violation(actual, eps).is_none()
    }

    /// Maximum guaranteed effectiveness loss across the sweep: the largest
    /// gap between S1's precision and the worst-case precision, and
    /// likewise for recall — the "trade-off is at most x%" number the
    /// paper's conclusion advertises.
    pub fn max_guaranteed_loss(&self) -> (f64, f64) {
        let mut dp = 0.0_f64;
        let mut dr = 0.0_f64;
        for p in &self.points {
            dp = dp.max(p.s1.precision - p.incremental.worst.precision);
            dr = dr.max(p.s1.recall - p.incremental.worst.recall);
        }
        (dp, dr)
    }
}

/// Ratio-space reference implementation of one envelope point (used by
/// tests to cross-check the count-space pipeline).
pub fn ratio_space_point(p1: f64, r1: f64, ratio: SizeRatio) -> PointBounds {
    pointwise_bounds(p1, r1, ratio)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_eval::{AnswerId, Counts};

    fn s1_curve() -> PrCurve {
        PrCurve::from_counts(
            100,
            [
                (0.05, Counts::new(10, 8)),
                (0.10, Counts::new(40, 15)),
                (0.20, Counts::new(72, 27)),
                (0.25, Counts::new(90, 30)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_sizes_produces_grid() {
        let env = BoundsEnvelope::from_sizes(&s1_curve(), &[8, 32, 48, 50]).unwrap();
        assert_eq!(env.len(), 4);
        let p = env.point_at(0.10).unwrap();
        assert!((p.ratio.get() - 0.8).abs() < 1e-12);
        assert!((p.s1.precision - 0.375).abs() < 1e-12);
        assert!(p.incremental.worst.precision >= p.naive.worst.precision - 1e-12);
        // Random sits between worst and best.
        assert!(p.random.precision + 1e-12 >= p.incremental.worst.precision);
        assert!(p.random.precision <= p.incremental.best.precision + 1e-12);
    }

    #[test]
    fn fixed_ratio_09_envelope() {
        // Figure 9: constant Â = 0.9.
        let env = BoundsEnvelope::fixed_ratio(&s1_curve(), SizeRatio::new(0.9).unwrap()).unwrap();
        for p in env.points() {
            // Worst below S1's curve, best above (or equal).
            assert!(p.incremental.worst.precision <= p.s1.precision + 1e-12);
            assert!(p.incremental.best.precision + 1e-12 >= p.s1.precision);
            assert!(p.incremental.worst.recall <= p.s1.recall + 1e-12);
            // Best recall can't exceed S1's recall (S2 ⊆ S1).
            assert!(p.incremental.best.recall <= p.s1.recall + 1e-12);
        }
    }

    #[test]
    fn ratio_one_collapses_everything() {
        let env = BoundsEnvelope::fixed_ratio(&s1_curve(), SizeRatio::ONE).unwrap();
        for p in env.points() {
            for est in [p.incremental.best, p.incremental.worst, p.random] {
                assert!((est.precision - p.s1.precision).abs() < 1e-9);
                assert!((est.recall - p.s1.recall).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn from_answer_sets_counts_at_grid() {
        let curve =
            PrCurve::from_counts(10, [(0.1, Counts::new(2, 1)), (0.2, Counts::new(4, 2))]).unwrap();
        let s2 = AnswerSet::new([(AnswerId(1), 0.1), (AnswerId(2), 0.2)]).unwrap();
        let env = BoundsEnvelope::from_answer_sets(&curve, &s2).unwrap();
        assert!((env.points()[0].ratio.get() - 0.5).abs() < 1e-12);
        assert!((env.points()[1].ratio.get() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn containment_check_works() {
        let curve = s1_curve();
        let sizes = [8usize, 32, 48, 50];
        let env = BoundsEnvelope::from_sizes(&curve, &sizes).unwrap();
        // An S2 that keeps the best-case correct counts at every point.
        let best_curve = PrCurve::from_counts(
            100,
            [
                (0.05, Counts::new(8, 8)),
                (0.10, Counts::new(32, 15)),
                (0.20, Counts::new(48, 27)),
                (0.25, Counts::new(50, 29)),
            ],
        )
        .unwrap();
        assert!(env.contains(&best_curve, 1e-9));
        // A fake curve claiming higher recall than S1 must violate.
        let impossible = PrCurve::from_counts(
            100,
            [
                (0.05, Counts::new(8, 8)),
                (0.10, Counts::new(32, 32)),
                (0.20, Counts::new(48, 48)),
                (0.25, Counts::new(50, 50)),
            ],
        )
        .unwrap();
        assert!(!env.contains(&impossible, 1e-9));
        assert_eq!(env.first_violation(&impossible, 1e-9), Some(0.10));
    }

    #[test]
    fn max_guaranteed_loss_reports_worst_gap() {
        let env = BoundsEnvelope::from_sizes(&s1_curve(), &[8, 32, 48, 50]).unwrap();
        let (dp, dr) = env.max_guaranteed_loss();
        assert!(dp > 0.0 && dp <= 1.0);
        assert!(dr > 0.0 && dr <= 1.0);
        // With ratio 1 the loss is zero.
        let sizes: Vec<usize> = s1_curve()
            .points()
            .iter()
            .map(|p| p.counts.answers)
            .collect();
        let tight = BoundsEnvelope::from_sizes(&s1_curve(), &sizes).unwrap();
        let (dp0, dr0) = tight.max_guaranteed_loss();
        assert!(dp0.abs() < 1e-12 && dr0.abs() < 1e-12);
    }

    #[test]
    fn ratio_curve_grid_must_match() {
        let curve = s1_curve();
        let short = RatioCurve::constant(&[0.05], SizeRatio::ONE);
        assert!(matches!(
            BoundsEnvelope::from_ratio_curve(&curve, &short),
            Err(BoundsError::LengthMismatch { .. })
        ));
        let wrong_grid = RatioCurve::constant(&[0.1, 0.2, 0.3, 0.4], SizeRatio::ONE);
        assert!(matches!(
            BoundsEnvelope::from_ratio_curve(&curve, &wrong_grid),
            Err(BoundsError::BadAnchors(_))
        ));
    }

    #[test]
    fn best_case_containment_checks_figure8() {
        // Verify the "best_curve" in containment_check_works is honest:
        // the incremental best at 0.25 is 15+12+min(3,2)=29... recompute:
        let curve = s1_curve();
        let env = BoundsEnvelope::from_sizes(&curve, &[8, 32, 48, 50]).unwrap();
        let p = env.point_at(0.25).unwrap();
        // increments of S1: (10,8), (30,7), (32,12), (18,3); S2 deltas:
        // 8, 24, 16, 2 → best T2 = 8 + min(7,24) + min(12,16) + min(3,2)
        // = 8+7+12+2 = 29.
        assert!((p.incremental.best.precision - 29.0 / 50.0).abs() < 1e-12);
    }
}
