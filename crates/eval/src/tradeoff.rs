//! Per-stage attribution of composed recall certificates.
//!
//! A non-exhaustive tier is only worth deploying if the speedup it buys
//! is paid for honestly — with a *certified* recall bound that never
//! overstates what the run actually kept. For staged (pipeline) runs,
//! [`FactorBreakdown`] attributes the composed bound to the stages that
//! paid for it: each stage that charges answer caps contributes a
//! telescoping factor, and the product of all factors reproduces the
//! end-to-end certified recall.

use serde::{Deserialize, Serialize};

/// One pipeline stage's contribution to a composed recall certificate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageFactor {
    /// The stage's display name, e.g. `"truncate(8)"`.
    pub stage: String,
    /// Answer caps this stage charged (admissible upper bound on the
    /// oracle answers its pruning may have lost).
    pub caps_added: f64,
    /// The stage's telescoping recall factor: with `a` final answers
    /// and `C_i` the caps charged at stage `i`,
    /// `f_i = (a + Σ_{j>i} C_j) / (a + Σ_{j≥i} C_j)`. Stages that
    /// charge nothing contribute exactly `1.0`.
    pub factor: f64,
    /// Wall time the stage took, in nanoseconds; `0` when the producer
    /// did not time its stages (e.g. [`FactorBreakdown::new`]).
    pub wall_ns: u64,
    /// Active schemas entering the stage; `0` when untracked.
    pub active_in: usize,
    /// Active schemas leaving the stage; `0` when untracked.
    pub active_out: usize,
}

/// One stage's raw observations, as handed to
/// [`FactorBreakdown::with_stages`]: the caps it charged plus the
/// cost/selectivity facts (wall time, active-set delta) an adaptive
/// pipeline needs per operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageInput {
    /// The stage's display name, e.g. `"truncate(8)"`.
    pub stage: String,
    /// Answer caps this stage charged.
    pub caps_added: f64,
    /// Wall time the stage took, in nanoseconds.
    pub wall_ns: u64,
    /// Active schemas entering the stage.
    pub active_in: usize,
    /// Active schemas leaving the stage.
    pub active_out: usize,
}

/// Per-stage attribution of a composed certified-recall bound.
///
/// Built from the final answer count and the caps each stage charged,
/// in stage order. The factors telescope, so their product collapses to
/// `a / (a + Σ C_i)` — the composed certificate — while each factor in
/// isolation shows which stage's pruning cost how much of the bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorBreakdown {
    answer_count: usize,
    stages: Vec<StageFactor>,
}

impl FactorBreakdown {
    /// Build from the final answer count and `(stage name, caps
    /// charged)` pairs in stage order. Wall times and active-set
    /// deltas are left at zero; producers that track them use
    /// [`with_stages`](Self::with_stages).
    pub fn new(answer_count: usize, charged: Vec<(String, f64)>) -> Self {
        Self::with_stages(
            answer_count,
            charged
                .into_iter()
                .map(|(stage, caps_added)| StageInput {
                    stage,
                    caps_added,
                    wall_ns: 0,
                    active_in: 0,
                    active_out: 0,
                })
                .collect(),
        )
    }

    /// Build from the final answer count and each stage's full
    /// observations (caps, wall time, active-set delta) in stage
    /// order. The telescoping factors depend only on the caps; the
    /// rest is carried through for attribution.
    pub fn with_stages(answer_count: usize, inputs: Vec<StageInput>) -> Self {
        let a = answer_count as f64;
        // Suffix sums of caps: remaining[i] = Σ_{j≥i} caps_j.
        let mut remaining: f64 = inputs.iter().rev().fold(0.0, |acc, s| acc + s.caps_added);
        let mut stages = Vec::with_capacity(inputs.len());
        for input in inputs {
            let after = remaining - input.caps_added;
            let factor = if remaining == 0.0 {
                1.0
            } else {
                (a + after) / (a + remaining)
            };
            stages.push(StageFactor {
                stage: input.stage,
                caps_added: input.caps_added,
                factor,
                wall_ns: input.wall_ns,
                active_in: input.active_in,
                active_out: input.active_out,
            });
            remaining = after;
        }
        FactorBreakdown {
            answer_count,
            stages,
        }
    }

    /// The final answer count the factors are relative to.
    pub fn answer_count(&self) -> usize {
        self.answer_count
    }

    /// The per-stage factors, in stage order.
    pub fn stages(&self) -> &[StageFactor] {
        &self.stages
    }

    /// Total caps charged across all stages.
    pub fn total_caps(&self) -> f64 {
        self.stages.iter().fold(0.0, |acc, s| acc + s.caps_added)
    }

    /// The product of the stage factors — the composed certified
    /// recall the breakdown attributes.
    pub fn composed_recall(&self) -> f64 {
        self.stages.iter().fold(1.0, |acc, s| acc * s.factor)
    }

    /// Whether the factor product reproduces `certified_recall` within
    /// `eps` — the consistency check a pipeline certificate must pass.
    pub fn reproduces(&self, certified_recall: f64, eps: f64) -> bool {
        (self.composed_recall() - certified_recall).abs() <= eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_breakdown_telescopes_to_the_composed_recall() {
        let breakdown = FactorBreakdown::new(
            6,
            vec![
                ("candidates".to_string(), 0.0),
                ("truncate(4)".to_string(), 3.0),
                ("beam(8)".to_string(), 1.0),
            ],
        );
        // Stages that charge nothing contribute exactly 1.0.
        assert_eq!(breakdown.stages()[0].factor, 1.0);
        assert_eq!(breakdown.total_caps(), 4.0);
        let composed = 6.0 / (6.0 + 4.0);
        assert!(breakdown.reproduces(composed, 1e-12));
        // Each factor is a genuine per-stage attribution: ≤ 1, and the
        // cap-free tail multiplies out to 1.
        for stage in breakdown.stages() {
            assert!(stage.factor <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn factor_breakdown_handles_empty_answers_and_no_caps() {
        let none = FactorBreakdown::new(0, vec![("refine".to_string(), 0.0)]);
        assert_eq!(none.composed_recall(), 1.0);
        assert!(none.reproduces(1.0, 0.0));

        let starved = FactorBreakdown::new(0, vec![("truncate(0)".to_string(), 5.0)]);
        assert_eq!(starved.composed_recall(), 0.0);
        assert!(starved.reproduces(0.0, 0.0));
    }
}
