//! Certified non-exhaustive matching: run any matcher on the candidate
//! subset and attach a machine-checkable recall bound to the answers.
//!
//! [`CertifiedMatcher`] composes a [`CandidateGenerator`] with any inner
//! [`Matcher`]: generate the candidate set for the query's threshold,
//! restrict the problem to it ([`MatchProblem::with_candidates`]), run
//! the inner matcher, and wrap the result in a [`RecallCertificate`].
//! The certificate is *analytic*, not measured — it follows from the
//! admissible caps on the pruned schemas (see [`crate::candidates`]) and
//! needs no ground truth and no exhaustive reference run:
//!
//! * the exhaustive oracle's answer set on this problem has at most
//!   `answers + caps_sum` members, so
//! * `certified_recall = answers / (answers + caps_sum)` lower-bounds
//!   the fraction of the oracle's answers the restricted run retained,
//!   and equally lower-bounds the paper's answer-size ratio
//!   `Â = |A_S2| / |A_S1|` — the single experimental input the
//!   effectiveness-bounds machinery (`smx-core`) consumes.
//!
//! [`RecallCertificate::worst_case_envelope`] plugs that ratio lower
//! bound straight into [`BoundsEnvelope::fixed_ratio`]: given S1's
//! measured P/R curve, it yields guaranteed best/worst P/R bounds for
//! the certified run. Because the plugged-in ratio is a lower bound on
//! the true ratio and the worst-case bounds are monotone in the ratio,
//! the resulting envelope is conservative — the truth can only be
//! better.
//!
//! **Soundness scope.** The certificate bounds the loss *introduced by
//! the restriction*. That equals the total loss vs the exhaustive
//! oracle exactly when the inner matcher is complete on the restricted
//! problem ([`ExhaustiveMatcher`](crate::exhaustive::ExhaustiveMatcher),
//! its parallel twin, or the brute-force reference). Wrapping a lossy
//! S2 heuristic (beam, cluster, top-k) still works — the answers stay a
//! subset of the oracle with identical scores — but the heuristic's own
//! losses are *not* covered by the bound; only the tier's pruning is.

use crate::candidates::{CandidateGenerator, CandidateSet};
use crate::mapping::MappingRegistry;
use crate::matcher::Matcher;
use crate::problem::MatchProblem;
use smx_core::{BoundsEnvelope, BoundsError, SizeRatio};
use smx_eval::{AnswerSet, PrCurve};

/// A certified answer set: what the restricted run found, plus the
/// analytic bound on what it could have missed.
#[derive(Debug, Clone)]
pub struct CertifiedAnswer {
    /// The restricted run's answers — each one scored by the shared Δ,
    /// bitwise identical to the exhaustive oracle's score for the same
    /// mapping.
    pub answers: AnswerSet,
    /// The recall certificate.
    pub certificate: RecallCertificate,
}

/// Machine-checkable lower bound on a candidate-restricted run's recall
/// relative to the exhaustive oracle at the same threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct RecallCertificate {
    answer_count: usize,
    caps_sum: f64,
    active_schemas: usize,
    cert_empty_schemas: usize,
    total_schemas: usize,
    pruned_pairs: u64,
    scored_pairs: u64,
    delta_max: f64,
}

impl RecallCertificate {
    /// Derive the certificate for a run that found `answer_count`
    /// mappings under `candidates`' restriction.
    pub fn new(candidates: &CandidateSet, answer_count: usize) -> Self {
        RecallCertificate {
            answer_count,
            caps_sum: candidates.caps_sum(),
            active_schemas: candidates.active_count(),
            cert_empty_schemas: candidates.cert_empty_count(),
            total_schemas: candidates.total_schemas(),
            pruned_pairs: candidates.pruned_pairs(),
            scored_pairs: candidates.scored_pairs(),
            delta_max: candidates.delta_max(),
        }
    }

    /// The certified recall: at least this fraction of the exhaustive
    /// oracle's answers is present. Exactly `1.0` when only
    /// certified-empty schemas were pruned.
    pub fn certified_recall(&self) -> f64 {
        if self.caps_sum == 0.0 {
            1.0
        } else {
            self.answer_count as f64 / (self.answer_count as f64 + self.caps_sum)
        }
    }

    /// The same bound as a validated [`SizeRatio`]: a lower bound on
    /// the answer-size ratio `Â = |A_S2|/|A_S1|` the paper's bounds
    /// take as input.
    pub fn ratio_lower_bound(&self) -> SizeRatio {
        SizeRatio::new(self.certified_recall()).expect("certified recall is always in [0, 1]")
    }

    /// Conservative effectiveness bounds for the certified run: S1's
    /// measured P/R curve combined with the certified ratio lower bound
    /// through [`BoundsEnvelope::fixed_ratio`]. The worst-case curve is
    /// a guarantee; the true run can only sit above it.
    pub fn worst_case_envelope(&self, s1_curve: &PrCurve) -> Result<BoundsEnvelope, BoundsError> {
        BoundsEnvelope::fixed_ratio(s1_curve, self.ratio_lower_bound())
    }

    /// Answers the restricted run found.
    pub fn answer_count(&self) -> usize {
        self.answer_count
    }

    /// Upper bound on the answers the pruned schemas could hold.
    pub fn missed_cap(&self) -> f64 {
        self.caps_sum
    }

    /// Schemas scored exactly.
    pub fn active_schemas(&self) -> usize {
        self.active_schemas
    }

    /// Schemas certified to contain no answer at the threshold.
    pub fn cert_empty_schemas(&self) -> usize {
        self.cert_empty_schemas
    }

    /// Repository size in schemas.
    pub fn total_schemas(&self) -> usize {
        self.total_schemas
    }

    /// `(personal node, schema node)` cost pairs the restricted fill
    /// never scored.
    pub fn pruned_pairs(&self) -> u64 {
        self.pruned_pairs
    }

    /// Cost pairs the restricted fill did score.
    pub fn scored_pairs(&self) -> u64 {
        self.scored_pairs
    }

    /// The threshold the certificate holds at.
    pub fn delta_max(&self) -> f64 {
        self.delta_max
    }
}

/// Any matcher, candidate-restricted and certificate-carrying.
#[derive(Debug, Clone)]
pub struct CertifiedMatcher<M> {
    inner: M,
    generator: CandidateGenerator,
    name: String,
}

impl<M: Matcher> CertifiedMatcher<M> {
    /// Wrap `inner` behind `generator`'s filter tier.
    pub fn new(inner: M, generator: CandidateGenerator) -> Self {
        let name = format!("certified({})", inner.name());
        CertifiedMatcher {
            inner,
            generator,
            name,
        }
    }

    /// The wrapped matcher.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The filter tier.
    pub fn generator(&self) -> &CandidateGenerator {
        &self.generator
    }

    /// Run candidate-restricted and return the answers *with* their
    /// certificate. The restricted problem shares the repository (and
    /// its score store) with `problem`, so repeated certified queries
    /// amortise exactly like exhaustive ones.
    pub fn run_certified(
        &self,
        problem: &MatchProblem,
        delta_max: f64,
        registry: &MappingRegistry,
    ) -> CertifiedAnswer {
        let mut span = smx_obs::span("certified.run");
        let candidates = self.generator.generate(problem, delta_max);
        let restricted = problem.with_candidates(&candidates);
        let answers = {
            let mut refine = smx_obs::span("certified.refine");
            let answers = self.inner.run(&restricted, delta_max, registry);
            if refine.is_active() {
                refine.attr("matcher", self.inner.name());
                refine.attr("answers", answers.len());
                smx_obs::registry()
                    .histogram("certified.refine_ns")
                    .observe_ns(refine.elapsed_ns());
            }
            answers
        };
        let certificate = RecallCertificate::new(&candidates, answers.len());
        if span.is_active() {
            span.attr("active_schemas", certificate.active_schemas());
            span.attr("cert_empty", certificate.cert_empty_schemas());
            span.attr("certified_recall", certificate.certified_recall());
            span.attr("missed_cap", certificate.missed_cap());
        }
        CertifiedAnswer {
            answers,
            certificate,
        }
    }
}

impl<M: Matcher + Send + Sync + std::fmt::Debug + 'static> CertifiedMatcher<M> {
    /// Re-express this monolithic filter→refine pair as a declarative
    /// [`Pipeline`](crate::pipeline::Pipeline): the generator becomes
    /// its filter stages (certified-empty prune, plus survivor
    /// truncation under an explicit budget) and the inner matcher the
    /// terminal refine stage.
    ///
    /// Answer-equivalent, not bookkeeping-identical: pipeline stages
    /// prune against the shared full-precision bounds table, so active
    /// sets and budget-mode survivor rankings can differ from
    /// [`CandidateGenerator::generate`]'s lazily refined sweep (see
    /// [`CandidateGenerator::into_stages`]).
    pub fn into_pipeline(self) -> crate::pipeline::Pipeline {
        let objective = self.generator.objective().clone();
        let mut builder = crate::pipeline::Pipeline::builder(objective);
        for stage in self.generator.into_stages() {
            builder = builder.stage_arc(stage);
        }
        builder.refine(self.inner)
    }
}

impl<M: Matcher> Matcher for CertifiedMatcher<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, problem: &MatchProblem, delta_max: f64, registry: &MappingRegistry) -> AnswerSet {
        self.run_certified(problem, delta_max, registry).answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateConfig;
    use crate::exhaustive::ExhaustiveMatcher;
    use crate::objective::ObjectiveFunction;
    use smx_synth::{Scenario, ScenarioConfig};

    fn scenario_problem() -> MatchProblem {
        let sc = Scenario::generate(ScenarioConfig {
            derived_schemas: 6,
            noise_schemas: 6,
            personal_nodes: 4,
            host_nodes: 8,
            perturbation_strength: 0.7,
            ..Default::default()
        });
        MatchProblem::new(sc.personal, sc.repository).unwrap()
    }

    #[test]
    fn auto_budget_is_bitwise_identical_with_certificate_one() {
        let problem = scenario_problem();
        let delta_max = 0.3;
        let registry = MappingRegistry::new();
        let oracle = ExhaustiveMatcher::default().run(&problem, delta_max, &registry);
        let certified = CertifiedMatcher::new(
            ExhaustiveMatcher::default(),
            CandidateGenerator::auto(ObjectiveFunction::default()),
        )
        .run_certified(&problem, delta_max, &registry);
        assert_eq!(certified.answers, oracle);
        assert_eq!(certified.certificate.certified_recall(), 1.0);
        assert!(certified.certificate.ratio_lower_bound().is_one());
        assert_eq!(certified.certificate.answer_count(), oracle.len());
    }

    #[test]
    fn certificate_never_exceeds_measured_recall() {
        let problem = scenario_problem();
        let delta_max = 0.3;
        let registry = MappingRegistry::new();
        let oracle = ExhaustiveMatcher::default().run(&problem, delta_max, &registry);
        for budget in [0, 1, 2, 5, usize::MAX] {
            let certified = CertifiedMatcher::new(
                ExhaustiveMatcher::default(),
                CandidateGenerator::new(
                    ObjectiveFunction::default(),
                    CandidateConfig {
                        budget: Some(budget),
                    },
                ),
            )
            .run_certified(&problem, delta_max, &registry);
            certified
                .answers
                .is_subset_of(&oracle)
                .expect("restricted ⊆ oracle");
            let measured = if oracle.is_empty() {
                1.0
            } else {
                let kept = certified
                    .answers
                    .ids()
                    .filter(|&id| oracle.score_of(id).is_some())
                    .count();
                kept as f64 / oracle.len() as f64
            };
            let cert = certified.certificate.certified_recall();
            assert!(
                cert <= measured + 1e-12,
                "budget {budget}: certified {cert} > measured {measured}"
            );
        }
    }

    #[test]
    fn matcher_impl_returns_the_restricted_answers() {
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let matcher = CertifiedMatcher::new(
            ExhaustiveMatcher::default(),
            CandidateGenerator::auto(ObjectiveFunction::default()),
        );
        assert_eq!(matcher.name(), "certified(S1-exhaustive)");
        let direct = matcher.run(&problem, 0.3, &registry);
        let full = matcher.run_certified(&problem, 0.3, &registry);
        assert_eq!(direct, full.answers);
        assert_eq!(matcher.inner().name(), "S1-exhaustive");
        assert!(matcher.generator().config().budget.is_none());
    }
}
