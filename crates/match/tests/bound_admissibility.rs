//! Property gate: the recall certificate is *admissible* — it never
//! exceeds the recall actually measured against the exhaustive oracle —
//! for arbitrary generated scenarios, thresholds, and budgets
//! (including 0 and ≥ repository size).
//!
//! Scenario shapes, thresholds, and budgets are drawn from the shared
//! [`smx_synth::strategies`] vocabulary.

use proptest::prelude::*;
use smx_match::*;
use smx_synth::strategies::{budgets, scenarios, thresholds, MAX_SCENARIO_SCHEMAS};
use smx_synth::{Scenario, ScenarioConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// certified_recall(|A|) ≤ measured recall, across scenario shape,
    /// threshold, and budget.
    #[test]
    fn certificate_never_exceeds_measured_recall(
        sc in scenarios(),
        delta_max in thresholds(),
        budget in budgets(MAX_SCENARIO_SCHEMAS),
    ) {
        let problem = MatchProblem::new(sc.personal, sc.repository).unwrap();
        let registry = MappingRegistry::new();
        let oracle = ExhaustiveMatcher::default().run(&problem, delta_max, &registry);

        let generator = CandidateGenerator::new(
            ObjectiveFunction::default(),
            CandidateConfig { budget },
        );
        let certified = CertifiedMatcher::new(ExhaustiveMatcher::default(), generator)
            .run_certified(&problem, delta_max, &registry);

        // Restricted answers are a score-consistent subset of the oracle.
        certified.answers.is_subset_of(&oracle).expect("restricted ⊆ oracle");
        prop_assert!(certified.answers.scores_consistent_with(&oracle));

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
        prop_assert!((0.0..=1.0).contains(&cert));
        prop_assert!(
            cert <= measured + 1e-12,
            "certified {} > measured {} (budget {:?}, δ {})",
            cert, measured, budget, delta_max
        );

        // The certificate's ratio plugs into the bounds machinery.
        let ratio = certified.certificate.ratio_lower_bound();
        prop_assert!(ratio.get() <= measured + 1e-12);
    }

    /// Budget extremes: 0 certifies everything pruned (recall bound 0
    /// unless nothing could match); a budget ≥ repository size caps
    /// nothing and is bitwise loss-free.
    #[test]
    fn budget_extremes_behave(
        seed in 0u64..32,
        delta_max in thresholds(),
    ) {
        let sc = Scenario::generate(ScenarioConfig {
            derived_schemas: 3,
            noise_schemas: 2,
            personal_nodes: 3,
            host_nodes: 6,
            perturbation_strength: 0.6,
            seed,
            ..Default::default()
        });
        let problem = MatchProblem::new(sc.personal, sc.repository).unwrap();
        let registry = MappingRegistry::new();
        let oracle = ExhaustiveMatcher::default().run(&problem, delta_max, &registry);

        // Budget 0: nothing scored; the certificate still may not
        // overstate (1.0 only when every schema was certified empty —
        // and then the oracle must really be empty).
        let zero = CertifiedMatcher::new(
            ExhaustiveMatcher::default(),
            CandidateGenerator::new(
                ObjectiveFunction::default(),
                CandidateConfig { budget: Some(0) },
            ),
        )
        .run_certified(&problem, delta_max, &registry);
        prop_assert!(zero.answers.is_empty());
        if zero.certificate.certified_recall() == 1.0 {
            prop_assert!(oracle.is_empty(), "recall-1 certificate on a non-empty oracle");
        }

        // Budget ≥ n: identical to auto — caps nothing, loses nothing.
        let n = problem.repository().len();
        let full = CertifiedMatcher::new(
            ExhaustiveMatcher::default(),
            CandidateGenerator::new(
                ObjectiveFunction::default(),
                CandidateConfig { budget: Some(n) },
            ),
        )
        .run_certified(&problem, delta_max, &registry);
        prop_assert_eq!(full.certificate.missed_cap(), 0.0);
        prop_assert_eq!(full.certificate.certified_recall(), 1.0);
        prop_assert_eq!(full.answers.len(), oracle.len());
        for ans in oracle.answers() {
            let other = full.answers.score_of(ans.id).expect("answer retained");
            prop_assert_eq!(ans.score.to_bits(), other.to_bits());
        }
    }
}
