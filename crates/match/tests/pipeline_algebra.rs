//! Property gate for composed pipelines: across *random* stage
//! compositions, scenario shapes, and thresholds —
//!
//! * the composed certificate stays admissible for a complete terminal
//!   (certified recall ≤ recall measured against the exhaustive
//!   oracle), with truncation budgets explicitly covering `0` and
//!   `≥ repository size`, and
//! * the per-stage factor breakdown telescopes back to the composed
//!   certified recall.
//!
//! Scenario inputs come from the shared [`smx_synth::strategies`]
//! vocabulary, the same space the bound-admissibility gate samples.

use proptest::prelude::*;
use smx_match::*;
use smx_synth::strategies::{scenarios, thresholds};

/// Truncation budgets a random composition can pick from — the
/// extremes 0 (drop every survivor) and `usize::MAX` (a no-op) are
/// always present.
const KEEPS: [usize; 7] = [0, 1, 2, 3, 5, 8, usize::MAX];

/// One randomly drawn filter stage.
#[derive(Clone, Debug)]
enum Spec {
    Candidate,
    Truncate(usize),
    Beam(usize),
}

fn specs() -> impl Strategy<Value = Vec<Spec>> {
    proptest::collection::vec(
        prop_oneof![
            Just(Spec::Candidate),
            (0..KEEPS.len()).prop_map(|i| Spec::Truncate(KEEPS[i])),
            (1usize..32).prop_map(Spec::Beam),
        ],
        0..6,
    )
}

fn build(stages: &[Spec]) -> Pipeline {
    let mut builder = Pipeline::builder(ObjectiveFunction::default());
    for spec in stages {
        builder = match spec {
            Spec::Candidate => builder.candidate_filter(),
            Spec::Truncate(keep) => builder.truncate(*keep),
            Spec::Beam(width) => builder.beam_filter(*width),
        };
    }
    builder.refine(ExhaustiveMatcher::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Admissibility and factor-accounting consistency for one random
    /// composition.
    #[test]
    fn random_compositions_stay_admissible(
        stages in specs(),
        sc in scenarios(),
        delta_max in thresholds(),
    ) {
        let problem = MatchProblem::new(sc.personal, sc.repository).unwrap();
        let registry = MappingRegistry::new();
        let oracle = ExhaustiveMatcher::default().run(&problem, delta_max, &registry);

        let run = build(&stages).run_certified(&problem, delta_max, &registry);

        // Admissibility: a complete terminal means every loss was
        // charged by some filter stage, so the composed certificate
        // lower-bounds the measured recall vs the exhaustive oracle.
        run.answers
            .is_subset_of(&oracle)
            .unwrap_or_else(|e| panic!("{stages:?}: {e:?}"));
        prop_assert!(run.answers.scores_consistent_with(&oracle));
        let cert = run.certificate.certified_recall();
        prop_assert!((0.0..=1.0).contains(&cert), "{:?}: recall {}", stages, cert);
        let measured = if oracle.is_empty() {
            1.0
        } else {
            let kept = run
                .answers
                .ids()
                .filter(|&id| oracle.score_of(id).is_some())
                .count();
            kept as f64 / oracle.len() as f64
        };
        prop_assert!(
            cert <= measured + 1e-12,
            "{:?}: certified {} > measured {} (δ {})",
            stages, cert, measured, delta_max
        );

        // Factor accounting: the stage chain is contiguous and its
        // telescoping product reproduces the composed recall.
        let reports = run.certificate.stages();
        for pair in reports.windows(2) {
            prop_assert_eq!(pair[0].active_out, pair[1].active_in);
        }
        prop_assert!(
            run.certificate.factor_breakdown().reproduces(cert, 1e-9),
            "{:?}: factor product {} vs recall {}",
            stages,
            run.certificate.factor_breakdown().composed_recall(),
            cert
        );
    }
}
