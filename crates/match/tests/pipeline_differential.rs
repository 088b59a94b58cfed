//! Differential gate for composable pipelines: a declarative
//! filter→refine [`Pipeline`] must be *answer-bitwise-identical* to the
//! monolithic system it decomposes, and the composed certificate's
//! factor breakdown must reproduce the end-to-end certified recall.
//!
//! The monolith side of each comparison is the matcher run directly (an
//! exact candidate tier removes only certified-empty schemas, so
//! `candidates → refine(M)` must equal `M` bitwise for every roster
//! system — including the globally-budgeted top-k, whose dynamic
//! threshold only ever sees real answers).

use smx_eval::FactorBreakdown;
use smx_match::test_support::assert_answers_bitwise;
use smx_match::*;
use smx_synth::{Domain, Scenario, ScenarioConfig};

const DELTA_MAX: f64 = 0.4;

fn problem(seed: u64, domain: Domain) -> MatchProblem {
    let sc = Scenario::generate(ScenarioConfig {
        domain,
        derived_schemas: 5,
        noise_schemas: 5,
        personal_nodes: 4,
        host_nodes: 8,
        perturbation_strength: 0.6,
        seed,
    });
    MatchProblem::new(sc.personal, sc.repository).unwrap()
}

/// Each monolithic system next to its `candidates → refine(self)`
/// pipeline decomposition.
fn decompositions() -> Vec<(&'static str, Box<dyn Matcher + Sync>, Pipeline)> {
    let objective = ObjectiveFunction::default;
    vec![
        (
            "exhaustive",
            Box::new(ExhaustiveMatcher::new(objective())) as Box<dyn Matcher + Sync>,
            Pipeline::builder(objective())
                .candidate_filter()
                .refine(ExhaustiveMatcher::new(objective())),
        ),
        (
            "brute-force",
            Box::new(BruteForceMatcher::new(objective())),
            Pipeline::builder(objective())
                .candidate_filter()
                .refine(BruteForceMatcher::new(objective())),
        ),
        (
            "beam",
            Box::new(BeamMatcher::new(objective(), 16)),
            Pipeline::builder(objective())
                .candidate_filter()
                .refine(BeamMatcher::new(objective(), 16)),
        ),
        (
            "cluster",
            Box::new(ClusterMatcher::new(objective(), 0.55, 3)),
            Pipeline::builder(objective())
                .candidate_filter()
                .refine(ClusterMatcher::new(objective(), 0.55, 3)),
        ),
        (
            "topk",
            Box::new(TopKMatcher::new(objective(), 25)),
            Pipeline::builder(objective())
                .candidate_filter()
                .refine(TopKMatcher::new(objective(), 25)),
        ),
    ]
}

#[test]
fn candidate_refine_pipeline_is_bitwise_identical_to_each_monolith() {
    for (seed, domain) in [(61, Domain::Publications), (62, Domain::Travel)] {
        let problem = problem(seed, domain);
        let registry = MappingRegistry::new();
        for (name, monolith, pipeline) in decompositions() {
            let direct = monolith.run(&problem, DELTA_MAX, &registry);
            let piped = pipeline.run(&problem, DELTA_MAX, &registry);
            assert_answers_bitwise(name, &piped, &direct, &registry);
            assert_answers_bitwise(name, &direct, &piped, &registry);
            // The exact tier charges nothing, so the composed
            // certificate is exactly 1.
            let certified = pipeline.run_certified(&problem, DELTA_MAX, &registry);
            assert_eq!(certified.certificate.certified_recall(), 1.0, "{name}");
            assert_eq!(certified.certificate.certificate().missed_cap(), 0.0);
        }
    }
}

#[test]
fn certified_monolith_and_its_pipeline_form_agree() {
    let problem = problem(63, Domain::Commerce);
    let registry = MappingRegistry::new();
    for budget in [0, 1, 3, 7, 64] {
        let certified = CertifiedMatcher::new(
            ExhaustiveMatcher::default(),
            CandidateGenerator::new(
                ObjectiveFunction::default(),
                CandidateConfig {
                    budget: Some(budget),
                },
            ),
        );
        let monolith = certified.run_certified(&problem, DELTA_MAX, &registry);
        let pipeline = certified.clone().into_pipeline();
        let piped = pipeline.run_certified(&problem, DELTA_MAX, &registry);
        assert_answers_bitwise(
            &format!("budget {budget}"),
            &piped.answers,
            &monolith.answers,
            &registry,
        );
        // Both certificates bound the same run; the pipeline prunes
        // against the full-precision bounds table, so its bookkeeping
        // may differ — but never its admissibility or its recall value
        // (same survivors, same charged caps).
        let mono_recall = monolith.certificate.certified_recall();
        let pipe_recall = piped.certificate.certified_recall();
        assert!(
            (mono_recall - pipe_recall).abs() < 1e-9,
            "budget {budget}: monolith recall {mono_recall} vs pipeline {pipe_recall}"
        );
    }
}

#[test]
fn factor_breakdown_reproduces_the_composed_recall() {
    let objective = ObjectiveFunction::default;
    let pipeline = Pipeline::builder(objective())
        .candidate_filter()
        .truncate(6)
        .beam_filter(8)
        .refine(ExhaustiveMatcher::new(objective()));
    for (seed, domain) in [(66, Domain::Commerce), (67, Domain::Travel)] {
        let problem = problem(seed, domain);
        let registry = MappingRegistry::new();
        let run = pipeline.run_certified(&problem, DELTA_MAX, &registry);
        let breakdown: FactorBreakdown = run.certificate.factor_breakdown();
        assert!(
            breakdown.reproduces(run.certificate.certified_recall(), 1e-9),
            "factor product {} vs certified recall {}",
            breakdown.composed_recall(),
            run.certificate.certified_recall()
        );
        // The stage chain is contiguous and every factor admissible.
        let stages = run.certificate.stages();
        for pair in stages.windows(2) {
            assert_eq!(pair[0].active_out, pair[1].active_in);
        }
        for report in stages {
            assert!((0.0..=1.0).contains(&report.factor), "{report:?}");
        }
    }
}

#[test]
fn pipeline_slots_into_matcher_consumers_unchanged() {
    let objective = ObjectiveFunction::default;
    let pipeline = Pipeline::builder(objective())
        .candidate_filter()
        .beam_filter(16)
        .refine(ExhaustiveMatcher::new(objective()));
    let problem = problem(68, Domain::Publications);
    let registry = MappingRegistry::new();
    let direct = pipeline.run(&problem, DELTA_MAX, &registry);

    // As a boxed trait object.
    let boxed: Box<dyn Matcher + Sync> = Box::new(pipeline.clone());
    assert_answers_bitwise(
        "boxed",
        &boxed.run(&problem, DELTA_MAX, &registry),
        &direct,
        &registry,
    );

    // Behind a CertifiedMatcher: an auto tier loses nothing.
    let certified = CertifiedMatcher::new(
        pipeline.clone(),
        CandidateGenerator::auto(ObjectiveFunction::default()),
    );
    let wrapped = certified.run_certified(&problem, DELTA_MAX, &registry);
    assert_answers_bitwise("certified", &wrapped.answers, &direct, &registry);
    assert_eq!(wrapped.certificate.certified_recall(), 1.0);

    // Through the batch dispatcher, sequential and threaded.
    let batch = BatchProblem::new(
        vec![problem.personal().clone(), problem.personal().clone()],
        problem.repository().clone(),
    )
    .unwrap();
    let seq = BatchMatcher::new(pipeline.clone()).run_batch(&batch, DELTA_MAX, &registry);
    let thr = BatchMatcher::with_threads(pipeline, 2).run_batch(&batch, DELTA_MAX, &registry);
    assert_eq!(seq.len(), 2);
    for (s, t) in seq.iter().zip(&thr) {
        assert_answers_bitwise("batch-solo", s, &direct, &registry);
        assert_answers_bitwise("batch-threaded", t, s, &registry);
    }
}
