//! Differential gate for the certified candidate tier.
//!
//! With no budget the tier only removes schemas it *certifies* empty,
//! so every matcher — complete or heuristic — must return answers
//! **bitwise identical** (ids, resolved mappings, and `f64::to_bits`
//! scores) to its own unrestricted run. With a finite budget the
//! restricted answers must stay a score-consistent subset of the
//! oracle, and for complete inner matchers the certificate must hold:
//! certified recall ≤ measured recall vs the exhaustive oracle.
//!
//! The roster and the bitwise assertion come from
//! [`smx_match::test_support`], shared with the batch-identity and
//! persistence-chaos suites, so every matching system faces the same
//! gate.
//!
//! The memo gate pins the store's memoised candidate-tier bound rows:
//! whatever state the memo is in — warm, cleared, stale after appends,
//! shared by a clone that later diverged, or bounded to one row —
//! candidate sets and whole certified runs (answer scores and every
//! certificate field) equal a fresh store's bit for bit.

use smx_match::test_support::{
    all_matchers, assert_answers_bitwise, canonical_answers, complete_matcher_names,
};
use smx_match::*;
use smx_repo::{Repository, SchemaId, StoreConfig};
use smx_synth::{Domain, Scenario, ScenarioConfig};
use smx_xml::{PrimitiveType, Schema, SchemaBuilder};

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

#[test]
fn auto_budget_is_bitwise_identical_for_all_matchers() {
    for (seed, domain) in [
        (11, Domain::Publications),
        (12, Domain::Commerce),
        (13, Domain::Travel),
    ] {
        let problem = problem(seed, domain);
        let registry = MappingRegistry::new();
        let delta_max = 0.4;
        let generator = CandidateGenerator::auto(ObjectiveFunction::default());
        let candidates = generator.generate(&problem, delta_max);
        // Auto budget keeps every non-certified-empty schema: exact tier.
        assert_eq!(candidates.caps_sum(), 0.0);
        assert_eq!(
            RecallCertificate::new(&candidates, 0).certified_recall(),
            1.0
        );
        for (name, matcher) in all_matchers() {
            let oracle = matcher.run(&problem, delta_max, &registry);
            let tiered = CertifiedMatcher::new(matcher, generator.clone())
                .run_certified(&problem, delta_max, &registry);
            assert_answers_bitwise(name, &oracle, &tiered.answers, &registry);
            assert_answers_bitwise(name, &tiered.answers, &oracle, &registry);
            assert_eq!(tiered.certificate.certified_recall(), 1.0, "{name}");
        }
    }
}

#[test]
fn budget_at_least_repo_size_is_bitwise_identical() {
    let problem = problem(21, Domain::Publications);
    let registry = MappingRegistry::new();
    let delta_max = 0.4;
    let generator = CandidateGenerator::new(
        ObjectiveFunction::default(),
        CandidateConfig {
            budget: Some(problem.repository().len()),
        },
    );
    let candidates = generator.generate(&problem, delta_max);
    assert_eq!(candidates.caps_sum(), 0.0, "budget ≥ n caps nothing");
    let restricted = problem.with_candidates(&candidates);
    for (name, matcher) in all_matchers() {
        let oracle = matcher.run(&problem, delta_max, &registry);
        let tiered = matcher.run(&restricted, delta_max, &registry);
        assert_answers_bitwise(name, &oracle, &tiered, &registry);
    }
}

#[test]
fn finite_budgets_stay_score_consistent_subsets() {
    for (seed, domain) in [(31, Domain::Commerce), (32, Domain::Travel)] {
        let problem = problem(seed, domain);
        let registry = MappingRegistry::new();
        let delta_max = 0.4;
        let oracle = ExhaustiveMatcher::default().run(&problem, delta_max, &registry);
        for budget in [0, 1, 3, 7] {
            let generator = CandidateGenerator::new(
                ObjectiveFunction::default(),
                CandidateConfig {
                    budget: Some(budget),
                },
            );
            let candidates = generator.generate(&problem, delta_max);
            let restricted = problem.with_candidates(&candidates);
            for (name, matcher) in all_matchers() {
                let tiered = matcher.run(&restricted, delta_max, &registry);
                tiered
                    .is_subset_of(&oracle)
                    .unwrap_or_else(|e| panic!("{name} budget {budget}: {e:?}"));
                assert!(
                    tiered.scores_consistent_with(&oracle),
                    "{name} budget {budget}: scores drifted"
                );
            }
        }
    }
}

#[test]
fn certificate_holds_for_complete_matchers_under_pruning() {
    for (seed, domain) in [
        (41, Domain::Publications),
        (42, Domain::Commerce),
        (43, Domain::Travel),
    ] {
        let problem = problem(seed, domain);
        let registry = MappingRegistry::new();
        let delta_max = 0.4;
        let oracle = ExhaustiveMatcher::default().run(&problem, delta_max, &registry);
        for budget in [0, 1, 2, 4, 8, 64] {
            let generator = CandidateGenerator::new(
                ObjectiveFunction::default(),
                CandidateConfig {
                    budget: Some(budget),
                },
            );
            let complete = all_matchers()
                .into_iter()
                .filter(|(name, _)| complete_matcher_names().contains(name));
            for (name, matcher) in complete {
                let certified = CertifiedMatcher::new(matcher, generator.clone())
                    .run_certified(&problem, delta_max, &registry);
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
                    "{domain:?} {name} budget {budget}: certified {cert} > measured {measured}"
                );
                assert!((0.0..=1.0).contains(&cert));
                // The certificate's bookkeeping is internally consistent.
                let c = &certified.certificate;
                assert_eq!(c.answer_count(), certified.answers.len());
                assert!(c.active_schemas() + c.cert_empty_schemas() <= c.total_schemas());
                assert_eq!(c.delta_max(), delta_max);
            }
        }
    }
}

/// A candidate set's certifying bookkeeping, bit for bit: active ids,
/// certified-empty count, `caps_sum` bits, pruned and scored pairs.
type Bookkeeping = (Vec<SchemaId>, usize, u64, u64, u64);

/// A candidate set's [`Bookkeeping`].
fn bookkeeping(set: &CandidateSet) -> Bookkeeping {
    (
        set.active().ids().to_vec(),
        set.cert_empty_count(),
        set.caps_sum().to_bits(),
        set.pruned_pairs(),
        set.scored_pairs(),
    )
}

/// A certified exhaustive run's answer scores and every certificate
/// field, bit for bit.
fn certified_run(problem: &MatchProblem, budget: Option<usize>, delta_max: f64) -> Vec<u64> {
    let generator =
        CandidateGenerator::new(ObjectiveFunction::default(), CandidateConfig { budget });
    let registry = MappingRegistry::new();
    let run = CertifiedMatcher::new(ExhaustiveMatcher::default(), generator)
        .run_certified(problem, delta_max, &registry);
    let mut bits: Vec<u64> = canonical_answers(&run.answers, &registry)
        .into_iter()
        .map(|(_, score)| score)
        .collect();
    let c = &run.certificate;
    bits.extend([
        c.answer_count() as u64,
        c.missed_cap().to_bits(),
        c.active_schemas() as u64,
        c.cert_empty_schemas() as u64,
        c.total_schemas() as u64,
        c.pruned_pairs(),
        c.scored_pairs(),
        c.delta_max().to_bits(),
        c.certified_recall().to_bits(),
    ]);
    bits
}

/// Assert `repo` (in whatever memo state) agrees bit for bit with a
/// fresh, unbounded store of the same schemas, for every gate budget.
fn assert_matches_fresh(state: &str, personal: &Schema, repo: &Repository, delta_max: f64) {
    let mut fresh = Repository::new();
    for (_, schema) in repo.iter() {
        fresh.add(schema.clone());
    }
    let got = MatchProblem::new(personal.clone(), repo.clone()).unwrap();
    let want = MatchProblem::new(personal.clone(), fresh).unwrap();
    for budget in [None, Some(0), Some(3), Some(repo.len())] {
        let generator =
            CandidateGenerator::new(ObjectiveFunction::default(), CandidateConfig { budget });
        assert_eq!(
            bookkeeping(&generator.generate(&got, delta_max)),
            bookkeeping(&generator.generate(&want, delta_max)),
            "{state}, budget {budget:?}: candidate bookkeeping differs"
        );
        assert_eq!(
            certified_run(&got, budget, delta_max),
            certified_run(&want, budget, delta_max),
            "{state}, budget {budget:?}: certified runs differ"
        );
    }
}

/// A schema whose root and leaves carry `labels`, in order.
fn host(name: &str, mut labels: impl Iterator<Item = String>) -> Schema {
    let mut builder = SchemaBuilder::new(name).root(labels.next().expect("a root label"));
    for label in labels {
        builder = builder.leaf(label, PrimitiveType::String);
    }
    builder.build()
}

/// Candidate bookkeeping for every gate budget, on a fresh store of
/// `repo`'s schemas.
fn candidate_runs(personal: &Schema, repo: &Repository, delta_max: f64) -> Vec<Bookkeeping> {
    let mut fresh = Repository::new();
    for (_, schema) in repo.iter() {
        fresh.add(schema.clone());
    }
    let problem = MatchProblem::new(personal.clone(), fresh).unwrap();
    [None, Some(0), Some(3), Some(repo.len())]
        .into_iter()
        .map(|budget| {
            let generator =
                CandidateGenerator::new(ObjectiveFunction::default(), CandidateConfig { budget });
            bookkeeping(&generator.generate(&problem, delta_max))
        })
        .collect()
}

/// Run every gate budget once, so the store's memo holds the
/// personal labels' bound rows and their refinements.
fn warm_memo(personal: &Schema, repo: &Repository, delta_max: f64) {
    let problem = MatchProblem::new(personal.clone(), repo.clone()).unwrap();
    for budget in [None, Some(0), Some(3), Some(repo.len())] {
        certified_run(&problem, budget, delta_max);
    }
}

/// A threshold tight enough that bounds decide pruning and caps in the
/// memo gate's scenarios (at the suite's usual 0.4 nothing is pruned).
const TIGHT: f64 = 0.15;

#[test]
fn memoised_bound_rows_match_a_fresh_store_bit_for_bit() {
    for (seed, domain) in [(51, Domain::Publications), (52, Domain::Commerce)] {
        let sc = Scenario::generate(ScenarioConfig {
            domain,
            derived_schemas: 5,
            noise_schemas: 5,
            personal_nodes: 4,
            host_nodes: 8,
            perturbation_strength: 0.6,
            seed,
        });
        let personal = sc.personal;
        let schemas: Vec<Schema> = sc.repository.iter().map(|(_, s)| s.clone()).collect();
        let labels: Vec<String> = personal
            .node_ids()
            .map(|id| personal.node(id).name.clone())
            .collect();
        let build = |config: StoreConfig, schemas: &[Schema]| {
            let mut repo = Repository::with_store_config(config);
            for schema in schemas {
                repo.add(schema.clone());
            }
            repo
        };
        for delta_max in [TIGHT, 0.4] {
            // Warm memo: the second request reads memoised rows.
            let warm = build(StoreConfig::default(), &schemas);
            warm_memo(&personal, &warm, delta_max);
            let hits = warm.store().counters().bound_row_hits;
            assert_matches_fresh("warm memo", &personal, &warm, delta_max);
            assert!(
                warm.store().counters().bound_row_hits > hits,
                "memo never hit"
            );

            // Cleared memo: the next requests rebuild every bound row.
            warm.store().clear_rows();
            assert_matches_fresh("cleared memo", &personal, &warm, delta_max);

            // Stale memo: labels appended after memoisation, including a
            // schema interning the personal labels verbatim — the label
            // raw-equal to a query (bounded at 1.0) appears under it.
            let (without, with): (Vec<Schema>, Vec<Schema>) = schemas
                .iter()
                .cloned()
                .partition(|s| s.node_ids().all(|id| s.node(id).name != labels[0]));
            let mut stale = build(StoreConfig::default(), &without);
            assert!(stale.store().interner().get(&labels[0]).is_none());
            warm_memo(&personal, &stale, delta_max);
            for schema in with {
                stale.add(schema);
            }
            stale.add(host("verbatim", labels.iter().cloned()));
            assert!(stale.store().interner().get(&labels[0]).is_some());
            assert_matches_fresh("stale memo", &personal, &stale, delta_max);

            // Cloned, then diverged: both lineages start from one shared
            // memo and intern as many different labels — near matches of
            // the personal labels on the left, far ones on the right — so
            // a row built on one lineage's label list would move the
            // other's certificates.
            let mut left = build(StoreConfig::default(), &schemas);
            warm_memo(&personal, &left, delta_max);
            let mut right = left.clone();
            left.add(host("left", labels.iter().map(|l| format!("{l}Qz"))));
            right.add(host(
                "right",
                labels
                    .iter()
                    .map(|l| format!("Qz{}", l.chars().rev().collect::<String>())),
            ));
            assert_eq!(left.store().len(), right.store().len());
            assert_ne!(
                candidate_runs(&personal, &left, TIGHT),
                candidate_runs(&personal, &right, TIGHT),
                "the lineages' new labels must move some certificate"
            );
            assert_matches_fresh("diverged left", &personal, &left, delta_max);
            assert_matches_fresh("diverged right", &personal, &right, delta_max);

            // Bounded at one row: the memo thrashes between lanes.
            let bounded = build(
                StoreConfig {
                    max_cached_rows: Some(1),
                    ..StoreConfig::default()
                },
                &schemas,
            );
            warm_memo(&personal, &bounded, delta_max);
            assert!(bounded.store().cached_bound_rows() <= 1);
            assert_matches_fresh("bounded at 1", &personal, &bounded, delta_max);
            assert!(bounded.store().cached_bound_rows() <= 1);
        }
    }
}
