//! Differential suite: the batch matching subsystem must be a pure
//! execution strategy. For every matcher, [`BatchMatcher`] results are
//! bitwise identical — scores always, interned ids too under sequential
//! dispatch — to running each problem alone through the same matcher.
//!
//! The matcher roster and the canonical/bitwise helpers come from
//! [`smx_match::test_support`], shared with the candidate-differential
//! and persistence-chaos suites.

use smx_eval::AnswerSet;
use smx_match::test_support::{all_matchers, canonical_answers, run_matcher};
use smx_match::{
    BatchMatcher, BatchProblem, ExhaustiveMatcher, MappingRegistry, MatchProblem, Matcher,
    ObjectiveFunction,
};
use smx_repo::Repository;
use smx_synth::{Scenario, ScenarioConfig};
use smx_xml::Schema;

const DELTA_MAX: f64 = 0.45;

fn config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        derived_schemas: 3,
        noise_schemas: 2,
        personal_nodes: 4,
        host_nodes: 7,
        perturbation_strength: 0.6,
        seed,
        ..Default::default()
    }
}

/// One repository plus one personal schema per seed (same domain, so
/// label vocabularies overlap across the batch — the serving shape).
fn workload(seeds: &[u64]) -> (Vec<Schema>, Repository) {
    let base = Scenario::generate(config(seeds[0]));
    let personals: Vec<Schema> = seeds
        .iter()
        .map(|&seed| Scenario::generate(config(seed)).personal)
        .collect();
    (personals, base.repository)
}

/// The sequential oracle: each personal schema matched alone, in batch
/// order, through a fresh problem against the same repository.
fn sequential_oracle<M: Matcher>(
    matcher: &M,
    personals: &[Schema],
    repository: &Repository,
    registry: &MappingRegistry,
) -> Vec<AnswerSet> {
    personals
        .iter()
        .map(|personal| run_matcher(matcher, personal, repository, DELTA_MAX, registry))
        .collect()
}

#[test]
fn sequential_batch_is_bitwise_identical_for_all_matchers() {
    let (personals, repository) = workload(&[11, 22, 33, 44]);
    for (name, matcher) in all_matchers() {
        // One shared registry, so ids are comparable across runs.
        let registry = MappingRegistry::new();
        let expected = sequential_oracle(&matcher, &personals, &repository, &registry);
        let batch = BatchProblem::new(personals.clone(), repository.clone())
            .expect("non-empty personal schemas");
        let got = BatchMatcher::new(matcher).run_batch(&batch, DELTA_MAX, &registry);
        assert_eq!(got.len(), expected.len(), "{name}");
        for (i, (b, s)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(b, s, "{name} problem {i}");
            for (x, y) in b.answers().iter().zip(s.answers()) {
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{name} problem {i}");
            }
        }
    }
}

#[test]
fn threaded_batch_matches_sequential_mappings_bitwise() {
    let (personals, repository) = workload(&[5, 6, 7, 8, 9, 10]);
    for (name, matcher) in all_matchers() {
        let reg_seq = MappingRegistry::new();
        let expected = sequential_oracle(&matcher, &personals, &repository, &reg_seq);
        let reg_batch = MappingRegistry::new();
        let batch = BatchProblem::new(personals.clone(), repository.clone())
            .expect("non-empty personal schemas");
        // Threaded dispatch may intern in a different order, so compare
        // the registry-independent canonical form.
        let got = BatchMatcher::with_threads(matcher, 4).run_batch(&batch, DELTA_MAX, &reg_batch);
        assert_eq!(got.len(), expected.len(), "{name}");
        for (i, (b, s)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                canonical_answers(b, &reg_batch),
                canonical_answers(s, &reg_seq),
                "{name} problem {i}"
            );
        }
    }
}

#[test]
fn empty_batch_yields_no_answer_sets() {
    let (_, repository) = workload(&[11]);
    for (name, matcher) in all_matchers() {
        let batch = BatchProblem::new(Vec::new(), repository.clone()).expect("empty batch ok");
        let registry = MappingRegistry::new();
        let got = BatchMatcher::new(matcher).run_batch(&batch, DELTA_MAX, &registry);
        assert!(got.is_empty(), "{name}");
        assert!(
            registry.is_empty(),
            "{name}: empty batch must intern nothing"
        );
    }
}

#[test]
fn single_problem_batch_equals_solo_run() {
    let (personals, repository) = workload(&[17]);
    for (name, matcher) in all_matchers() {
        let registry = MappingRegistry::new();
        let solo = run_matcher(&matcher, &personals[0], &repository, DELTA_MAX, &registry);
        let batch = BatchProblem::new(vec![personals[0].clone()], repository.clone()).unwrap();
        let got = BatchMatcher::new(matcher).run_batch(&batch, DELTA_MAX, &registry);
        assert_eq!(got.len(), 1, "{name}");
        assert_eq!(got[0], solo, "{name}");
    }
}

#[test]
fn duplicate_schema_batch_repeats_identical_answers() {
    let (personals, repository) = workload(&[23]);
    for (name, matcher) in all_matchers() {
        let registry = MappingRegistry::new();
        let batch = BatchProblem::new(
            vec![
                personals[0].clone(),
                personals[0].clone(),
                personals[0].clone(),
            ],
            repository.clone(),
        )
        .unwrap();
        let batcher = BatchMatcher::new(matcher);
        let got = batcher.run_batch(&batch, DELTA_MAX, &registry);
        assert_eq!(got.len(), 3, "{name}");
        assert_eq!(got[0], got[1], "{name}");
        assert_eq!(got[1], got[2], "{name}");
        // And the duplicates cost nothing at the row level: one distinct
        // label set, one sweep.
        let solo = batcher.inner().run(
            &MatchProblem::new(personals[0].clone(), repository.clone()).unwrap(),
            DELTA_MAX,
            &registry,
        );
        assert_eq!(got[0], solo, "{name}");
    }
}

#[test]
fn batch_prefill_amortises_row_sweeps_across_problems() {
    let (personals, repository) = workload(&[31, 32, 33, 34]);
    repository.clear_score_rows();
    let batch = BatchProblem::new(personals, repository).unwrap();
    let distinct = batch.distinct_labels().len() as u64;
    let store = batch.repository().store();
    let labels = store.len() as u64;
    assert_eq!(store.counters().pair_evals, 0, "workload must start cold");
    batch.prefill_rows();
    let objective = ObjectiveFunction::default();
    for problem in batch.problems() {
        problem.cost_matrix(&objective);
    }
    let c = store.counters();
    assert_eq!(
        c.pair_evals,
        distinct * labels,
        "batch fill = one kernel sweep per distinct label across the whole batch"
    );
    assert_eq!(c.row_misses, distinct);
    // The per-problem fills after the prefill are pure hits: one per
    // distinct label of each problem.
    let fill_lookups: u64 = batch
        .problems()
        .iter()
        .map(|p| p.distinct_personal_labels().len() as u64)
        .sum();
    assert_eq!(c.row_hits, fill_lookups, "fills must only hit");
    assert_eq!(c.row_lookups, distinct + c.row_hits);
    assert_eq!(c.row_hits + c.row_misses, c.row_lookups);
}

#[test]
fn bounded_store_batch_is_identical_to_unbounded() {
    let seeds = [41, 42, 43, 44, 45];
    let (personals, unbounded_repo) = workload(&seeds);
    let (personals_b, bounded_repo) = workload(&seeds); // same seeds ⇒ identical twin
    bounded_repo.store().set_max_cached_rows(Some(2));
    let matcher = ExhaustiveMatcher::default();
    let reg_a = MappingRegistry::new();
    let batch_a = BatchProblem::new(personals, unbounded_repo).unwrap();
    let got_a = BatchMatcher::new(matcher.clone()).run_batch(&batch_a, DELTA_MAX, &reg_a);
    let reg_b = MappingRegistry::new();
    let batch_b = BatchProblem::new(personals_b, bounded_repo).unwrap();
    let got_b = BatchMatcher::new(matcher).run_batch(&batch_b, DELTA_MAX, &reg_b);
    assert_eq!(got_a, got_b, "eviction must never change answers");
    let store = batch_b.repository().store();
    assert!(store.cached_rows() <= 2);
    let c = store.counters();
    assert!(
        c.row_evictions > 0,
        "bound below the batch vocabulary must evict"
    );
    assert_eq!(c.row_hits + c.row_misses, c.row_lookups);
}
