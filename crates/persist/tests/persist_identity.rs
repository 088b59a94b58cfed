//! The persistence identity gate: a loaded snapshot must be
//! indistinguishable — **bitwise**, down to every answer score — from
//! the repository it was saved from, across all six matching systems;
//! and a row that was spilled to disk and faulted back must be bitwise
//! equal to its recomputed twin.

use smx_eval::AnswerSet;
use smx_match::{
    BatchMatcher, BatchProblem, BeamMatcher, BruteForceMatcher, ClusterMatcher, ExhaustiveMatcher,
    Mapping, MappingRegistry, MatchProblem, Matcher, ObjectiveFunction, ParallelExhaustiveMatcher,
    TopKMatcher,
};
use smx_persist::{Snapshot, SpillFile};
use smx_repo::{LabelId, Repository, StoreConfig};
use smx_synth::{Scenario, ScenarioConfig};
use smx_text::NameSimilarity;
use smx_xml::Schema;
use std::path::PathBuf;
use std::sync::Arc;

const DELTA_MAX: f64 = 0.45;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("smx-persist-{}-{tag}.bin", std::process::id()))
}

fn scenario(seed: u64) -> Scenario {
    Scenario::generate(ScenarioConfig {
        derived_schemas: 4,
        noise_schemas: 2,
        personal_nodes: 4,
        host_nodes: 8,
        perturbation_strength: 0.6,
        seed,
        ..Default::default()
    })
}

/// All six matching systems.
fn matchers() -> Vec<(&'static str, Box<dyn Matcher + Sync>)> {
    let objective = ObjectiveFunction::default;
    vec![
        ("exhaustive", Box::new(ExhaustiveMatcher::new(objective()))),
        (
            "parallel",
            Box::new(ParallelExhaustiveMatcher::new(objective(), 3)),
        ),
        ("brute-force", Box::new(BruteForceMatcher::new(objective()))),
        ("beam", Box::new(BeamMatcher::new(objective(), 16))),
        (
            "cluster",
            Box::new(ClusterMatcher::new(objective(), 0.55, 3)),
        ),
        ("topk", Box::new(TopKMatcher::new(objective(), 25))),
    ]
}

/// Registry-independent canonical answers with bitwise score keys.
fn canonical(answers: &AnswerSet, registry: &MappingRegistry) -> Vec<(Mapping, u64)> {
    let mut out: Vec<(Mapping, u64)> = answers
        .answers()
        .iter()
        .map(|a| (registry.resolve(a.id).expect("interned"), a.score.to_bits()))
        .collect();
    out.sort_by(|x, y| x.0.cmp(&y.0));
    out
}

fn run(
    matcher: &dyn Matcher,
    personal: &Schema,
    repository: &Repository,
    registry: &MappingRegistry,
) -> AnswerSet {
    let problem =
        MatchProblem::new(personal.clone(), repository.clone()).expect("non-empty personal schema");
    matcher.run(&problem, DELTA_MAX, registry)
}

#[test]
fn loaded_snapshot_matches_bitwise_across_all_six_matchers() {
    let sc = scenario(101);
    let repository = sc.repository;
    // Warm the store the way production traffic would.
    let warm = MatchProblem::new(sc.personal.clone(), repository.clone()).unwrap();
    warm.cost_matrix(&ObjectiveFunction::default());
    let bytes = repository.save_snapshot();
    let loaded = Repository::load_snapshot(&bytes).expect("snapshot decodes");
    assert_eq!(loaded, repository);
    for (name, matcher) in matchers() {
        let registry = MappingRegistry::new();
        let fresh = run(&matcher, &sc.personal, &repository, &registry);
        let restarted = run(&matcher, &sc.personal, &loaded, &registry);
        assert_eq!(
            canonical(&fresh, &registry),
            canonical(&restarted, &registry),
            "{name}: loaded snapshot diverged from the original repository"
        );
        for (a, b) in fresh.answers().iter().zip(restarted.answers()) {
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{name}");
        }
    }
    // The loaded store serves the warmed rows without recomputing them.
    let replay = MatchProblem::new(sc.personal, loaded.clone()).unwrap();
    replay.cost_matrix(&ObjectiveFunction::default());
    assert_eq!(
        loaded.store().pair_evals(),
        0,
        "warm rows must survive the restart"
    );
}

#[test]
fn snapshot_file_round_trip_and_batch_equivalence() {
    let sc = scenario(202);
    let repository = sc.repository;
    let personals: Vec<Schema> = (0..4).map(|i| scenario(300 + i).personal).collect();
    // Warm through the batch path, snapshot to an actual file.
    let batch = BatchProblem::new(personals.clone(), repository.clone()).unwrap();
    batch.prefill_rows();
    let path = temp_path("file-roundtrip");
    repository
        .save_snapshot_file(&path)
        .expect("snapshot writes");
    let loaded = Repository::load_snapshot_file(&path).expect("snapshot reads");
    std::fs::remove_file(&path).ok();
    let registry = MappingRegistry::new();
    let matcher = BatchMatcher::new(ExhaustiveMatcher::default());
    let expected = matcher.run_batch(
        &BatchProblem::new(personals.clone(), repository).unwrap(),
        DELTA_MAX,
        &registry,
    );
    let got = matcher.run_batch(
        &BatchProblem::new(personals, loaded).unwrap(),
        DELTA_MAX,
        &registry,
    );
    assert_eq!(got.len(), expected.len());
    for (i, (b, s)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(
            canonical(b, &registry),
            canonical(s, &registry),
            "problem {i}"
        );
    }
}

#[test]
fn spilled_then_faulted_rows_are_bitwise_equal_to_recompute() {
    let sc = scenario(404);
    // Twin repositories: one bounded with a spill file, one untouched.
    let mut spilling = Repository::with_store_config(StoreConfig {
        max_cached_rows: Some(2),
        batch_threads: 0,
        ..StoreConfig::default()
    });
    let mut oracle = Repository::new();
    for (_, schema) in sc.repository.iter() {
        spilling.add(schema.clone());
        oracle.add(schema.clone());
    }
    let path = temp_path("spill-fault");
    let spill = Arc::new(SpillFile::create(&path).expect("spill file"));
    spilling
        .store()
        .set_eviction_sink(Some(Arc::clone(&spill) as _));
    let queries: Vec<String> = (0..8).map(|i| format!("spillQuery{i}")).collect();
    for q in &queries {
        spilling.store().score_row(q);
    }
    assert!(
        spill.len() >= queries.len() - 2,
        "most rows must have spilled"
    );
    // Fault every query back (all but the 2 resident ones come from
    // disk) and compare to the unbounded twin and the scalar oracle.
    let scalar = NameSimilarity::default();
    for q in &queries {
        let evals_before = spilling.store().pair_evals();
        let faulted = spilling.store().score_row(q);
        let recomputed = oracle.store().score_row(q);
        assert_eq!(faulted.len(), recomputed.len());
        for (id, (a, b)) in faulted.iter().zip(recomputed.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{q:?} col {id}");
            let label = oracle.store().interner().resolve(LabelId(id as u32));
            assert_eq!(
                a.to_bits(),
                scalar.distance(q, label).to_bits(),
                "{q:?} vs {label:?}"
            );
        }
        assert_eq!(
            spilling.store().pair_evals(),
            evals_before,
            "{q:?}: faulting a spilled row must not evaluate pairs"
        );
    }
    let c = spilling.store().counters();
    assert!(c.row_spills > 0);
    assert!(c.row_spill_recoveries > 0);
    assert_eq!(c.row_hits + c.row_misses, c.row_lookups);
    std::fs::remove_file(&path).ok();
}

#[test]
fn spilled_rows_back_matchers_identically_under_pressure() {
    let sc = scenario(505);
    let mut bounded = Repository::with_store_config(StoreConfig {
        max_cached_rows: Some(1),
        batch_threads: 0,
        ..StoreConfig::default()
    });
    for (_, schema) in sc.repository.iter() {
        bounded.add(schema.clone());
    }
    let path = temp_path("spill-match");
    let spill = Arc::new(SpillFile::create(&path).expect("spill file"));
    bounded
        .store()
        .set_eviction_sink(Some(Arc::clone(&spill) as _));
    for (name, matcher) in matchers() {
        let registry = MappingRegistry::new();
        let free = run(&matcher, &sc.personal, &sc.repository, &registry);
        let pressured = run(&matcher, &sc.personal, &bounded, &registry);
        assert_eq!(
            canonical(&free, &registry),
            canonical(&pressured, &registry),
            "{name}: spill-backed store diverged"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn spill_survives_restart_next_to_a_snapshot() {
    // The full warm-restart story: snapshot the repository, reopen the
    // spill file, and the first post-restart query of a spilled row
    // costs zero pair evaluations.
    let sc = scenario(606);
    let mut repo = Repository::with_store_config(StoreConfig {
        max_cached_rows: Some(1),
        batch_threads: 0,
        ..StoreConfig::default()
    });
    for (_, schema) in sc.repository.iter() {
        repo.add(schema.clone());
    }
    let path = temp_path("spill-restart");
    {
        let spill = Arc::new(SpillFile::create(&path).expect("spill file"));
        repo.store().set_eviction_sink(Some(spill as _));
        repo.store().score_row("alpha");
        repo.store().score_row("beta"); // evicts + spills alpha
    }
    let bytes = repo.save_snapshot();
    drop(repo); // "process exit"
    let restarted = Repository::load_snapshot(&bytes).expect("snapshot decodes");
    let spill = Arc::new(SpillFile::open(&path).expect("spill reopens"));
    restarted.store().set_eviction_sink(Some(spill as _));
    let evals = restarted.store().pair_evals();
    let row = restarted.store().score_row("alpha");
    assert_eq!(
        restarted.store().pair_evals(),
        evals,
        "spilled row must fault, not sweep"
    );
    let scalar = NameSimilarity::default();
    for (id, d) in row.iter().enumerate() {
        let label = restarted.store().interner().resolve(LabelId(id as u32));
        assert_eq!(d.to_bits(), scalar.distance("alpha", label).to_bits());
    }
    std::fs::remove_file(&path).ok();
}
