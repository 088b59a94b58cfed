//! The batch subsystem under memory pressure: an LRU bound below the
//! batch vocabulary must cost recompute at *chunk* granularity only,
//! never correctness and never within-chunk thrash.
//!
//! * Batch-aware admission: `run_batch` on a bounded store chunks the
//!   batch so each chunk's vocabulary fits `max_cached_rows`; within a
//!   chunk, `StoreCounters` show zero evictions and zero extra misses
//!   after the chunk's prefill.

use smx_eval::AnswerSet;
use smx_match::{
    BatchMatcher, BatchProblem, ExhaustiveMatcher, Mapping, MappingRegistry, MatchProblem, Matcher,
    ObjectiveFunction,
};
use smx_repo::{Repository, StoreConfig};
use smx_synth::{Scenario, ScenarioConfig};
use smx_xml::Schema;

const DELTA_MAX: f64 = 0.45;

fn scenario(seed: u64) -> ScenarioConfig {
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

/// The repository's schemas replayed into a store with `config` — the
/// same repository content under a different cache regime.
fn with_config(repository: &Repository, config: StoreConfig) -> Repository {
    let mut bounded = Repository::with_store_config(config);
    for (_, schema) in repository.iter() {
        bounded.add(schema.clone());
    }
    bounded
}

fn workload(seeds: &[u64]) -> (Vec<Schema>, Repository) {
    let base = Scenario::generate(scenario(seeds[0]));
    let personals: Vec<Schema> = seeds
        .iter()
        .map(|&seed| Scenario::generate(scenario(seed)).personal)
        .collect();
    (personals, base.repository)
}

/// Registry-independent canonical answers: resolved mappings with
/// bitwise score keys, sorted.
fn canonical(answers: &AnswerSet, registry: &MappingRegistry) -> Vec<(Mapping, u64)> {
    let mut out: Vec<(Mapping, u64)> = answers
        .answers()
        .iter()
        .map(|a| (registry.resolve(a.id).expect("interned"), a.score.to_bits()))
        .collect();
    out.sort_by(|x, y| x.0.cmp(&y.0));
    out
}

#[test]
fn admission_chunks_cover_the_batch_and_respect_the_bound() {
    let (personals, repository) = workload(&[51, 52, 53, 54, 55, 56]);
    for cap in [1usize, 3, 6, 10, 100] {
        let bounded = with_config(
            &repository,
            StoreConfig {
                max_cached_rows: Some(cap),
                batch_threads: 0,
                ..StoreConfig::default()
            },
        );
        let batch = BatchProblem::new(personals.clone(), bounded).expect("non-empty schemas");
        let chunks = batch.admission_chunks();
        // Contiguous cover of 0..len, in order.
        let mut expected_start = 0usize;
        for chunk in &chunks {
            assert_eq!(chunk.start, expected_start);
            assert!(chunk.end > chunk.start, "chunks hold at least one problem");
            expected_start = chunk.end;
        }
        assert_eq!(expected_start, batch.len());
        // Each chunk's union vocabulary fits the bound unless it is a
        // single problem that alone exceeds it.
        for chunk in &chunks {
            let vocab: std::collections::HashSet<&str> = batch.problems()[chunk.clone()]
                .iter()
                .flat_map(|p| p.distinct_personal_labels())
                .collect();
            assert!(
                vocab.len() <= cap || chunk.len() == 1,
                "chunk {chunk:?} vocabulary {} exceeds cap {cap}",
                vocab.len()
            );
        }
    }
    // Unbounded stores admit everything at once.
    let batch = BatchProblem::new(personals, repository).expect("non-empty schemas");
    assert_eq!(batch.admission_chunks(), vec![0..batch.len()]);
}

#[test]
fn within_a_chunk_no_evictions_and_no_extra_misses() {
    let (personals, repository) = workload(&[61, 62, 63, 64, 65]);
    let cap = 8;
    let bounded = with_config(
        &repository,
        StoreConfig {
            max_cached_rows: Some(cap),
            batch_threads: 0,
            ..StoreConfig::default()
        },
    );
    let batch = BatchProblem::new(personals, bounded).expect("non-empty schemas");
    let chunks = batch.admission_chunks();
    assert!(
        chunks.len() > 1,
        "workload must not fit one chunk for the test to bite"
    );
    let store = batch.repository().store();
    let objective = ObjectiveFunction::default();
    for chunk in chunks {
        let served = batch.prefill_chunk(chunk.clone());
        assert!(served <= cap || chunk.len() == 1);
        let after_prefill = store.counters();
        // The chunk's problems match with their rows resident: the LRU
        // may have evicted *previous* chunks' rows during the prefill,
        // but within the chunk nothing is evicted and nothing misses.
        for problem in &batch.problems()[chunk] {
            problem.cost_matrix(&objective);
        }
        let after_fills = store.counters();
        assert_eq!(
            after_fills.row_evictions, after_prefill.row_evictions,
            "evictions within a chunk"
        );
        assert_eq!(
            after_fills.row_misses, after_prefill.row_misses,
            "within-chunk fills must all hit the prefilled rows"
        );
        assert_eq!(after_fills.pair_evals, after_prefill.pair_evals);
    }
}

#[test]
fn bounded_chunked_run_batch_is_bitwise_identical_and_thrash_free() {
    let (personals, repository) = workload(&[71, 72, 73, 74, 75, 76]);
    let registry = MappingRegistry::new();
    let matcher = ExhaustiveMatcher::default();
    let expected: Vec<AnswerSet> = personals
        .iter()
        .map(|personal| {
            let problem = MatchProblem::new(personal.clone(), repository.clone())
                .expect("non-empty personal schema");
            matcher.run(&problem, DELTA_MAX, &registry)
        })
        .collect();
    for cap in [2usize, 5, 9] {
        let bounded = with_config(
            &repository,
            StoreConfig {
                max_cached_rows: Some(cap),
                batch_threads: 0,
                ..StoreConfig::default()
            },
        );
        let batch = BatchProblem::new(personals.clone(), bounded).expect("non-empty schemas");
        let chunks = batch.admission_chunks();
        let store = batch.repository().store();
        let got =
            BatchMatcher::new(ExhaustiveMatcher::default()).run_batch(&batch, DELTA_MAX, &registry);
        assert_eq!(got.len(), expected.len(), "cap {cap}");
        for (i, (b, s)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                canonical(b, &registry),
                canonical(s, &registry),
                "cap {cap} problem {i}"
            );
        }
        // Thrash-free accounting: a chunk misses at most its own
        // vocabulary (prefills can still *hit* rows shared with a
        // resident earlier chunk), never more — the extra misses
        // unchunked admission pays when fills chase evicted rows cannot
        // happen. Every miss is one full-row sweep, no partial rescans.
        let per_chunk: u64 = chunks
            .iter()
            .map(|chunk| {
                batch.problems()[chunk.clone()]
                    .iter()
                    .flat_map(|p| p.distinct_personal_labels())
                    .collect::<std::collections::HashSet<&str>>()
                    .len() as u64
            })
            .sum();
        let total_distinct = batch.distinct_labels().len() as u64;
        let chunks_fit = chunks.iter().all(|chunk| {
            batch.problems()[chunk.clone()]
                .iter()
                .flat_map(|p| p.distinct_personal_labels())
                .collect::<std::collections::HashSet<&str>>()
                .len()
                <= cap
        });
        let c = store.counters();
        if chunks_fit {
            assert!(
                (total_distinct..=per_chunk).contains(&c.row_misses),
                "cap {cap}: {} misses outside [{total_distinct}, {per_chunk}]",
                c.row_misses
            );
        }
        // A cap below a single problem's vocabulary (the documented
        // residual thrash case) still answers correctly — only the
        // miss accounting above is forfeit.
        assert_eq!(c.pair_evals, c.row_misses * store.len() as u64, "cap {cap}");
        assert_eq!(c.row_hits + c.row_misses, c.row_lookups, "cap {cap}");
    }
}
