//! Property tests for the LRU-bounded score-row cache: after *any*
//! interleaving of ingests, row fetches, candidate-subset fetches,
//! candidate-tier bound-row fetches, and bound changes —
//!
//! * full rows, partial rows, and memoised bound rows each stay within
//!   `max_cached_rows`,
//! * evicted rows recompute to bitwise-equal values (every fetched row
//!   is checked against the scalar `NameSimilarity` oracle, every bound
//!   row against the filter index's dense passes), and
//! * the counter snapshot satisfies `hits + misses == lookups`.
//!
//! The label pool, fixture schemas, and noisy query labels come from
//! the shared [`smx_synth::strategies`] vocabulary.

use proptest::prelude::*;
use smx_repo::{LabelId, QueryFilter, Repository, StoreConfig};
use smx_synth::strategies::{
    noisy_labels, pool_indices, schema_with_label, small_repository, LABEL_POOL,
};
use smx_text::NameSimilarity;

#[derive(Clone, Debug)]
enum Op {
    /// Fetch `LABEL_POOL[i]`'s score row (cache hit, stale extension, or
    /// sweep).
    Query(usize),
    /// Fetch `LABEL_POOL[i]`'s row restricted to every other column
    /// (full-row hit, partial-row hit, or partial fill).
    Subset(usize),
    /// Fetch `LABEL_POOL[i]`'s candidate-tier bound row (memo hit or
    /// build) and refine it, as candidate generation does.
    Bounds(usize),
    /// Ingest another schema containing `LABEL_POOL[i]` plus a fresh
    /// label.
    Add(usize),
    /// Tighten/loosen the LRU bound on the live store.
    SetCap(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            pool_indices().prop_map(Op::Query),
            pool_indices().prop_map(Op::Subset),
            pool_indices().prop_map(Op::Bounds),
            pool_indices().prop_map(Op::Add),
            (1..6usize).prop_map(Op::SetCap),
        ],
        1..32,
    )
}

/// Assert `row` equals a scalar-oracle sweep of `query`, bitwise.
fn assert_row_is_oracle(repo: &Repository, query: &str, row: &[f64]) {
    let oracle = NameSimilarity::default();
    assert_eq!(row.len(), repo.store().len());
    for (id, d) in row.iter().enumerate() {
        let label = repo.store().interner().resolve(LabelId(id as u32));
        assert_eq!(
            d.to_bits(),
            oracle.distance(query, label).to_bits(),
            "row({query:?}) vs label {label:?}"
        );
    }
}

/// Assert the subset row of `query` over `cols` equals the scalar
/// oracle at every requested column, bitwise.
fn assert_subset_is_oracle(repo: &Repository, query: &str, cols: &[usize], row: &[f64]) {
    let oracle = NameSimilarity::default();
    for &col in cols {
        let label = repo.store().interner().resolve(LabelId(col as u32));
        assert_eq!(
            row[col].to_bits(),
            oracle.distance(query, label).to_bits(),
            "subset row({query:?}) vs label {label:?}"
        );
    }
}

/// Assert the bound row of `query` equals the filter index's dense
/// cheap and full passes, bitwise.
fn assert_bounds_are_exact(repo: &Repository, query: &str) {
    let store = repo.store();
    let row = store.bound_row(query);
    let filter = QueryFilter::new(query);
    let (mut cheap, mut tri, mut full) = (Vec::new(), Vec::new(), Vec::new());
    store.filter_index().sim_upper_bounds_cheap(
        &filter,
        store.interner().get(query),
        &mut cheap,
        &mut tri,
    );
    store.similarity_upper_bounds(&filter, &mut full);
    assert_eq!(row.cheap().len(), store.len());
    for id in 0..store.len() {
        assert_eq!(row.cheap()[id].to_bits(), cheap[id].to_bits(), "{query:?}");
        assert_eq!(
            row.full(LabelId(id as u32)).to_bits(),
            full[id].to_bits(),
            "{query:?}"
        );
    }
}

proptest! {
    #[test]
    fn lru_invariants_hold_under_any_interleaving(operations in ops(), cap0 in 1..5usize) {
        let mut repo = small_repository(StoreConfig {
            max_cached_rows: Some(cap0),
            batch_threads: 0,
            ..StoreConfig::default()
        });
        let mut cap = cap0;
        let mut salt = 0usize;
        for op in &operations {
            match op {
                Op::Query(i) => {
                    let query = LABEL_POOL[*i];
                    let row = repo.store().score_row(query);
                    assert_row_is_oracle(&repo, query, &row);
                }
                Op::Subset(i) => {
                    let query = LABEL_POOL[*i];
                    let cols: Vec<usize> = (0..repo.store().len()).step_by(2).collect();
                    let row = repo.store().score_rows_subset(&[query], &cols);
                    assert_subset_is_oracle(&repo, query, &cols, &row[0]);
                }
                Op::Bounds(i) => assert_bounds_are_exact(&repo, LABEL_POOL[*i]),
                Op::Add(i) => {
                    salt += 1;
                    repo.add(schema_with_label(LABEL_POOL[*i], salt));
                }
                Op::SetCap(c) => {
                    cap = *c;
                    repo.store().set_max_cached_rows(Some(cap));
                }
            }
            let store = repo.store();
            for (kind, held) in [
                ("rows", store.cached_rows()),
                ("partial rows", store.cached_partial_rows()),
                ("bound rows", store.cached_bound_rows()),
            ] {
                prop_assert!(
                    held <= cap,
                    "{} cached {} exceed bound {} after {:?}",
                    held,
                    kind,
                    cap,
                    op
                );
            }
        }
        let c = repo.store().counters();
        prop_assert_eq!(c.row_hits + c.row_misses, c.row_lookups);
        // Re-fetch the whole pool once more: evicted rows recompute to
        // bitwise-equal values regardless of the history above.
        for query in LABEL_POOL {
            let row = repo.store().score_row(query);
            assert_row_is_oracle(&repo, query, &row);
        }
    }

    #[test]
    fn bounded_store_agrees_with_unbounded_twin(
        queries in proptest::collection::vec(pool_indices(), 1..24),
        cap in 1..4usize,
    ) {
        let bounded = small_repository(StoreConfig { max_cached_rows: Some(cap), batch_threads: 0, ..StoreConfig::default() });
        let unbounded = small_repository(StoreConfig::default());
        for &i in &queries {
            let query = LABEL_POOL[i];
            let b = bounded.store().score_row(query);
            let u = unbounded.store().score_row(query);
            prop_assert_eq!(b.len(), u.len());
            for (x, y) in b.iter().zip(u.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{:?}", query);
            }
            prop_assert!(bounded.store().cached_rows() <= cap);
        }
        let cb = bounded.store().counters();
        let cu = unbounded.store().counters();
        prop_assert_eq!(cb.row_hits + cb.row_misses, cb.row_lookups);
        prop_assert_eq!(cu.row_hits + cu.row_misses, cu.row_lookups);
        // The bound can only cost extra sweeps, never save any.
        prop_assert!(cb.pair_evals >= cu.pair_evals);
        prop_assert!(cb.row_evictions >= cu.row_evictions);
    }

    #[test]
    fn batched_fetch_equals_individual_fetch_bitwise(
        batch in proptest::collection::vec(noisy_labels(), 0..16),
    ) {
        // Edit-noised queries: near-misses of interned labels exercise
        // the same sweep path as exact pool hits, bitwise.
        let batched = small_repository(StoreConfig::default());
        let individual = small_repository(StoreConfig::default());
        let queries: Vec<&str> = batch.iter().map(String::as_str).collect();
        let rows = batched.store().score_rows(&queries);
        prop_assert_eq!(rows.len(), queries.len());
        for (&query, row) in queries.iter().zip(&rows) {
            let alone = individual.store().score_row(query);
            prop_assert_eq!(row.len(), alone.len());
            for (x, y) in row.iter().zip(alone.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{:?}", query);
            }
        }
        let c = batched.store().counters();
        prop_assert_eq!(c.row_hits + c.row_misses, c.row_lookups);
        prop_assert_eq!(c.row_lookups, queries.len() as u64);
    }
}
