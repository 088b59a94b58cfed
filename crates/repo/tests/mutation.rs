//! Mutation edge cases for the bounded, mutable store: remove-then-readd
//! with identical labels, replace under a bounded store with spilled
//! rows, removal racing a concurrent batch sweep on a shared store, and
//! a property test proving arbitrary mutation histories stay equivalent
//! to a fresh rebuild — column arena included: every slot's labels and
//! node shapes, and an arena exactly as long as the repository's element
//! count. A last property pins the arena's node shapes to the schema's
//! own parent-pointer walks.
//!
//! The load-bearing invariant throughout: label-level derived state
//! (interner, profiles, cached score rows) is **append-only** across
//! removals, so no mutation ever invalidates a cached row — rows are
//! compared bitwise against the scalar `NameSimilarity` oracle after
//! every history.

use proptest::prelude::*;
use smx_repo::{EvictionSink, LabelId, NodeShape, Repository, SchemaId, StoreConfig};
use smx_synth::strategies::{
    pool_indices, scenarios, schema_with_label, small_repository, LABEL_POOL,
};
use smx_text::NameSimilarity;
use smx_xml::{PrimitiveType, Schema, SchemaBuilder};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Assert `row` equals a scalar-oracle sweep of `query` over `repo`'s
/// interned labels, bitwise.
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

/// Rebuild `repo`'s final schemas (tombstones as empty placeholders)
/// into a fresh repository and assert the live-schema accounting and
/// the column arena agree exactly.
fn assert_equals_fresh_rebuild(repo: &Repository) {
    let mut fresh = Repository::new();
    for sid in repo.schema_ids() {
        if repo.is_removed(sid) {
            fresh.add(Schema::new(""));
        } else {
            fresh.add(repo.schema(sid).clone());
        }
    }
    // The rebuild has placeholders, not tombstones — compare liveness
    // against the flags directly.
    assert_eq!(
        repo.live_schemas(),
        repo.schema_ids().filter(|&s| !repo.is_removed(s)).count()
    );
    // Column slots resolve to the same label text, and hold the same
    // node shapes, slot by slot; both arenas hold exactly the elements.
    for sid in repo.schema_ids() {
        let names = |r: &Repository| {
            r.store()
                .schema_labels(sid)
                .iter()
                .map(|&l| r.store().interner().resolve(l).to_owned())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(repo), names(&fresh), "{sid}");
        assert_eq!(
            repo.store().schema_shapes(sid),
            fresh.store().schema_shapes(sid),
            "{sid}: shapes diverged from rebuild"
        );
    }
    assert_eq!(repo.store().columns().len(), repo.total_elements());
    assert_eq!(fresh.store().columns().len(), fresh.total_elements());
}

#[test]
fn remove_then_readd_identical_labels_reuses_interned_state() {
    let mut repo = small_repository(StoreConfig::default());
    let sid = SchemaId(0);
    let original = repo.schema(sid).clone();
    let builds_before = repo.store().profile_builds();
    let cached = repo.store().score_row("bookTitle");

    assert!(repo.remove_schema(sid));
    assert!(repo.is_removed(sid));
    // Re-add the *identical* schema at the same slot.
    assert!(repo.replace_schema(sid, original.clone()));
    assert!(!repo.is_removed(sid));
    assert_eq!(repo.schema(sid), &original);

    let store = repo.store();
    // Every label was already interned — no profile was rebuilt, no
    // label orphaned, and the cached row survived untouched.
    assert_eq!(store.profile_builds(), builds_before);
    assert_eq!(store.orphaned_labels(), 0);
    let again = store.score_row("bookTitle");
    assert!(Arc::ptr_eq(&cached, &again), "cached row was invalidated");
    // remove + readd = two generation bumps, visible in the counters.
    assert_eq!(store.schema_generation(sid), 2);
    assert_eq!(store.counters().schema_removes, 1);
    assert_eq!(store.counters().schema_replaces, 1);
    assert_equals_fresh_rebuild(&repo);
}

/// An in-memory [`EvictionSink`] — spilled rows land in a map, exactly
/// like the persist crate's spill file but without the I/O.
#[derive(Default)]
struct MemorySink {
    spilled: Mutex<HashMap<String, (Vec<f64>, u64)>>,
}

impl EvictionSink for MemorySink {
    fn on_evict(&self, query: &str, row: &[f64], labels_fingerprint: u64) -> bool {
        self.spilled
            .lock()
            .unwrap()
            .insert(query.to_owned(), (row.to_vec(), labels_fingerprint));
        true
    }

    fn recover(&self, query: &str) -> Option<(Vec<f64>, u64)> {
        self.spilled.lock().unwrap().get(query).cloned()
    }
}

#[test]
fn replace_under_bounded_store_recovers_spilled_rows() {
    let mut repo = small_repository(StoreConfig {
        max_cached_rows: Some(1),
        batch_threads: 0,
        ..StoreConfig::default()
    });
    let sink = Arc::new(MemorySink::default());
    repo.store().set_eviction_sink(Some(sink.clone()));

    // Fill "orderTitle", then evict it by fetching a second row.
    let _ = repo.store().score_row("orderTitle");
    let _ = repo.store().score_row("bookYear");
    assert!(
        sink.spilled.lock().unwrap().contains_key("orderTitle"),
        "evicted row was not spilled"
    );

    // Replace a schema with one that adds brand-new labels. The spilled
    // row covers the old label prefix; labels are append-only across
    // mutation, so it is still a valid *prefix* after the replace.
    assert!(repo.replace_schema(
        SchemaId(1),
        SchemaBuilder::new("shop2")
            .root("warehouseDepot")
            .leaf("shipmentCode", PrimitiveType::String)
            .build(),
    ));
    let len_after = repo.store().len();

    let recoveries_before = repo.store().counters().row_spill_recoveries;
    let row = repo.store().score_row("orderTitle");
    assert_eq!(row.len(), len_after);
    assert_row_is_oracle(&repo, "orderTitle", &row);
    assert_eq!(
        repo.store().counters().row_spill_recoveries,
        recoveries_before + 1,
        "spilled prefix was not faulted back after the replace"
    );
    assert_equals_fresh_rebuild(&repo);
}

#[derive(Clone, Debug)]
enum Op {
    /// Ingest a fresh schema containing `LABEL_POOL[i]`.
    Add(usize),
    /// Remove the schema at slot `i % len` (no-op if already removed).
    Remove(usize),
    /// Replace slot `i % len` with a schema containing `LABEL_POOL[i]`.
    Replace(usize),
    /// Fetch `LABEL_POOL[i]`'s score row and check it against the
    /// oracle.
    Query(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            pool_indices().prop_map(Op::Add),
            pool_indices().prop_map(Op::Remove),
            pool_indices().prop_map(Op::Replace),
            pool_indices().prop_map(Op::Query),
        ],
        1..24,
    )
}

proptest! {
    /// Arbitrary interleavings of add / remove / replace / query keep
    /// the repository equivalent to a fresh rebuild of its final
    /// schemas, and every fetched row bitwise equal to the scalar
    /// oracle.
    #[test]
    fn mutation_histories_equal_fresh_rebuild(operations in ops(), cap in 1..4usize) {
        let mut repo = small_repository(StoreConfig {
            max_cached_rows: Some(cap),
            batch_threads: 0,
            ..StoreConfig::default()
        });
        let mut salt = 100usize;
        for op in &operations {
            match op {
                Op::Add(i) => {
                    salt += 1;
                    repo.add(schema_with_label(LABEL_POOL[*i], salt));
                }
                Op::Remove(i) => {
                    let sid = SchemaId((*i % repo.len()) as u32);
                    let was_live = !repo.is_removed(sid);
                    prop_assert_eq!(repo.remove_schema(sid), was_live);
                }
                Op::Replace(i) => {
                    salt += 1;
                    let sid = SchemaId((*i % repo.len()) as u32);
                    prop_assert!(repo.replace_schema(sid, schema_with_label(LABEL_POOL[*i], salt)));
                    prop_assert!(!repo.is_removed(sid));
                }
                Op::Query(i) => {
                    let query = LABEL_POOL[*i];
                    let row = repo.store().score_row(query);
                    assert_row_is_oracle(&repo, query, &row);
                }
            }
            prop_assert!(repo.store().cached_rows() <= cap);
            prop_assert!(repo.live_schemas() <= repo.len());
            // Splices never leave dead entries behind.
            prop_assert_eq!(repo.store().columns().len(), repo.total_elements());
            prop_assert_eq!(repo.store().columns().slots(), repo.len());
        }
        let c = repo.store().counters();
        prop_assert_eq!(c.row_hits + c.row_misses, c.row_lookups);
        assert_equals_fresh_rebuild(&repo);
    }

    /// Removal racing a concurrent batch sweep: reader threads sweep a
    /// clone sharing the owner's store `Arc` while the owner mutates
    /// (`Arc::make_mut` detaches the owner's store under the readers —
    /// the row-locking Clone path racing live sweeps).
    /// Readers must see their own frozen lineage bitwise-intact, and
    /// the owner must still equal a fresh rebuild afterwards.
    #[test]
    fn removal_during_concurrent_batch_sweep_is_safe(
        removals in proptest::collection::vec(pool_indices(), 1..6),
        queries in proptest::collection::vec(pool_indices(), 4..16),
    ) {
        let mut owner = small_repository(StoreConfig {
            max_cached_rows: Some(2),
            batch_threads: 0,
            ..StoreConfig::default()
        });
        let mut salt = 500usize;
        for &i in &removals {
            salt += 1;
            owner.add(schema_with_label(LABEL_POOL[i], salt));
        }
        let reader = owner.clone();
        std::thread::scope(|scope| {
            for offset in 0..2usize {
                let reader = &reader;
                let queries = &queries;
                scope.spawn(move || {
                    for chunk in queries[offset..].chunks(3) {
                        let qs: Vec<&str> = chunk.iter().map(|&i| LABEL_POOL[i]).collect();
                        let rows = reader.store().score_rows(&qs);
                        for (q, row) in qs.iter().zip(&rows) {
                            assert_row_is_oracle(reader, q, row);
                        }
                    }
                });
            }
            // Mutate while the sweeps run: the first mutation detaches
            // the owner's store via the row-locking Clone.
            for (n, &i) in removals.iter().enumerate() {
                let sid = SchemaId(((i + n) % owner.len()) as u32);
                owner.remove_schema(sid);
            }
        });
        // The readers' lineage was frozen at the clone; the owner's
        // mutations never touched it.
        prop_assert_eq!(reader.live_schemas(), reader.len());
        prop_assert!(owner.live_schemas() < owner.len() || removals.is_empty());
        assert_equals_fresh_rebuild(&owner);
        let c = owner.store().counters();
        prop_assert_eq!(c.row_hits + c.row_misses, c.row_lookups);
    }

    /// The arena's interval test and depth gap agree with the schema's
    /// own parent-pointer walks for every ordered node pair of every
    /// schema a generated scenario holds (personal schema included):
    /// `ancestor_gap(a, b)` is `Some(depth(b) - depth(a))` exactly when
    /// `is_ancestor(a, b)`. Every edge pricer feeds that pair into one
    /// penalty formula, so shape-priced penalties equal the oracle's
    /// bitwise.
    #[test]
    fn arena_shapes_match_schema_walks(scenario in scenarios()) {
        let mut repo = Repository::new();
        repo.add(scenario.personal.clone());
        for (_, schema) in scenario.repository.iter() {
            repo.add(schema.clone());
        }
        for (sid, schema) in repo.iter() {
            let shapes: &[NodeShape] = repo.store().schema_shapes(sid);
            prop_assert_eq!(shapes.len(), schema.len());
            for a in schema.node_ids() {
                let sa = shapes[a.index()];
                prop_assert_eq!(sa.depth as usize, schema.depth(a));
                for b in schema.node_ids() {
                    let sb = shapes[b.index()];
                    prop_assert_eq!(sa.is_ancestor_of(sb), schema.is_ancestor(a, b));
                    prop_assert_eq!(
                        sa.ancestor_gap(sb),
                        schema.is_ancestor(a, b).then(|| schema.depth(b) - schema.depth(a)),
                        "{} over {} in {}", a, b, sid
                    );
                }
            }
        }
    }
}
