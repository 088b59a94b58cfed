//! The concurrent-sweep counter-consistency gate: with tracing enabled,
//! the site-gated metrics the store publishes into the global
//! [`smx_obs`] registry must agree *exactly* with the store's own
//! atomic [`StoreCounters`](smx_repo::StoreCounters) — even when many
//! threads hammer a tightly bounded cache and race on evictions. The
//! registry increment sits at the same site as the store counter, so
//! any drift would mean a lost or double-counted update. The last gate
//! mixes full rows, candidate subsets and bound rows: swept and
//! subset-filled rows share the store's one row map, its lock and its
//! bound, and every value served stays exact.
//!
//! Tracing state is process-global; tests serialize on [`TRACE_LOCK`]
//! and restore the disabled state before returning.

use smx_repo::{LabelId, StoreConfig};
use smx_synth::strategies::{small_repository, LABEL_POOL};
use smx_text::NameSimilarity;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn reset_tracing() {
    smx_obs::set_enabled(false);
    smx_obs::set_recorder(None);
}

/// Many threads sweep a cache bounded far below the query working set,
/// forcing constant eviction races. Afterwards the store's own counter
/// snapshot must satisfy `hits + misses == lookups`, and the gated
/// registry counter must have moved by exactly the store's eviction
/// delta.
#[test]
fn concurrent_sweeps_keep_registry_and_store_counters_in_lockstep() {
    let _guard = guard();
    let repo = small_repository(StoreConfig {
        max_cached_rows: Some(2),
        batch_threads: 0,
        ..StoreConfig::default()
    });

    let before = repo.store().counters();
    // The registry is process-global and other (serialized) tests may
    // have bumped it, so assert on deltas.
    let evictions_before = smx_obs::registry().counter("store.row_evictions").get();
    let collector = smx_obs::install_collector();

    std::thread::scope(|scope| {
        for t in 0..4usize {
            let repo = &repo;
            scope.spawn(move || {
                for round in 0..6usize {
                    for (i, query) in LABEL_POOL.iter().enumerate() {
                        if (i + t + round) % 2 == 0 {
                            let rows = repo.store().score_rows(&[query]);
                            assert_eq!(rows.len(), 1);
                        }
                    }
                }
            });
        }
    });
    reset_tracing();

    let after = repo.store().counters();
    assert_eq!(
        after.row_hits + after.row_misses,
        after.row_lookups,
        "lookup accounting drifted under concurrency"
    );
    assert!(
        after.row_evictions > before.row_evictions,
        "a cap-2 cache swept by {} labels must evict",
        LABEL_POOL.len()
    );
    let registry_delta =
        smx_obs::registry().counter("store.row_evictions").get() - evictions_before;
    assert_eq!(
        registry_delta,
        after.row_evictions - before.row_evictions,
        "gated registry counter diverged from StoreCounters under concurrent sweeps"
    );
    assert!(
        !collector.is_empty(),
        "traced sweeps emitted no store.score_rows spans"
    );
}

/// Sweep span attributes are **exact**, not approximations: each traced
/// `score_rows` call stamps the `rows_swept` / `pair_evals` its own call
/// computed (threaded through the core's per-call stats, not read back
/// from the shared counters), so summing the attrs over every span must
/// reproduce the store's counter deltas exactly — even with concurrent
/// sweeps interleaving on a bounded cache.
#[test]
fn concurrent_span_attrs_sum_exactly_to_counter_deltas() {
    let _guard = guard();
    let repo = small_repository(StoreConfig {
        max_cached_rows: Some(2),
        batch_threads: 0,
        ..StoreConfig::default()
    });

    let evals_before = repo.store().pair_evals();
    let misses_before = repo.store().counters().row_misses;
    let collector = smx_obs::install_collector();

    std::thread::scope(|scope| {
        for t in 0..4usize {
            let repo = &repo;
            scope.spawn(move || {
                for round in 0..4usize {
                    for (i, query) in LABEL_POOL.iter().enumerate() {
                        if (i + t + round) % 3 == 0 {
                            let rows = repo.store().score_rows(&[query]);
                            assert_eq!(rows.len(), 1);
                        }
                    }
                }
            });
        }
    });
    reset_tracing();

    let attr_sum = |key: &str| -> u64 {
        collector
            .snapshot()
            .iter()
            .filter(|s| s.name == "store.score_rows")
            .flat_map(|s| &s.attrs)
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| match v {
                smx_obs::AttrValue::U64(n) => *n,
                other => panic!("attr {key} has non-u64 value {other:?}"),
            })
            .sum()
    };
    let counters = repo.store().counters();
    assert_eq!(
        attr_sum("rows_swept"),
        counters.row_misses - misses_before,
        "span rows_swept must sum exactly to rows actually swept"
    );
    assert_eq!(
        attr_sum("pair_evals"),
        repo.store().pair_evals() - evals_before,
        "span pair_evals must sum exactly to the pair-eval delta"
    );
}

/// The instrumented `score_rows` wrapper returns rows bitwise identical
/// to the pre-instrumentation baseline path, with tracing both on and
/// off, and a traced sweep lands observations in the latency histogram.
#[test]
fn instrumented_wrapper_matches_baseline_bitwise() {
    let _guard = guard();
    let config = StoreConfig {
        max_cached_rows: Some(3),
        batch_threads: 0,
        ..StoreConfig::default()
    };
    let traced_repo = small_repository(config);
    let baseline_repo = small_repository(config);
    let queries: Vec<&str> = LABEL_POOL.to_vec();

    let _collector = smx_obs::install_collector();
    let hist_before = smx_obs::registry()
        .histogram("store.score_rows_ns")
        .data()
        .count;
    let traced = traced_repo.store().score_rows(&queries);
    let hist_after = smx_obs::registry()
        .histogram("store.score_rows_ns")
        .data()
        .count;
    reset_tracing();
    let baseline = baseline_repo.store().score_rows_uninstrumented(&queries);

    assert_eq!(traced.len(), baseline.len());
    for (q, (t, b)) in queries.iter().zip(traced.iter().zip(baseline.iter())) {
        assert_eq!(t.len(), b.len());
        for (x, y) in t.iter().zip(b.iter()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "row for query {q:?} diverged between wrapper and baseline"
            );
        }
    }
    assert!(
        hist_after > hist_before,
        "traced sweep recorded no store.score_rows_ns observations"
    );
}

/// Every caller shares the store's one row lock and one bound-row
/// memo. Four threads, released together, mix full
/// rows, subsets over two different column sets, and bound rows on a
/// cache bounded at 2, while one thread tightens the bound to 1
/// midway. Afterwards every value a thread received equals the scalar
/// oracle bitwise, every cache kind holds at most the final bound, and
/// the lookup counters add up.
#[test]
fn mixed_callers_on_one_lock_stay_exact_and_bounded() {
    let _guard = guard();
    let repo = small_repository(StoreConfig {
        max_cached_rows: Some(2),
        ..StoreConfig::default()
    });
    let store = repo.store();
    let n = store.len();
    let evens: Vec<usize> = (0..n).step_by(2).collect();
    let thirds: Vec<usize> = (1..n).step_by(3).collect();
    let start = Barrier::new(4);
    let midway = Barrier::new(4);
    // (query, served columns — `None` for a full row, the row)
    type Received = Vec<(&'static str, Option<Vec<usize>>, Arc<Vec<f64>>)>;
    let results: Vec<(Received, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4usize)
            .map(|t| {
                let (evens, thirds) = (&evens, &thirds);
                let (start, midway) = (&start, &midway);
                scope.spawn(move || {
                    let mut got: Received = Vec::new();
                    let mut subset_calls = 0u64;
                    start.wait();
                    for round in 0..4usize {
                        if round == 2 {
                            midway.wait();
                            if t == 0 {
                                store.set_max_cached_rows(Some(1));
                            }
                        }
                        for (i, &query) in LABEL_POOL.iter().enumerate() {
                            let cols = match (i + t + round) % 4 {
                                0 => None,
                                1 => Some(evens),
                                2 => Some(thirds),
                                _ => {
                                    assert_eq!(store.bound_row(query).cheap().len(), n);
                                    continue;
                                }
                            };
                            let row = match cols {
                                None => store.score_row(query),
                                Some(cols) => {
                                    subset_calls += 1;
                                    store.score_rows_subset(&[query], cols).remove(0)
                                }
                            };
                            got.push((query, cols.cloned(), row));
                        }
                    }
                    (got, subset_calls)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });

    let oracle = NameSimilarity::default();
    for (query, cols, row) in results.iter().flat_map(|(got, _)| got) {
        let cols: Vec<usize> = cols.clone().unwrap_or_else(|| (0..n).collect());
        for c in cols {
            let label = store.interner().resolve(LabelId(c as u32));
            assert_eq!(
                row[c].to_bits(),
                oracle.distance(query, label).to_bits(),
                "{query:?} vs {label:?}"
            );
        }
    }
    for (kind, held) in [
        ("rows", store.cached_rows()),
        ("bound rows", store.cached_bound_rows()),
    ] {
        assert!(held <= 1, "{held} {kind} cached above the final bound 1");
    }
    let c = store.counters();
    assert_eq!(c.row_hits + c.row_misses, c.row_lookups);
    let subset_calls: u64 = results.iter().map(|(_, calls)| calls).sum();
    assert_eq!(c.subset_lookups, subset_calls);
}
