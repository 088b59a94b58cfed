//! Memoised candidate-tier bound rows.
//!
//! The candidate tier (`smx-match`'s `CandidateGenerator`) bounds every
//! personal label against every stored label before any exact scoring:
//! a cheap admissible upper bound per label (the token-set lane capped
//! at `1.0`) and, for the labels whose bound can sway a prune decision,
//! the full-precision bound. Both depend only on the query text and the
//! store's label list — never on a request's threshold, budget, or
//! schema membership — so the store keeps them per query label, next to
//! its score rows:
//!
//! * a **bound row** holds the query's prepared [`QueryFilter`], the
//!   cheap bound and exact trigram intersection count of every label
//!   (one cheap pass, at build), and one slot per label for the
//!   full-precision bound, refined the first time a request asks for it
//!   and kept from then on;
//! * a row is **valid while its length equals the store's label
//!   count**. An ingest that interns new labels starts the store on a
//!   fresh memo, so rows are rebuilt on next use, and store clones whose
//!   label lists diverge never share one;
//! * the memo is shared by store clones, never persisted, emptied by
//!   [`LabelStore::clear_rows`](crate::LabelStore::clear_rows), and on
//!   bounded stores holds at most `max_cached_rows` rows, evicted by the
//!   same global recency rule as score rows, under a bound of its own.
//!
//! Every value equals what the filter index's cheap pass
//! ([`FilterIndex::sim_upper_bounds_cheap`]) and its per-label
//! refinement return for the same query and label list, so a memoised
//! row never changes a prune decision; it only skips recomputing one.

use crate::filter_index::{FilterIndex, QueryFilter};
use crate::intern::LabelId;
use crate::store::evict_lru;
use parking_lot::RwLock;
use smx_text::LabelProfile;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Bit pattern of a full-precision slot not refined yet: a NaN, which
/// no bound ever is.
const UNREFINED: u64 = u64::MAX;

/// One query label's memoised bounds (see the module docs).
pub(crate) struct RowData {
    filter: QueryFilter,
    /// The stored label raw-equal to the query, if any — bounded at
    /// `1.0` by the oracle's raw-equality convention.
    exact: Option<LabelId>,
    cheap: Vec<f64>,
    tri: Vec<u32>,
    /// Full-precision bounds as `f64` bits, [`UNREFINED`] until first
    /// asked for. A slot publishes only its own value, so `Relaxed`
    /// suffices, and concurrent refiners compute identical values, so a
    /// racing store is benign.
    full: Box<[AtomicU64]>,
    last_used: AtomicU64,
}

/// The memo: query label → bound row. Owned by a `LabelStore` behind an
/// `Arc` so store clones share it.
#[derive(Default)]
pub(crate) struct BoundMemo {
    rows: RwLock<HashMap<String, Arc<RowData>>>,
}

impl BoundMemo {
    /// The bound row of `query` against `filters` (the store's
    /// `n_labels`-long label list), and whether the memo already held
    /// it. A miss runs the cheap pass once and memoises the row stamped
    /// `stamp`; the caller then bounds the memo with
    /// [`shrink_to`](Self::shrink_to).
    pub(crate) fn row(
        &self,
        query: &str,
        filters: &FilterIndex,
        exact: impl FnOnce() -> Option<LabelId>,
        stamp: u64,
    ) -> (Arc<RowData>, bool) {
        let n_labels = filters.len();
        if let Some(row) = self.rows.read().get(query) {
            if row.cheap.len() == n_labels {
                row.last_used.store(stamp, Relaxed);
                return (Arc::clone(row), true);
            }
        }
        let filter = QueryFilter::new(query);
        let exact = exact();
        let (mut cheap, mut tri) = (Vec::new(), Vec::new());
        filters.sim_upper_bounds_cheap(&filter, exact, &mut cheap, &mut tri);
        let row = Arc::new(RowData {
            filter,
            exact,
            cheap,
            tri,
            full: (0..n_labels).map(|_| AtomicU64::new(UNREFINED)).collect(),
            last_used: AtomicU64::new(stamp),
        });
        self.rows.write().insert(query.to_owned(), Arc::clone(&row));
        (row, false)
    }

    /// Memoised rows held.
    pub(crate) fn len(&self) -> usize {
        self.rows.read().len()
    }

    /// Drop every memoised row.
    pub(crate) fn clear(&self) {
        self.rows.write().clear();
    }

    /// Evict least-recently-used rows until at most `cap` remain.
    pub(crate) fn shrink_to(&self, cap: usize) {
        let _ = evict_lru(&mut self.rows.write(), cap, |row: &Arc<RowData>| {
            row.last_used.load(Relaxed)
        });
    }
}

/// One query label's candidate-tier bound row, borrowed from its store
/// by [`LabelStore::bound_row`](crate::LabelStore::bound_row).
pub struct BoundRow<'a> {
    data: Arc<RowData>,
    filters: &'a FilterIndex,
    profiles: &'a [LabelProfile],
    memo_hit: bool,
}

impl<'a> BoundRow<'a> {
    pub(crate) fn new(
        (data, memo_hit): (Arc<RowData>, bool),
        filters: &'a FilterIndex,
        profiles: &'a [LabelProfile],
    ) -> Self {
        BoundRow {
            data,
            filters,
            profiles,
            memo_hit,
        }
    }

    /// The cheap admissible upper bound on the similarity to every
    /// stored label, indexed by label id (never below the
    /// full-precision bound).
    pub fn cheap(&self) -> &[f64] {
        &self.data.cheap
    }

    /// The full-precision upper bound on the similarity to label `id`:
    /// exactly the value [`FilterIndex::sim_upper_bounds`] computes for
    /// it, refined on first use and memoised in the row.
    pub fn full(&self, id: LabelId) -> f64 {
        let slot = &self.data.full[id.index()];
        let bits = slot.load(Relaxed);
        if bits != UNREFINED {
            return f64::from_bits(bits);
        }
        let ub = self.filters.refine_sim_upper_bound(
            &self.data.filter,
            self.profiles,
            self.data.exact,
            id,
            self.data.tri[id.index()],
        );
        debug_assert!(
            ub <= self.data.cheap[id.index()],
            "a full-precision bound must never exceed the cheap one"
        );
        slot.store(ub.to_bits(), Relaxed);
        ub
    }

    /// Whether the row was served from the memo rather than built for
    /// this call.
    pub fn memo_hit(&self) -> bool {
        self.memo_hit
    }
}
