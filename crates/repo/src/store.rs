//! The repository-resident label score store.
//!
//! A production repository answers many matching queries; per-query work
//! should touch only what is new about the query. The store keeps, *on
//! the repository itself* and maintained **incrementally on every
//! [`Repository::add`](crate::Repository::add)**:
//!
//! * the [`LabelInterner`] over every distinct element name,
//! * one [`LabelProfile`] per distinct label — the row kernel's
//!   pair-independent preprocessing (normalised form, token profiles,
//!   Myers pattern table, flat trigram profile), built exactly once, at
//!   ingest,
//! * the flat [`ColumnArena`]: every schema's per-node label ids (the
//!   cost-matrix column map) and tree shapes in two contiguous arrays,
//! * the incremental [`TokenIndex`],
//! * a **score-row cache**: for each query label already seen, the dense
//!   vector of name *distances* to every stored label, computed by one
//!   [`RowKernel`] sweep and reused by every later query.
//!
//! Adding a schema appends: new distinct labels get profiles, postings
//! are appended, and cached score rows stay valid — they simply cover a
//! prefix of the grown label list and are *extended* (only the new
//! columns are evaluated) the next time they are requested. Nothing is
//! ever rebuilt from scratch.
//!
//! # Locks and counters
//!
//! The full-row cache and the partial-row map each sit behind one
//! `RwLock`: hits take the shared lock, fills and evictions the
//! exclusive one. With one map per kind, the LRU bound is global by
//! construction — an eviction pass removes the least-recently-used
//! entries of the whole map. Every work counter lives in one private
//! block of atomics; the row-path counters move while the row lock is
//! held and [`LabelStore::counters`] reads the block under the
//! exclusive lock, so a snapshot never sees a lookup half-counted.
//!
//! # Mutability: remove / replace
//!
//! [`Repository::remove_schema`](crate::Repository::remove_schema) and
//! [`Repository::replace_schema`](crate::Repository::replace_schema)
//! mutate a live repository **incrementally**: removal strips exactly
//! the removed schema's tokens from the [`TokenIndex`] and its id from
//! the label→schema postings, tombstones the slot (ids stay stable —
//! a tombstoned slot holds an empty schema every matcher naturally
//! skips), and bumps the slot's generation; replace re-ingests into the
//! same slot at its sorted posting positions. Nothing is rebuilt.
//!
//! Cached score rows are **never invalidated** by mutations, by design:
//! label-level state (interner, profiles, prefix fingerprints) is
//! append-only even across removals, so every cached row stays a valid
//! prefix of per-label distances. Schema membership is consulted at
//! matrix-build time through the immediately-updated column arena and
//! postings — a stale row cannot leak a removed schema into an answer.
//! The cost is **orphaned labels** ([`LabelStore::orphaned_labels`]):
//! labels no live schema references keep their profile and row columns
//! until a full rebuild reclaims them.
//!
//! # Bounded cache (LRU)
//!
//! Unbounded, the row cache grows with the distinct query vocabulary —
//! fine for experiments, not for a long-lived deployment. [`StoreConfig`]
//! puts a lid on it: with `max_cached_rows` set, the cache evicts the
//! least-recently-used row whenever it would exceed the bound. Evicted
//! rows are simply recomputed (bitwise identically) on next sight, so
//! the bound trades pair evaluations for memory and never affects
//! results. Partial rows and memoised bound rows are held to the same
//! bound by the same rule: one recency clock stamps all three kinds,
//! and each kind keeps at most `max_cached_rows` entries. Hits, misses,
//! and evictions are counted and surfaced through the [`StoreCounters`]
//! snapshot, so warm-path behaviour under memory pressure stays
//! measurable.
//!
//! # Batched queries
//!
//! [`LabelStore::score_rows`] serves many query labels in one call: the
//! missing rows are computed by a single **profile-major sweep** — one
//! pass over the stored [`LabelProfile`]s, evaluating every pending
//! query kernel per profile — instead of one full pass per query, and
//! the pass is chunked across `std::thread::scope` workers when the
//! pending work is large enough to pay for them. Per-pair values are
//! independent, so the batched sweep is bitwise identical to serving
//! each query alone.
//!
//! # Candidate subsets: partial rows
//!
//! The candidate-generation tier (`smx-match`'s `CandidateGenerator`)
//! scores only a pruned set of schemas, so it needs *some columns* of a
//! query's row, not all of them. [`LabelStore::score_rows_subset`]
//! serves exactly that: a full cached row answers any subset for free;
//! otherwise the store keeps a **separate** coverage-masked partial row
//! per query (full-width values with NaN holes plus a bitset of valid
//! columns) and computes only the still-missing columns, one
//! [`RowKernel::distance`] call each — bitwise identical to the same
//! position of a full sweep, because per-pair values are independent.
//! Partial rows never enter the full-row cache, are never offered to
//! the eviction sink, and the full-row path never consults them — so
//! cached full rows and partial rows coexist without poisoning the
//! bitwise-identity contract or any full-row counter invariant. Subset
//! traffic is accounted separately: `candidate_hits` (requested columns
//! served without kernel work), `candidate_pruned` (columns a full
//! sweep would have computed that the subset skipped), and
//! `partial_row_fills` (fill operations that ran the kernel), all in
//! [`StoreCounters`].
//!
//! The store also maintains, incrementally at ingest, the
//! [`FilterIndex`] of per-label filter lanes and trigram postings that
//! the candidate tier's admissible similarity upper bounds are computed
//! from ([`LabelStore::similarity_upper_bounds`]); it is persisted
//! through `smx-persist`'s FILTERS section and rebuilt from label text
//! when a snapshot predates it or its section is damaged. The bounds a
//! query label gets from it are memoised per label as **bound rows**
//! ([`LabelStore::bound_row`], see [`bound_rows`](crate::bound_rows)):
//! valid while their length equals the label count, shared by clones,
//! never persisted, and bounded like the row caches.
//!
//! # Spill: trading disk for recompute
//!
//! With an [`EvictionSink`] installed (see `smx-persist`'s `SpillFile`),
//! evicted rows are handed to the sink *after the cache lock is
//! released* instead of being discarded, and a later miss consults the
//! sink before sweeping: a fully recovered row costs zero pair
//! evaluations, a shorter one (the store grew since the spill) serves as
//! a stale prefix and only its tail is swept. Spilled-then-faulted rows
//! are byte-for-byte the rows that were evicted, so they are bitwise
//! identical to recompute. [`LabelStore::export_state`] /
//! [`LabelStore::import_state`] snapshot and restore the whole hot state
//! (labels, per-schema label columns, token index, cached rows in LRU
//! order) for warm restarts.
//!
//! # Score-identity contract
//!
//! [`LabelStore::score_row`] values are bitwise identical to
//! `NameSimilarity::default().distance(query, label)` — the row kernel
//! guarantees it (see `smx_text::kernel`). The matching crate's
//! `CostMatrix` fills from these rows and stays bitwise equal to direct
//! objective evaluation, which is what `tests/score_identity.rs` in
//! `smx-match` gates on.
//!
//! Every sweep constructs its kernels through
//! [`RowKernel::new`], so the store's pair loops run under the
//! process-wide [`KernelVariant::active`] dispatch tier (scalar oracle,
//! SWAR, or `std::arch` — overridable via `SMX_KERNEL_FORCE`, surfaced
//! in the store's `Debug` output). Variant choice can never change a
//! stored row: all tiers are bitwise-identical by the kernel dispatch
//! contract, differential-tested in `smx_text`.

use crate::bound_rows::{BoundMemo, BoundRow};
use crate::columns::{ColumnArena, NodeShape};
use crate::filter_index::{FilterIndex, FilterProfileData, QueryFilter};
use crate::index::TokenIndex;
use crate::intern::{LabelId, LabelInterner};
use crate::repository::{ElementRef, SchemaId};
use parking_lot::RwLock;
use smx_text::{KernelVariant, LabelProfile, RowKernel};
use smx_xml::Schema;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// Pending batched sweeps smaller than this many (query, label) pairs
/// stay single-threaded — scoped workers cost more than they save.
const PARALLEL_SWEEP_MIN_PAIRS: usize = 1024;

/// Work-stealing sweep granularity: each worker's share of the column
/// axis is cut into this many tiles, so a worker that finishes early
/// claims the next tile off the shared cursor instead of idling behind
/// a static partition.
const TILES_PER_WORKER: usize = 4;

/// Sentinel for "no bound" in the atomic `max_cached_rows` cell.
const UNBOUNDED: usize = usize::MAX;

/// FNV-1a 64 offset basis / prime — the label-prefix fingerprint hash.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continue an FNV-1a 64 hash over more bytes.
fn fnv_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Extend a label-prefix fingerprint by one label (length-framed, so
/// concatenation ambiguities cannot collide two different prefixes).
fn fingerprint_push(hash: u64, label: &str) -> u64 {
    fnv_extend(
        fnv_extend(hash, &(label.len() as u32).to_le_bytes()),
        label.as_bytes(),
    )
}

/// Configuration of a [`LabelStore`]'s score-row cache and batch sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreConfig {
    /// Upper bound on cached score rows. When the cache would exceed it,
    /// least-recently-used rows are evicted (and recomputed, bitwise
    /// identically, if queried again). `None` means unbounded — the
    /// cache grows with the distinct query vocabulary.
    pub max_cached_rows: Option<usize>,
    /// Worker threads for batched row sweeps ([`LabelStore::score_rows`]);
    /// `0` means auto (available parallelism). Small sweeps stay
    /// single-threaded regardless.
    pub batch_threads: usize,
    /// Ignored: the store has one lock per row map and no shards. The
    /// field remains only because the request-level benchmark
    /// (`reqbench/`) still builds `StoreConfig` literals that set it;
    /// it goes once that benchmark stops. Leave it to
    /// `..StoreConfig::default()`. [`LabelStore::config`] always
    /// reports `0`.
    pub shards: usize,
}

/// Receiver for rows evicted from a [`LabelStore`]'s bounded row cache —
/// the hook `smx-persist`'s spill file implements so a memory bound
/// trades disk for recompute instead of discarding work.
///
/// The store calls [`on_evict`](EvictionSink::on_evict) for every
/// evicted row **after releasing the cache lock** (sink I/O never blocks
/// concurrent row lookups), and consults
/// [`recover`](EvictionSink::recover) on a cache miss before sweeping.
/// Recovered rows must be byte-for-byte what was spilled: the store
/// trusts them as valid row prefixes (label ids are append-only, so a
/// shorter recovered row is still a correct prefix of the grown label
/// list).
///
/// # The fingerprint
///
/// A sink may legitimately outlive one store and be consulted by
/// another — clones of a repository diverge (each `add`ing different
/// schemas) while still sharing the sink installed before the split. A
/// spilled row is only correct for a store whose first `row.len()`
/// labels are the ones the row was computed against, so the store
/// passes its label-prefix fingerprint
/// ([`LabelStore::labels_fingerprint`]) at spill time, the sink stores
/// it with the row, and recovery hands it back for the store to check.
/// A mismatch makes the store discard the recovery and recompute —
/// never serve another lineage's distances.
pub trait EvictionSink: Send + Sync {
    /// Persist one evicted row together with the fingerprint of the
    /// label prefix it covers. Returns whether the sink accepted it — a
    /// best-effort sink declines (returns `false`) after e.g. an I/O
    /// error, and the row is then simply dropped as if unspilled.
    fn on_evict(&self, query: &str, row: &[f64], labels_fingerprint: u64) -> bool;

    /// Recover a previously spilled row and the fingerprint recorded
    /// with it, if the sink holds one. `None` on unknown queries *and*
    /// on any read/integrity failure — the store falls back to
    /// recomputing, which is always correct.
    fn recover(&self, query: &str) -> Option<(Vec<f64>, u64)>;

    /// The sink's current health, if it tracks one. The default is
    /// `None` (an opaque sink); `smx-persist`'s spill file reports its
    /// degradation state here, which [`LabelStore::health`] folds into
    /// the store-level [`HealthReport`].
    fn health(&self) -> Option<SinkHealth> {
        None
    }
}

/// Health of an [`EvictionSink`], as self-reported by the sink.
///
/// `degraded` means the sink is temporarily declining spills (it is
/// between a write failure and a successful reopen/retry); `poisoned`
/// means its retry budget is exhausted and it will never accept again.
/// Neither affects correctness — the store recomputes whatever the sink
/// declines — but both mean recompute work the sink was installed to
/// avoid, which is why they are surfaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SinkHealth {
    /// Retry budget exhausted: the sink permanently declines spills.
    pub poisoned: bool,
    /// Temporarily declining spills (cooling down or awaiting reopen).
    pub degraded: bool,
    /// Write errors ever observed.
    pub write_errors: u64,
    /// Successful reopen/recovery cycles after write errors.
    pub reopens: u64,
    /// Bytes in the sink's backing log (including superseded records).
    pub spilled_bytes: u64,
    /// Distinct queries the sink currently holds a recoverable row for.
    pub live_records: u64,
}

/// One consolidated health/degradation view of a [`LabelStore`],
/// returned by [`LabelStore::health`]: the installed sink's self-report
/// (if any), the salvage events recorded when the store was loaded from
/// a damaged snapshot, and the work counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Health of the installed [`EvictionSink`] — `None` when no sink
    /// is installed or the sink doesn't report health.
    pub sink: Option<SinkHealth>,
    /// Salvage events recorded against this store (damaged snapshot
    /// sections that were rebuilt or dropped at load time).
    pub salvage_events: u64,
    /// Cached score rows currently in memory.
    pub cached_rows: usize,
    /// The store's work counters (see [`StoreCounters`]).
    pub counters: StoreCounters,
}

impl HealthReport {
    /// Whether nothing is degraded: no salvaged load, no spill
    /// failures, and the sink (if reporting) neither degraded nor
    /// poisoned.
    pub fn is_healthy(&self) -> bool {
        self.salvage_events == 0
            && self.counters.row_spill_failures == 0
            && self
                .sink
                .is_none_or(|s| !s.poisoned && !s.degraded && s.write_errors == 0)
    }
}

/// Plain-data image of a [`LabelStore`]'s hot state, produced by
/// [`LabelStore::export_state`] and consumed by
/// [`LabelStore::import_state`]. `smx-persist` encodes this to its
/// on-disk snapshot format; keeping the struct here lets the store keep
/// every internal field private.
///
/// Label profiles are deliberately *not* part of the image:
/// [`LabelProfile::new`] is a pure function of the label text, so import
/// rebuilds them from `labels` — cheaper than decoding the prepared
/// Myers tables and gram profiles, and bitwise-equivalent by the kernel
/// contract.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreState {
    /// Distinct labels in [`LabelId`] order. Must be duplicate-free;
    /// `labels[id.index()]` resolves the id.
    pub labels: Vec<String>,
    /// Per schema (by id), the label id of each node in arena order.
    pub schema_labels: Vec<Vec<u32>>,
    /// The token inverted index as `(token, postings)` pairs.
    pub postings: Vec<(String, Vec<ElementRef>)>,
    /// Cached score rows as `(query, distances)`, least recently used
    /// first — import re-stamps them in order, preserving LRU behaviour
    /// across a restart.
    pub rows: Vec<(String, Vec<f64>)>,
    /// The store's cache bound ([`StoreConfig::max_cached_rows`]).
    pub max_cached_rows: Option<usize>,
    /// The store's sweep worker count ([`StoreConfig::batch_threads`]).
    pub batch_threads: usize,
    /// The candidate-generation filter lanes, one entry per label in id
    /// order — `None` for images exported before the filter index
    /// existed (import then rebuilds the lanes from `labels`).
    pub filters: Option<Vec<FilterProfileData>>,
    /// Per schema slot: `(removed, generation)` tombstone state —
    /// `None` for images exported before schema mutability existed
    /// (import then treats every slot as live at generation 0, which is
    /// exactly what such an image described).
    pub tombstones: Option<Vec<(bool, u64)>>,
}

/// A consistent snapshot of a [`LabelStore`]'s work counters.
///
/// All row-path counter updates happen while the row-cache lock is held,
/// and [`LabelStore::counters`] reads them under the exclusive lock — so
/// a snapshot is internally consistent even while parallel matchers are
/// filling rows: `row_hits + row_misses == row_lookups` always holds, a
/// guarantee individual relaxed atomic loads could not give.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreCounters {
    /// Label profiles ever built (label-level work; once per distinct
    /// label, at ingest).
    pub profile_builds: u64,
    /// (query, label) kernel evaluations ever run (pair-level work).
    /// Cached repeats must not move this.
    pub pair_evals: u64,
    /// Row lookups served from the cache (including batch-internal
    /// duplicates served from an in-flight row).
    pub row_hits: u64,
    /// Row lookups that had to sweep (absent rows and stale prefixes).
    pub row_misses: u64,
    /// Total row lookups; equals `row_hits + row_misses`.
    pub row_lookups: u64,
    /// Rows evicted by the LRU bound.
    pub row_evictions: u64,
    /// Evicted rows accepted by the installed [`EvictionSink`] (0
    /// without a sink — evicted rows are then discarded).
    pub row_spills: u64,
    /// Missed rows served (fully or as a reusable prefix) from the
    /// eviction sink instead of being recomputed from scratch.
    pub row_spill_recoveries: u64,
    /// Evicted rows the installed sink *declined* (degraded or poisoned
    /// sink, write error, retry cooldown). Each one is warm state lost
    /// to future recompute; 0 without a sink.
    pub row_spill_failures: u64,
    /// Query slots served by [`LabelStore::score_rows_subset`] — the
    /// candidate tier's lookups, which the full-row `row_*` counters
    /// never see.
    pub subset_lookups: u64,
    /// Candidate-subset columns served without kernel work — from a
    /// full cached row or an already-covered partial-row position
    /// ([`LabelStore::score_rows_subset`]).
    pub candidate_hits: u64,
    /// Columns a full row sweep would have computed that a candidate
    /// subset skipped — the work the candidate tier saved at the store.
    pub candidate_pruned: u64,
    /// Partial-row fill operations: subset requests that ran the kernel
    /// for at least one missing column.
    pub partial_row_fills: u64,
    /// Candidate-tier bound rows served from the memo
    /// ([`LabelStore::bound_row`]).
    pub bound_row_hits: u64,
    /// Candidate-tier bound rows built (memo misses: one cheap filter
    /// pass each).
    pub bound_row_builds: u64,
    /// Schemas removed from the repository
    /// ([`Repository::remove_schema`](crate::Repository::remove_schema)).
    pub schema_removes: u64,
    /// Schemas replaced in place
    /// ([`Repository::replace_schema`](crate::Repository::replace_schema)).
    pub schema_replaces: u64,
}

impl std::fmt::Display for StoreCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "store counters: {} row lookups ({} hits, {} misses), {} pair evals, {} profiles built",
            self.row_lookups, self.row_hits, self.row_misses, self.pair_evals, self.profile_builds
        )?;
        writeln!(
            f,
            "  cache: {} evictions, {} spills, {} recoveries, {} spill failures",
            self.row_evictions, self.row_spills, self.row_spill_recoveries, self.row_spill_failures
        )?;
        writeln!(
            f,
            "  candidate tier: {} subset lookups, {} column hits, {} columns pruned, {} partial fills",
            self.subset_lookups, self.candidate_hits, self.candidate_pruned, self.partial_row_fills
        )?;
        writeln!(
            f,
            "  bound rows: {} memo hits, {} builds",
            self.bound_row_hits, self.bound_row_builds
        )?;
        write!(
            f,
            "  mutations: {} schema removes, {} schema replaces",
            self.schema_removes, self.schema_replaces
        )
    }
}

/// Remove the least-recently-used entries of `map` until it holds at
/// most `cap`, returning the `(key, entry)` victims. Full rows, partial
/// rows, and memoised bound rows are all stamped from the store's one
/// recency clock; `last_used` reads an entry's stamp. One stamp scan
/// plus one partial sort of the victims, so tightening the bound on a
/// large live cache stays `O(len log len)`.
pub(crate) fn evict_lru<V>(
    map: &mut HashMap<String, V>,
    cap: usize,
    last_used: impl Fn(&V) -> u64,
) -> Vec<(String, V)> {
    let Some(excess) = map.len().checked_sub(cap).filter(|&e| e > 0) else {
        return Vec::new();
    };
    let mut stamps: Vec<(u64, String)> = map
        .iter()
        .map(|(key, entry)| (last_used(entry), key.clone()))
        .collect();
    stamps.select_nth_unstable(excess - 1);
    stamps[..excess]
        .iter()
        .map(|(_, key)| map.remove_entry(key).expect("victim key came from the map"))
        .collect()
}

/// One cached score row plus its recency stamp. The stamp is atomic so
/// cache hits can refresh it under the shared read lock.
struct CachedRow {
    row: Arc<Vec<f64>>,
    last_used: AtomicU64,
}

impl Clone for CachedRow {
    fn clone(&self) -> Self {
        CachedRow {
            row: Arc::clone(&self.row),
            last_used: AtomicU64::new(self.last_used.load(Relaxed)),
        }
    }
}

/// A coverage-masked partial score row for candidate subsets: values
/// for the covered columns (NaN holes elsewhere) plus a bitset of which
/// columns are valid, and a recency stamp like [`CachedRow`]'s. Kept in
/// a map separate from the full-row cache so the two can never be
/// confused; a partial may be narrower than the label list after later
/// `add`s (columns past its end are uncovered).
struct PartialRow {
    row: Arc<Vec<f64>>,
    coverage: Vec<u64>,
    last_used: AtomicU64,
}

impl Clone for PartialRow {
    fn clone(&self) -> Self {
        PartialRow {
            row: Arc::clone(&self.row),
            coverage: self.coverage.clone(),
            last_used: AtomicU64::new(self.last_used.load(Relaxed)),
        }
    }
}

/// Whether bit `i` is set in a `u64` bitset.
fn bit_get(bits: &[u64], i: usize) -> bool {
    bits.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
}

/// Set bit `i` in a `u64` bitset (must be in range).
fn bit_set(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1u64 << (i % 64);
}

/// The store's work counters: one atomic per [`StoreCounters`] field.
/// Row-path counters move while the row lock is held, which is what
/// lets [`LabelStore::counters`] take a consistent snapshot.
#[derive(Default)]
struct Counters {
    profile_builds: AtomicU64,
    pair_evals: AtomicU64,
    row_hits: AtomicU64,
    row_misses: AtomicU64,
    row_lookups: AtomicU64,
    row_evictions: AtomicU64,
    row_spills: AtomicU64,
    row_spill_recoveries: AtomicU64,
    row_spill_failures: AtomicU64,
    subset_lookups: AtomicU64,
    candidate_hits: AtomicU64,
    candidate_pruned: AtomicU64,
    partial_row_fills: AtomicU64,
    bound_row_hits: AtomicU64,
    bound_row_builds: AtomicU64,
    schema_removes: AtomicU64,
    schema_replaces: AtomicU64,
}

impl Counters {
    /// A block starting from the counts in `c`.
    fn new(c: StoreCounters) -> Counters {
        Counters {
            profile_builds: AtomicU64::new(c.profile_builds),
            pair_evals: AtomicU64::new(c.pair_evals),
            row_hits: AtomicU64::new(c.row_hits),
            row_misses: AtomicU64::new(c.row_misses),
            row_lookups: AtomicU64::new(c.row_lookups),
            row_evictions: AtomicU64::new(c.row_evictions),
            row_spills: AtomicU64::new(c.row_spills),
            row_spill_recoveries: AtomicU64::new(c.row_spill_recoveries),
            row_spill_failures: AtomicU64::new(c.row_spill_failures),
            subset_lookups: AtomicU64::new(c.subset_lookups),
            candidate_hits: AtomicU64::new(c.candidate_hits),
            candidate_pruned: AtomicU64::new(c.candidate_pruned),
            partial_row_fills: AtomicU64::new(c.partial_row_fills),
            bound_row_hits: AtomicU64::new(c.bound_row_hits),
            bound_row_builds: AtomicU64::new(c.bound_row_builds),
            schema_removes: AtomicU64::new(c.schema_removes),
            schema_replaces: AtomicU64::new(c.schema_replaces),
        }
    }

    /// Relaxed-load snapshot. The paired hit/miss/lookup increments are
    /// seen whole only while the caller holds the exclusive row lock.
    fn snapshot(&self) -> StoreCounters {
        StoreCounters {
            profile_builds: self.profile_builds.load(Relaxed),
            pair_evals: self.pair_evals.load(Relaxed),
            row_hits: self.row_hits.load(Relaxed),
            row_misses: self.row_misses.load(Relaxed),
            row_lookups: self.row_lookups.load(Relaxed),
            row_evictions: self.row_evictions.load(Relaxed),
            row_spills: self.row_spills.load(Relaxed),
            row_spill_recoveries: self.row_spill_recoveries.load(Relaxed),
            row_spill_failures: self.row_spill_failures.load(Relaxed),
            subset_lookups: self.subset_lookups.load(Relaxed),
            candidate_hits: self.candidate_hits.load(Relaxed),
            candidate_pruned: self.candidate_pruned.load(Relaxed),
            partial_row_fills: self.partial_row_fills.load(Relaxed),
            bound_row_hits: self.bound_row_hits.load(Relaxed),
            bound_row_builds: self.bound_row_builds.load(Relaxed),
            schema_removes: self.schema_removes.load(Relaxed),
            schema_replaces: self.schema_replaces.load(Relaxed),
        }
    }
}

/// Exact, call-local accounting of one `score_rows` call — what the
/// tracing wrapper stamps into its span attributes. Derived from the
/// call's own work, not from global counter deltas, so the attrs stay
/// exact under concurrent sweeps (the PR-9 approximation this replaces
/// could misattribute a concurrent caller's work).
#[derive(Debug, Default, Clone, Copy)]
struct SweepStats {
    /// Pending rows this call swept (its own row misses).
    rows_swept: u64,
    /// Kernel pair evaluations this call ran.
    pair_evals: u64,
}

/// Call-local accounting of one `score_rows_subset` call (see
/// [`SweepStats`]).
#[derive(Debug, Default, Clone, Copy)]
struct SubsetStats {
    /// Requested columns this call served without kernel work.
    candidate_hits: u64,
    /// Kernel pair evaluations this call ran.
    pair_evals: u64,
}

/// Interner, per-label profiles, token index, and cached score rows for
/// one repository. Obtained via
/// [`Repository::store`](crate::Repository::store).
pub struct LabelStore {
    interner: LabelInterner,
    /// `profiles[id.index()]` is the profile of `interner.resolve(id)`.
    profiles: Vec<LabelProfile>,
    /// `prefix_hashes[i]` fingerprints labels `0..i` — what spilled
    /// rows are stamped with so recovery can reject rows computed
    /// against a diverged clone's label list. Always `profiles.len()+1`
    /// entries; `prefix_hashes[0]` is the hash offset basis.
    prefix_hashes: Vec<u64>,
    /// Per schema slot, the label and shape of each node in arena
    /// order, flat (see [`ColumnArena`]).
    columns: ColumnArena,
    /// Inverse of the label columns: per label (by id), the schemas that
    /// contain it, ascending and deduplicated — the label→schema
    /// postings candidate generation walks instead of scanning every
    /// (schema, label) pair. Derived state, maintained at ingest and
    /// rebuilt on import.
    label_schemas: Vec<Vec<SchemaId>>,
    index: TokenIndex,
    /// Candidate-generation filter lanes and trigram postings, one
    /// entry per label — maintained in lock-step with `profiles` at
    /// ingest.
    filters: FilterIndex,
    /// Per schema slot: `true` once the schema was removed
    /// ([`Repository::remove_schema`](crate::Repository::remove_schema)).
    /// Tombstoned slots keep their id (every `SchemaId` stays valid) but
    /// hold an empty schema and an empty column slot.
    removed: Vec<bool>,
    /// Per schema slot: bumped on every remove/replace. Consumers that
    /// cache per-schema derived state can compare generations instead of
    /// diffing schema contents.
    generations: Vec<u64>,
    /// Query label → distances to the first `row.len()` stored labels.
    /// Rows are append-consistent: label ids are stable, so a short row
    /// is a valid prefix and only its tail needs computing after adds.
    rows: RwLock<HashMap<String, CachedRow>>,
    /// Query label → coverage-masked partial row (candidate subsets).
    /// Strictly separate from `rows`: partials never serve full-row
    /// requests.
    partial_rows: RwLock<HashMap<String, PartialRow>>,
    /// Memoised candidate-tier bound rows ([`Self::bound_row`]). Shared
    /// by clones; replaced by a fresh memo whenever ingest interns new
    /// labels, so every row in it matches this store's label list.
    bound_memo: Arc<BoundMemo>,
    /// Monotonic recency clock for the LRU stamps.
    clock: AtomicU64,
    /// LRU bound on `rows` (`UNBOUNDED` = no bound). Atomic so tests and
    /// deployments can tighten it on a live, shared store.
    max_cached_rows: AtomicUsize,
    /// Worker threads for batched sweeps (0 = auto).
    batch_threads: usize,
    /// Where evicted rows go instead of the void ([`EvictionSink`]);
    /// consulted on misses before sweeping. Shared across clones.
    sink: RwLock<Option<Arc<dyn EvictionSink>>>,
    /// The work counters behind [`Self::counters`].
    counters: Counters,
    /// Salvage events recorded when this store was loaded from a
    /// damaged snapshot (see `smx-persist`'s `RecoveryPolicy::Salvage`).
    salvage_events: AtomicU64,
}

/// A query the current `score_rows` call must sweep: its first-seen text,
/// the reusable cached prefix (stale rows), and every output slot that
/// asked for it.
struct PendingRow<'q> {
    query: &'q str,
    prefix: Option<Arc<Vec<f64>>>,
    slots: Vec<usize>,
}

impl LabelStore {
    /// An empty store with the default (unbounded) configuration.
    pub fn new() -> Self {
        LabelStore::with_config(StoreConfig::default())
    }

    /// An empty store with an explicit cache bound / sweep configuration.
    pub fn with_config(config: StoreConfig) -> Self {
        LabelStore {
            interner: LabelInterner::new(),
            profiles: Vec::new(),
            prefix_hashes: vec![FNV_OFFSET],
            columns: ColumnArena::new(),
            label_schemas: Vec::new(),
            index: TokenIndex::default(),
            filters: FilterIndex::new(),
            removed: Vec::new(),
            generations: Vec::new(),
            rows: RwLock::default(),
            partial_rows: RwLock::default(),
            bound_memo: Arc::default(),
            clock: AtomicU64::new(0),
            max_cached_rows: AtomicUsize::new(config.max_cached_rows.unwrap_or(UNBOUNDED)),
            batch_threads: config.batch_threads,
            sink: RwLock::new(None),
            counters: Counters::default(),
            salvage_events: AtomicU64::new(0),
        }
    }

    /// The store's current configuration (`shards` is always `0`: the
    /// field is ignored).
    pub fn config(&self) -> StoreConfig {
        let cap = self.max_cached_rows.load(Relaxed);
        StoreConfig {
            max_cached_rows: (cap != UNBOUNDED).then_some(cap),
            batch_threads: self.batch_threads,
            ..StoreConfig::default()
        }
    }

    /// Change the LRU bound on a live store, evicting immediately if the
    /// cache — full rows, partial rows, or memoised bound rows — already
    /// exceeds the new bound. `None` removes the bound.
    pub fn set_max_cached_rows(&self, max: Option<usize>) {
        let cap = max.unwrap_or(UNBOUNDED);
        self.max_cached_rows.store(cap, Relaxed);
        let victims = self.evict_rows_over_cap();
        self.spill_victims(victims);
        self.evict_partials_over_cap();
        self.bound_memo.shrink_to(cap);
    }

    /// Install (or remove, with `None`) the [`EvictionSink`] evicted
    /// rows are handed to. The sink is shared across clones of this
    /// store; sink I/O always happens outside the row-cache lock.
    pub fn set_eviction_sink(&self, sink: Option<Arc<dyn EvictionSink>>) {
        *self.sink.write() = sink;
    }

    /// Whether an eviction sink is currently installed.
    pub fn has_eviction_sink(&self) -> bool {
        self.sink.read().is_some()
    }

    /// Ingest one schema: intern its labels (building profiles only for
    /// labels never seen before), append its column slot, append its
    /// token postings. Called by `Repository::add` with the id the
    /// schema gets; ids must arrive densely in order.
    pub(crate) fn add_schema(&mut self, sid: SchemaId, schema: &Schema) {
        debug_assert_eq!(sid.index(), self.columns.slots());
        let labels = self.intern_schema_labels(schema);
        for &lid in &labels {
            let postings = &mut self.label_schemas[lid.index()];
            // Ids arrive in order, so a duplicate label within this
            // schema is always the postings' current tail.
            if postings.last() != Some(&sid) {
                postings.push(sid);
            }
        }
        self.columns.push(labels, schema);
        self.removed.push(false);
        self.generations.push(0);
        self.index.add_schema(sid, schema);
    }

    /// Intern `schema`'s labels, building profiles, filter lanes, and
    /// prefix fingerprints for labels never seen before, and return the
    /// arena-order column map. Label-level state stays append-only —
    /// shared by ingest ([`add_schema`](Self::add_schema)) and replace
    /// ([`replace_schema`](Self::replace_schema)).
    fn intern_schema_labels(&mut self, schema: &Schema) -> Vec<LabelId> {
        let known = self.interner.len();
        let labels = self.interner.intern_schema(schema);
        for id in known..self.interner.len() {
            let label = self.interner.resolve(LabelId(id as u32));
            let profile = LabelProfile::new(label);
            self.filters.add_label(&profile);
            self.profiles.push(profile);
            let last = *self
                .prefix_hashes
                .last()
                .expect("offset basis always present");
            self.prefix_hashes.push(fingerprint_push(last, label));
        }
        self.counters
            .profile_builds
            .fetch_add((self.interner.len() - known) as u64, Relaxed);
        self.label_schemas
            .resize_with(self.interner.len(), Vec::new);
        if self.interner.len() > known {
            // Every memoised bound row is now one label short. A fresh
            // memo rebuilds them on next use and keeps any clone still
            // on the old label list from ever reading this lineage's rows.
            self.bound_memo = Arc::default();
        }
        labels
    }

    /// Strip live slot `sid` — holding `schema` — from the token index
    /// and the label→schema postings (targeted: only its own tokens and
    /// labels are touched, nothing is rebuilt), bump its generation, and
    /// count the removal. Its column slot is left for the caller to
    /// clear or overwrite.
    fn unlink_schema(&mut self, sid: SchemaId, schema: &Schema) {
        debug_assert!(!self.removed[sid.index()], "slot already tombstoned");
        debug_assert_eq!(self.columns.labels(sid).len(), schema.len());
        // A label the schema repeats finds `sid` already gone.
        for &lid in self.columns.labels(sid) {
            let postings = &mut self.label_schemas[lid.index()];
            if let Ok(pos) = postings.binary_search(&sid) {
                postings.remove(pos);
            }
        }
        self.index.remove_schema(sid, schema);
        self.generations[sid.index()] += 1;
        self.counters.schema_removes.fetch_add(1, Relaxed);
        if smx_obs::enabled() {
            smx_obs::registry().counter("store.schema_removes").inc();
        }
    }

    /// Remove schema `sid`: unlink it from the token index and the
    /// label→schema postings, splice its column slot empty, and
    /// tombstone the slot. `schema` must be the schema the slot held.
    /// Called by
    /// [`Repository::remove_schema`](crate::Repository::remove_schema).
    ///
    /// Cached score rows are deliberately **not** invalidated: rows are
    /// keyed by label *text* and valid per label id, and label-level
    /// state (interner, profiles, fingerprints) stays append-only even
    /// across removals — a removed schema's labels simply become
    /// orphans ([`orphaned_labels`](Self::orphaned_labels)) that no
    /// live schema references. Schema membership is consulted at
    /// matrix-build time through the (immediately updated) column arena
    /// and postings, so stale rows cannot leak removed schemas into
    /// answers.
    pub(crate) fn remove_schema(&mut self, sid: SchemaId, schema: &Schema) {
        self.unlink_schema(sid, schema);
        self.columns.clear(sid);
        self.removed[sid.index()] = true;
    }

    /// Make slot `sid` hold `schema`. `old` is the schema a live slot
    /// held — it is unlinked first, exactly as a removal would, so a
    /// live replace still bumps the generation twice — or `None` for a
    /// tombstone. Then `schema`'s labels are interned (new distinct
    /// labels append, exactly like ingest), the slot is spliced back into
    /// the label→schema postings and token index at its sorted position,
    /// and its column slot is written once: in place when the node count
    /// is unchanged. Called by
    /// [`Repository::replace_schema`](crate::Repository::replace_schema).
    pub(crate) fn replace_schema(&mut self, sid: SchemaId, old: Option<&Schema>, schema: &Schema) {
        match old {
            Some(old) => self.unlink_schema(sid, old),
            None => debug_assert!(self.removed[sid.index()], "slot must be tombstoned"),
        }
        let labels = self.intern_schema_labels(schema);
        // A label the schema repeats finds `sid` already present.
        for &lid in &labels {
            let postings = &mut self.label_schemas[lid.index()];
            if let Err(pos) = postings.binary_search(&sid) {
                postings.insert(pos, sid);
            }
        }
        self.columns.write(sid, &labels, schema);
        self.index.insert_schema_sorted(sid, schema);
        self.removed[sid.index()] = false;
        self.generations[sid.index()] += 1;
        self.counters.schema_replaces.fetch_add(1, Relaxed);
        if smx_obs::enabled() {
            smx_obs::registry().counter("store.schema_replaces").inc();
        }
    }

    /// Whether schema slot `sid` is a tombstone (removed, not
    /// replaced). Out-of-range ids are not removed.
    pub fn is_removed(&self, sid: SchemaId) -> bool {
        self.removed.get(sid.index()).copied().unwrap_or(false)
    }

    /// The mutation generation of schema slot `sid`: 0 for a slot never
    /// mutated, bumped on every remove and every replace.
    pub fn schema_generation(&self, sid: SchemaId) -> u64 {
        self.generations[sid.index()]
    }

    /// Number of live (non-tombstoned) schema slots.
    pub fn live_schema_count(&self) -> usize {
        self.removed.iter().filter(|&&r| !r).count()
    }

    /// Number of orphaned labels: distinct labels no live schema
    /// references anymore. Their profiles and cached row columns stay
    /// (label-level state is append-only — the price of never
    /// invalidating a score row), so this gauge is the memory the
    /// append-only design retains after removals.
    pub fn orphaned_labels(&self) -> usize {
        self.label_schemas.iter().filter(|p| p.is_empty()).count()
    }

    /// The interner over every distinct label in the repository.
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// Number of distinct labels stored.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether no labels are stored.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The profile of one stored label.
    pub fn profile(&self, id: LabelId) -> &LabelProfile {
        &self.profiles[id.index()]
    }

    /// Fingerprint of the first `prefix` labels (length-framed FNV-1a
    /// 64). Two stores agree on a fingerprint iff they agree on that
    /// label prefix, which is exactly what makes a spilled row of that
    /// length transferable between them — see [`EvictionSink`].
    pub fn labels_fingerprint(&self, prefix: usize) -> u64 {
        self.prefix_hashes[prefix]
    }

    /// Per-node label ids of `sid`, arena order — the column map a cost
    /// matrix indexes score rows with.
    pub fn schema_labels(&self, sid: SchemaId) -> &[LabelId] {
        self.columns.labels(sid)
    }

    /// Per-node tree shapes of `sid`, arena order — what the search
    /// prices edges with (an O(1) ancestor test, see [`NodeShape`]).
    pub fn schema_shapes(&self, sid: SchemaId) -> &[NodeShape] {
        self.columns.shapes(sid)
    }

    /// The flat column arena behind [`schema_labels`](Self::schema_labels)
    /// and [`schema_shapes`](Self::schema_shapes): one slot per schema,
    /// holding exactly the repository's elements.
    pub fn columns(&self) -> &ColumnArena {
        &self.columns
    }

    /// The schemas containing label `id`, ascending and deduplicated —
    /// the inverse of [`schema_labels`](Self::schema_labels). Candidate
    /// generation walks these postings for the few labels a query's
    /// filter bounds single out, instead of scanning every
    /// (schema, label) pair in the repository.
    pub fn schemas_with_label(&self, id: LabelId) -> &[SchemaId] {
        &self.label_schemas[id.index()]
    }

    /// The incremental token inverted index.
    pub fn token_index(&self) -> &TokenIndex {
        &self.index
    }

    /// The candidate-generation filter index (per-label filter lanes
    /// and trigram postings), maintained incrementally at ingest.
    pub fn filter_index(&self) -> &FilterIndex {
        &self.filters
    }

    /// Admissible upper bound on
    /// `NameSimilarity::default().similarity(query, label)` for every
    /// stored label, written into `out` indexed by label id — never
    /// below the true similarity (see [`FilterIndex::sim_upper_bounds`]).
    /// The label raw-equal to the query, if stored, is bounded by the
    /// oracle's raw-equality convention (`1.0`).
    pub fn similarity_upper_bounds(&self, query: &QueryFilter, out: &mut Vec<f64>) {
        self.filters
            .sim_upper_bounds(query, &self.profiles, self.interner.get(query.raw()), out);
    }

    /// The candidate-tier bound row of `query`: the cheap admissible
    /// similarity upper bound against every stored label, with
    /// full-precision bounds refined per label on demand — each value
    /// exactly what [`similarity_upper_bounds`](Self::similarity_upper_bounds)'s
    /// passes would compute. Served from the store's memo when the query
    /// was bounded before against the same label list; otherwise built
    /// with one cheap pass and memoised (see
    /// [`bound_rows`](crate::bound_rows)). Counted as
    /// `bound_row_hits` / `bound_row_builds` in [`StoreCounters`].
    pub fn bound_row(&self, query: &str) -> BoundRow<'_> {
        let entry = self.bound_memo.row(
            query,
            &self.filters,
            || self.interner.get(query),
            self.tick(),
        );
        if entry.1 {
            self.counters.bound_row_hits.fetch_add(1, Relaxed);
        } else {
            self.counters.bound_row_builds.fetch_add(1, Relaxed);
            // The bound is read after the insert, so a concurrent
            // `set_max_cached_rows` tightening either sees the new row or
            // is seen here: the memo never stays above the final bound.
            self.bound_memo
                .shrink_to(self.max_cached_rows.load(Relaxed));
        }
        BoundRow::new(entry, &self.filters, &self.profiles)
    }

    /// The dense distance row of `query` against every stored label:
    /// `row[id.index()] == NameSimilarity::default().distance(query,
    /// label)`, bitwise (computed by a [`RowKernel`] sweep).
    ///
    /// Rows are cached per distinct query label (up to the configured
    /// LRU bound). A repeated query — the same personal label in a later
    /// `MatchProblem` against this repository — returns the cached row
    /// without evaluating a single pair. After new schemas were added, a
    /// cached row is extended: only distances to the *new* labels are
    /// computed.
    pub fn score_row(&self, query: &str) -> Arc<Vec<f64>> {
        self.score_rows(&[query]).pop().expect("one row per query")
    }

    /// [`score_row`](Self::score_row) for a whole batch of query labels
    /// in one call: `result[i]` is the row of `queries[i]`.
    ///
    /// Cached rows are served as usual; all *missing* rows (duplicates
    /// deduplicated first) are computed by one profile-major sweep over
    /// the stored label profiles — each profile is visited once and
    /// every pending query kernel evaluated against it — chunked across
    /// scoped worker threads when the pending work is large. Every pair
    /// value is independent, so the result is bitwise identical to
    /// calling `score_row` per query, in any order.
    ///
    /// Concurrent callers may sweep the same query redundantly; they
    /// compute identical values, so last-write-wins is fine.
    pub fn score_rows(&self, queries: &[&str]) -> Vec<Arc<Vec<f64>>> {
        if !smx_obs::enabled() {
            return self.score_rows_core(queries).0;
        }
        let mut span = smx_obs::span("store.score_rows");
        let (out, stats) = self.score_rows_core(queries);
        // Exact, call-local accounting: the sweep path returns its own
        // stats, so the attrs are exact even under concurrent sweeps
        // (this replaces the PR-9 counter-delta approximation, which
        // could misattribute a concurrent caller's work to this span).
        span.attr("queries", queries.len());
        span.attr("rows_swept", stats.rows_swept);
        span.attr("pair_evals", stats.pair_evals);
        smx_obs::registry()
            .histogram("store.score_rows_ns")
            .observe_ns(span.elapsed_ns());
        out
    }

    /// The body of [`score_rows`](Self::score_rows) with no tracing
    /// wrapper — the uninstrumented sweep path. The `trace_overhead`
    /// bench group measures this as the baseline the
    /// instrumented-but-disabled `score_rows` is held to (≤5% apart);
    /// everyone else should call `score_rows`.
    pub fn score_rows_uninstrumented(&self, queries: &[&str]) -> Vec<Arc<Vec<f64>>> {
        self.score_rows_core(queries).0
    }

    /// Shared body of the `score_rows` entry points: serve hits under
    /// the row cache's read lock, sweep the rest. Returns the rows plus
    /// this call's exact work stats.
    fn score_rows_core(&self, queries: &[&str]) -> (Vec<Arc<Vec<f64>>>, SweepStats) {
        let n = self.profiles.len();
        let mut out: Vec<Option<Arc<Vec<f64>>>> = vec![None; queries.len()];
        let mut pending: Vec<PendingRow<'_>> = Vec::new();
        let mut pending_of: HashMap<&str, usize> = HashMap::new();
        for (i, &q) in queries.iter().enumerate() {
            if let Some(&pi) = pending_of.get(q) {
                pending[pi].slots.push(i);
                continue;
            }
            let cache = self.rows.read();
            match cache.get(q) {
                Some(entry) if entry.row.len() == n => {
                    entry.last_used.store(self.tick(), Relaxed);
                    self.counters.row_lookups.fetch_add(1, Relaxed);
                    self.counters.row_hits.fetch_add(1, Relaxed);
                    out[i] = Some(Arc::clone(&entry.row));
                }
                stale => {
                    let prefix = stale.map(|entry| Arc::clone(&entry.row));
                    pending_of.insert(q, pending.len());
                    pending.push(PendingRow {
                        query: q,
                        prefix,
                        slots: vec![i],
                    });
                }
            }
        }
        let stats = if pending.is_empty() {
            SweepStats::default()
        } else {
            self.fill_pending(&mut out, &mut pending, n)
        };
        (
            out.into_iter()
                .map(|row| row.expect("every slot filled"))
                .collect(),
            stats,
        )
    }

    /// The distance row of each query restricted to the columns in
    /// `cols` — the candidate tier's entry point: score only the labels
    /// the pruned candidate schemas actually reference.
    ///
    /// `result[i][c]` equals `score_row(queries[i])[c]` **bitwise** for
    /// every `c` in `cols` (per-pair values are position-independent,
    /// so a per-column [`RowKernel::distance`] call equals the same
    /// position of a full sweep); positions outside `cols` are
    /// unspecified (NaN holes) and may be narrower than the label list.
    ///
    /// A full cached row answers any subset for free. Otherwise the
    /// query's coverage-masked partial row serves the columns it
    /// already covers and only the rest are computed — so repeated
    /// candidate queries converge to zero kernel work just like full
    /// rows do. Partial rows live in their own map: they are never
    /// promoted into the full-row cache, never spilled, and the
    /// full-row path never consults them, keeping every existing
    /// full-row counter invariant intact. Subset traffic moves only
    /// `pair_evals`, `subset_lookups`, `candidate_hits`,
    /// `candidate_pruned`, and `partial_row_fills`.
    pub fn score_rows_subset(&self, queries: &[&str], cols: &[usize]) -> Vec<Arc<Vec<f64>>> {
        if !smx_obs::enabled() {
            return self.score_rows_subset_core(queries, cols).0;
        }
        let mut span = smx_obs::span("store.score_rows_subset");
        let (out, stats) = self.score_rows_subset_core(queries, cols);
        // Exact, call-local accounting — see `score_rows` on why attrs
        // come from the call's own stats, not counter deltas.
        span.attr("queries", queries.len());
        span.attr("cols", cols.len());
        span.attr("candidate_hits", stats.candidate_hits);
        span.attr("pair_evals", stats.pair_evals);
        smx_obs::registry()
            .histogram("store.score_rows_subset_ns")
            .observe_ns(span.elapsed_ns());
        out
    }

    fn score_rows_subset_core(
        &self,
        queries: &[&str],
        cols: &[usize],
    ) -> (Vec<Arc<Vec<f64>>>, SubsetStats) {
        let n = self.profiles.len();
        debug_assert!(cols.iter().all(|&c| c < n), "columns must be in range");
        self.counters
            .subset_lookups
            .fetch_add(queries.len() as u64, Relaxed);
        let mut stats = SubsetStats::default();
        let mut out: Vec<Option<Arc<Vec<f64>>>> = vec![None; queries.len()];
        let mut pending: Vec<(&str, Vec<usize>)> = Vec::new();
        let mut pending_of: HashMap<&str, usize> = HashMap::new();
        for (i, &q) in queries.iter().enumerate() {
            if let Some(&pi) = pending_of.get(q) {
                pending[pi].1.push(i);
                continue;
            }
            let cache = self.rows.read();
            match cache.get(q) {
                Some(entry) if entry.row.len() == n => {
                    // A full row serves any subset; refresh recency
                    // so subset traffic keeps hot rows hot.
                    entry.last_used.store(self.tick(), Relaxed);
                    self.counters
                        .candidate_hits
                        .fetch_add(cols.len() as u64, Relaxed);
                    stats.candidate_hits += cols.len() as u64;
                    out[i] = Some(Arc::clone(&entry.row));
                }
                _ => {
                    pending_of.insert(q, pending.len());
                    pending.push((q, vec![i]));
                }
            }
        }
        for (q, slots) in pending {
            // Snapshot what the partial row already covers, compute the
            // missing columns outside any lock (concurrent fills compute
            // identical values, so last-write-wins merging is safe),
            // then merge under the write lock.
            let (prior, covered): (Option<Arc<Vec<f64>>>, Vec<bool>) = {
                let partials = self.partial_rows.read();
                match partials.get(q) {
                    Some(p) => {
                        p.last_used.store(self.tick(), Relaxed);
                        (
                            Some(Arc::clone(&p.row)),
                            cols.iter()
                                .map(|&c| c < p.row.len() && bit_get(&p.coverage, c))
                                .collect(),
                        )
                    }
                    None => (None, vec![false; cols.len()]),
                }
            };
            let missing = covered.iter().filter(|&&hit| !hit).count();
            self.counters
                .candidate_hits
                .fetch_add((cols.len() - missing) as u64, Relaxed);
            stats.candidate_hits += (cols.len() - missing) as u64;
            self.counters
                .candidate_pruned
                .fetch_add((n - cols.len()) as u64, Relaxed);
            if missing == 0 {
                // `cols` may itself be empty (a fully pruned problem
                // still fills its zero-column matrix): any row serves
                // an empty subset, including one that was never filled.
                let row = prior.unwrap_or_else(|| Arc::new(Vec::new()));
                for &slot in &slots {
                    out[slot] = Some(Arc::clone(&row));
                }
                continue;
            }
            // Covered columns are merged back too, not just computed
            // ones: an eviction or `clear_rows` between the snapshot and
            // the merge may have dropped the partial row they came from.
            let kernel = RowKernel::new(q);
            let values: Vec<f64> = cols
                .iter()
                .zip(&covered)
                .map(|(&c, &hit)| match &prior {
                    Some(prior) if hit => prior[c],
                    _ => kernel.distance(&self.profiles[c]),
                })
                .collect();
            self.counters.pair_evals.fetch_add(missing as u64, Relaxed);
            stats.pair_evals += missing as u64;
            self.counters.partial_row_fills.fetch_add(1, Relaxed);
            let row = {
                let mut partials = self.partial_rows.write();
                let entry = partials.entry(q.to_owned()).or_insert_with(|| PartialRow {
                    row: Arc::new(Vec::new()),
                    coverage: Vec::new(),
                    last_used: AtomicU64::new(0),
                });
                entry.last_used.store(self.tick(), Relaxed);
                let vec = Arc::make_mut(&mut entry.row);
                if vec.len() < n {
                    vec.resize(n, f64::NAN);
                }
                let words = n.div_ceil(64);
                if entry.coverage.len() < words {
                    entry.coverage.resize(words, 0);
                }
                for (&c, &v) in cols.iter().zip(&values) {
                    vec[c] = v;
                    bit_set(&mut entry.coverage, c);
                }
                Arc::clone(&entry.row)
            };
            for &slot in &slots {
                out[slot] = Some(Arc::clone(&row));
            }
        }
        if stats.pair_evals > 0 {
            self.evict_partials_over_cap();
        }
        (
            out.into_iter()
                .map(|row| row.expect("every slot filled"))
                .collect(),
            stats,
        )
    }

    /// Sweep all pending rows and install each into the row cache
    /// (under its write lock), updating counters and then evicting past
    /// the LRU bound. Rows absent from memory are first offered to the
    /// eviction sink: a spilled row faults back in as a (possibly
    /// complete) prefix, so only the tail the store grew since the
    /// spill — often nothing — is recomputed.
    /// All sink I/O and evicted-row spilling happens outside the cache
    /// lock. Returns this call's exact work stats.
    fn fill_pending(
        &self,
        out: &mut [Option<Arc<Vec<f64>>>],
        pending: &mut [PendingRow<'_>],
        n: usize,
    ) -> SweepStats {
        let sink = self.sink.read().clone();
        let mut recovered = vec![false; pending.len()];
        if let Some(sink) = &sink {
            for (p, rec) in pending.iter_mut().zip(&mut recovered) {
                if p.prefix.is_none() {
                    // Trust a recovered row only if it is a plausible
                    // prefix (rows longer than the label list cannot
                    // come from this store's history) *and* its
                    // fingerprint proves it was computed against our
                    // label prefix — not a diverged clone's.
                    if let Some((row, fingerprint)) = sink.recover(p.query) {
                        if row.len() <= n && fingerprint == self.prefix_hashes[row.len()] {
                            p.prefix = Some(Arc::new(row));
                            *rec = true;
                        }
                    }
                }
            }
        }
        // Fully recovered/hot-prefix rows need no kernel at all — don't
        // pay the query-profile build for a zero-length tail.
        let kernels: Vec<(Option<RowKernel>, usize)> = pending
            .iter()
            .map(|p| {
                let start = p.prefix.as_ref().map_or(0, |prefix| prefix.len());
                ((start < n).then(|| RowKernel::new(p.query)), start)
            })
            .collect();
        let tails = self.sweep(&kernels, n);
        let computed: u64 = kernels.iter().map(|&(_, start)| (n - start) as u64).sum();
        self.counters.pair_evals.fetch_add(computed, Relaxed);
        for ((p, rec), tail) in pending.iter().zip(&recovered).zip(tails) {
            let row = match &p.prefix {
                // A complete prefix (recovered or cached) is reused
                // as-is — no copy, no appended tail.
                Some(prefix) if prefix.len() == n => Arc::clone(prefix),
                prefix => {
                    let mut row = Vec::with_capacity(n);
                    if let Some(prefix) = prefix {
                        row.extend_from_slice(prefix);
                    }
                    row.extend(tail);
                    Arc::new(row)
                }
            };
            for &slot in &p.slots {
                out[slot] = Some(Arc::clone(&row));
            }
            let mut cache = self.rows.write();
            // One miss per row not served from memory; batch-internal
            // duplicates were served from the in-flight row and count
            // as hits. Counted under the write lock so the
            // hit/miss/lookup invariant can't be seen split.
            self.counters
                .row_lookups
                .fetch_add(p.slots.len() as u64, Relaxed);
            self.counters.row_misses.fetch_add(1, Relaxed);
            self.counters
                .row_hits
                .fetch_add(p.slots.len() as u64 - 1, Relaxed);
            if *rec {
                self.counters.row_spill_recoveries.fetch_add(1, Relaxed);
                if smx_obs::enabled() {
                    smx_obs::registry().counter("store.spill_recoveries").inc();
                }
            }
            cache.insert(
                p.query.to_owned(),
                CachedRow {
                    row,
                    last_used: AtomicU64::new(self.tick()),
                },
            );
        }
        let victims = self.evict_rows_over_cap();
        self.spill_victims(victims);
        SweepStats {
            rows_swept: pending.len() as u64,
            pair_evals: computed,
        }
    }

    /// Compute each kernel's missing row tail (`start..n`) by one tiled
    /// pass over the stored profiles: the column axis is cut into
    /// contiguous chunks, and within a chunk every pending kernel
    /// streams the same cache-resident profiles through its tight pair
    /// loop — profile loads are amortised across the whole batch instead
    /// of repeated per query. Chunks go to scoped workers when the
    /// pending work is large enough to pay for them.
    fn sweep(&self, kernels: &[(Option<RowKernel>, usize)], n: usize) -> Vec<Vec<f64>> {
        let threads = self.sweep_threads(kernels, n);
        if threads <= 1 {
            return Self::sweep_chunk(kernels, &self.profiles, 0);
        }
        // Tile only the columns some kernel actually covers — when every
        // pending row is a stale-prefix extension (tails starting deep
        // into the label list), tiling from 0 would hand most workers
        // empty ranges.
        let base = kernels.iter().map(|&(_, start)| start).min().unwrap_or(0);
        // Work-stealing: cut the column axis into more tiles than
        // workers and let each worker claim the next tile off a shared
        // cursor — a worker that finishes early (cheap columns, a cold
        // cache elsewhere) pulls more work instead of idling behind a
        // static partition. Tile boundaries are deterministic, so the
        // stitched result is identical no matter which worker computed
        // which tile.
        let tiles = (threads * TILES_PER_WORKER).min(n - base).max(1);
        let tile_size = (n - base).div_ceil(tiles);
        let cursor = AtomicUsize::new(0);
        let mut tile_parts: Vec<Option<Vec<Vec<f64>>>> = (0..tiles).map(|_| None).collect();
        std::thread::scope(|scope| {
            let cursor = &cursor;
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(move || {
                        let mut claimed = Vec::new();
                        loop {
                            let t = cursor.fetch_add(1, Relaxed);
                            if t >= tiles {
                                break;
                            }
                            let lo = base + t * tile_size;
                            let hi = (lo + tile_size).min(n);
                            if lo >= hi {
                                continue;
                            }
                            claimed
                                .push((t, Self::sweep_chunk(kernels, &self.profiles[lo..hi], lo)));
                        }
                        claimed
                    })
                })
                .collect();
            for handle in handles {
                for (t, part) in handle.join().expect("sweep worker panicked") {
                    tile_parts[t] = Some(part);
                }
            }
        });
        // Stitch the tiles back in column order; per-pair values are
        // independent, so this equals the single-threaded pass bitwise.
        let mut rows: Vec<Vec<f64>> = kernels
            .iter()
            .map(|&(_, start)| Vec::with_capacity(n - start))
            .collect();
        for part in tile_parts.into_iter().flatten() {
            for (row, chunk_row) in rows.iter_mut().zip(part) {
                row.extend(chunk_row);
            }
        }
        rows
    }

    /// One tile of the sweep: every kernel's distances over the columns
    /// `offset..offset + profiles.len()` (clipped to each kernel's own
    /// `start`), computed by the kernel's streaming row loop.
    fn sweep_chunk(
        kernels: &[(Option<RowKernel>, usize)],
        profiles: &[LabelProfile],
        offset: usize,
    ) -> Vec<Vec<f64>> {
        kernels
            .iter()
            .map(|(kernel, start)| {
                let skip = start.saturating_sub(offset);
                let mut row = Vec::new();
                if let Some(kernel) = kernel {
                    if skip < profiles.len() {
                        kernel.distances_into(&profiles[skip..], &mut row);
                    }
                }
                row
            })
            .collect()
    }

    /// Worker count for a pending sweep: 1 unless the pair count clears
    /// [`PARALLEL_SWEEP_MIN_PAIRS`], else the configured/auto thread
    /// count — capped so every worker keeps at least that many pairs
    /// (and by the column count).
    fn sweep_threads(&self, kernels: &[(Option<RowKernel>, usize)], n: usize) -> usize {
        let work: usize = kernels.iter().map(|&(_, start)| n - start).sum();
        if work < PARALLEL_SWEEP_MIN_PAIRS {
            return 1;
        }
        let configured = if self.batch_threads == 0 {
            std::thread::available_parallelism().map_or(1, |t| t.get())
        } else {
            self.batch_threads
        };
        configured
            .max(1)
            .min(work / PARALLEL_SWEEP_MIN_PAIRS)
            .max(1)
            .min(n.max(1))
    }

    /// Next recency-clock value.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Relaxed) + 1
    }

    /// Evict least-recently-used rows until the cache respects the
    /// configured bound, returning `(query, row)` victims so the caller
    /// can hand them to the eviction sink *after* the lock drops.
    /// Unbounded stores return immediately without taking the lock.
    #[must_use = "victims must be offered to the eviction sink outside the lock"]
    fn evict_rows_over_cap(&self) -> Vec<(String, Arc<Vec<f64>>)> {
        let cap = self.max_cached_rows.load(Relaxed);
        if cap == UNBOUNDED {
            return Vec::new();
        }
        let mut rows = self.rows.write();
        let victims: Vec<_> = evict_lru(&mut rows, cap, |e: &CachedRow| e.last_used.load(Relaxed))
            .into_iter()
            .map(|(key, entry)| (key, entry.row))
            .collect();
        self.counters
            .row_evictions
            .fetch_add(victims.len() as u64, Relaxed);
        if smx_obs::enabled() && !victims.is_empty() {
            smx_obs::registry()
                .counter("store.row_evictions")
                .add(victims.len() as u64);
        }
        victims
    }

    /// Evict least-recently-used partial rows past the bound, under the
    /// same recency rule as full rows. Partial rows are never spilled: a
    /// dropped one is recomputed column by column on next use.
    fn evict_partials_over_cap(&self) {
        let cap = self.max_cached_rows.load(Relaxed);
        if cap == UNBOUNDED {
            return;
        }
        let _ = evict_lru(&mut self.partial_rows.write(), cap, |e: &PartialRow| {
            e.last_used.load(Relaxed)
        });
    }

    /// Offer evicted rows to the installed sink (if any). Runs with no
    /// cache lock held — sink I/O never blocks row lookups.
    fn spill_victims(&self, victims: Vec<(String, Arc<Vec<f64>>)>) {
        if victims.is_empty() {
            return;
        }
        let Some(sink) = self.sink.read().clone() else {
            return;
        };
        let mut spilled = 0u64;
        for (query, row) in &victims {
            if sink.on_evict(query, row.as_slice(), self.prefix_hashes[row.len()]) {
                spilled += 1;
            }
        }
        let failed = victims.len() as u64 - spilled;
        self.counters.row_spills.fetch_add(spilled, Relaxed);
        self.counters.row_spill_failures.fetch_add(failed, Relaxed);
        if smx_obs::enabled() {
            let registry = smx_obs::registry();
            registry.counter("store.row_spills").add(spilled);
            registry.counter("store.row_spill_failures").add(failed);
        }
    }

    /// Number of query labels with a cached score row.
    pub fn cached_rows(&self) -> usize {
        self.rows.read().len()
    }

    /// Number of query labels with a coverage-masked partial row.
    pub fn cached_partial_rows(&self) -> usize {
        self.partial_rows.read().len()
    }

    /// Number of memoised candidate-tier bound rows
    /// ([`bound_row`](Self::bound_row)).
    pub fn cached_bound_rows(&self) -> usize {
        self.bound_memo.len()
    }

    /// Whether `query` currently has a cached (possibly stale-prefix)
    /// row. Read-only: does not refresh LRU recency or count a lookup.
    pub fn has_cached_row(&self, query: &str) -> bool {
        self.rows.read().contains_key(query)
    }

    /// Drop every cached score row, every partial row, *and* every
    /// memoised bound row (profiles and indexes stay). Benches use this
    /// to measure a genuinely cold request: score rows and candidate
    /// bounds are both recomputed on next use. Affects every clone
    /// sharing the caches.
    pub fn clear_rows(&self) {
        self.rows.write().clear();
        self.partial_rows.write().clear();
        self.bound_memo.clear();
    }

    /// A consistent snapshot of every work counter.
    ///
    /// Read under the exclusive row lock, and all row-path counter
    /// updates happen while that lock is held (shared for hits,
    /// exclusive for sweeps) — so the snapshot cannot observe a lookup
    /// whose hit/miss classification is still in flight, and
    /// `row_hits + row_misses == row_lookups` holds even while parallel
    /// matchers are filling rows. Tests should assert on this snapshot
    /// rather than on individual counter loads.
    pub fn counters(&self) -> StoreCounters {
        let _rows = self.rows.write();
        self.counters.snapshot()
    }

    /// One consolidated health/degradation view: the installed sink's
    /// self-reported [`SinkHealth`], the salvage events recorded at
    /// load time, the in-memory row count, and the work counters.
    /// Everything in it is observational — a degraded report means lost
    /// amortisation, never wrong answers.
    pub fn health(&self) -> HealthReport {
        HealthReport {
            sink: self.sink.read().as_ref().and_then(|s| s.health()),
            salvage_events: self.salvage_events.load(Relaxed),
            cached_rows: self.cached_rows(),
            counters: self.counters(),
        }
    }

    /// Export one merged observability report: a snapshot of the global
    /// `smx-obs` metrics registry with this store's own instruments
    /// grafted in — monotonic counts ([`StoreCounters`], salvage
    /// events) as counters, occupancy (cached rows of each kind, live
    /// schemas, orphaned labels) and the installed sink's
    /// [`SinkHealth`] as gauges. Store counts whose name a gated
    /// registry counter already uses carry a `_total` suffix. This is
    /// the `MetricsSnapshot` examples and `smx-bench` render — one
    /// report covering both the tracing-side instruments and the
    /// store's own counters.
    pub fn publish_metrics(&self) -> smx_obs::MetricsSnapshot {
        let health = self.health();
        let mut snapshot = smx_obs::registry().snapshot();
        let c = health.counters;
        for (name, value) in [
            ("store.profile_builds", c.profile_builds),
            ("store.pair_evals", c.pair_evals),
            ("store.row_lookups", c.row_lookups),
            ("store.row_hits", c.row_hits),
            ("store.row_misses", c.row_misses),
            ("store.row_evictions_total", c.row_evictions),
            ("store.row_spills_total", c.row_spills),
            ("store.row_spill_recoveries_total", c.row_spill_recoveries),
            ("store.row_spill_failures_total", c.row_spill_failures),
            ("store.subset_lookups", c.subset_lookups),
            ("store.candidate_hits", c.candidate_hits),
            ("store.candidate_pruned", c.candidate_pruned),
            ("store.partial_row_fills", c.partial_row_fills),
            ("store.bound_row_hits", c.bound_row_hits),
            ("store.bound_row_builds", c.bound_row_builds),
            ("store.salvage_events", health.salvage_events),
            ("store.schema_removes_total", c.schema_removes),
            ("store.schema_replaces_total", c.schema_replaces),
        ] {
            snapshot.set_counter(name, value);
        }
        snapshot.set_gauge("store.cached_rows", health.cached_rows as f64);
        snapshot.set_gauge(
            "store.cached_partial_rows",
            self.cached_partial_rows() as f64,
        );
        snapshot.set_gauge("store.cached_bound_rows", self.cached_bound_rows() as f64);
        snapshot.set_gauge("store.live_schemas", self.live_schema_count() as f64);
        snapshot.set_gauge("store.orphaned_labels", self.orphaned_labels() as f64);
        if let Some(sink) = health.sink {
            snapshot.set_gauge("store.sink.poisoned", u64::from(sink.poisoned) as f64);
            snapshot.set_gauge("store.sink.degraded", u64::from(sink.degraded) as f64);
            snapshot.set_gauge("store.sink.write_errors", sink.write_errors as f64);
            snapshot.set_gauge("store.sink.reopens", sink.reopens as f64);
            snapshot.set_gauge("store.sink.spilled_bytes", sink.spilled_bytes as f64);
            snapshot.set_gauge("store.sink.live_records", sink.live_records as f64);
        }
        snapshot
    }

    /// Record `n` snapshot-salvage events against this store.
    /// `smx-persist` calls this after a `Salvage` load rebuilt or
    /// dropped damaged sections, so [`health`](Self::health) reflects
    /// that this store's warm state was degraded at load time.
    pub fn record_salvage_events(&self, n: u64) {
        self.salvage_events.fetch_add(n, Relaxed);
    }

    /// Salvage events recorded against this store (see
    /// [`record_salvage_events`](Self::record_salvage_events)).
    pub fn salvage_events(&self) -> u64 {
        self.salvage_events.load(Relaxed)
    }

    /// Snapshot the store's hot state — interned labels, per-schema
    /// label columns, token index, cached score rows in LRU order, and the
    /// cache configuration — as plain data for `smx-persist` to encode.
    ///
    /// Taken under the exclusive row lock, so the row image is
    /// internally consistent even while concurrent matchers fill rows.
    /// Work counters are *not* part of the image: they describe the
    /// process, not the repository.
    pub fn export_state(&self) -> StoreState {
        // Snapshot (stamp, query, Arc) under the exclusive lock — cheap —
        // then sort and materialise the row copies after releasing it,
        // so a large export doesn't stall concurrent matchers.
        let mut rows: Vec<(u64, String, Arc<Vec<f64>>)> = self
            .rows
            .write()
            .iter()
            .map(|(query, entry)| {
                (
                    entry.last_used.load(Relaxed),
                    query.clone(),
                    Arc::clone(&entry.row),
                )
            })
            .collect();
        // Oldest first (ties broken by query text so exports are
        // deterministic), so import can re-stamp in order.
        rows.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        StoreState {
            labels: (0..self.interner.len())
                .map(|id| self.interner.resolve(LabelId(id as u32)).to_owned())
                .collect(),
            schema_labels: (0..self.columns.slots() as u32)
                .map(|sid| {
                    self.columns
                        .labels(SchemaId(sid))
                        .iter()
                        .map(|id| id.0)
                        .collect()
                })
                .collect(),
            postings: self
                .index
                .postings()
                .map(|(token, elements)| (token.to_owned(), elements.to_vec()))
                .collect(),
            rows: rows
                .into_iter()
                .map(|(_, query, row)| (query, (*row).clone()))
                .collect(),
            max_cached_rows: self.config().max_cached_rows,
            batch_threads: self.batch_threads,
            filters: Some(self.filters.export()),
            tombstones: Some(
                self.removed
                    .iter()
                    .zip(&self.generations)
                    .map(|(&removed, &generation)| (removed, generation))
                    .collect(),
            ),
        }
    }

    /// Rebuild a store from an exported (or snapshot-decoded) image of
    /// the repository whose schemas are `schemas`.
    ///
    /// Labels are re-interned in id order and their [`LabelProfile`]s
    /// rebuilt (a pure function of the label text, so row values stay
    /// bitwise identical); cached rows are re-stamped in the image's LRU
    /// order. If the image holds more rows than `max_cached_rows`
    /// allows, only the most recently used rows are kept. Node shapes
    /// are never part of the image: the column arena rebuilds them from
    /// `schemas`. Counters start fresh except `profile_builds`, which
    /// counts the rebuilds this import performed.
    ///
    /// The image must be internally consistent and describe `schemas`
    /// (distinct labels, one column map per schema with one id in range
    /// per node, row lengths no longer than the label list) —
    /// `smx-persist` validates decoded snapshots before calling this.
    ///
    /// # Panics
    ///
    /// If the image's column-map count or any column map's length
    /// differs from `schemas`.
    pub fn import_state(state: StoreState, schemas: &[Schema]) -> LabelStore {
        let mut interner = LabelInterner::new();
        let mut profiles = Vec::with_capacity(state.labels.len());
        let mut prefix_hashes = Vec::with_capacity(state.labels.len() + 1);
        prefix_hashes.push(FNV_OFFSET);
        for label in &state.labels {
            let id = interner.intern(label);
            debug_assert_eq!(
                id.index(),
                profiles.len(),
                "state labels must be distinct and in id order"
            );
            profiles.push(LabelProfile::new(label));
            let last = *prefix_hashes.last().expect("offset basis always present");
            prefix_hashes.push(fingerprint_push(last, label));
        }
        assert_eq!(
            state.schema_labels.len(),
            schemas.len(),
            "the image must hold one column map per schema"
        );
        // The column arena and the label→schema postings (pure derived
        // state: the inverse of the imported column maps), slot by slot.
        let mut columns = ColumnArena::new();
        columns.reserve(schemas.len(), schemas.iter().map(Schema::len).sum());
        let mut label_schemas: Vec<Vec<SchemaId>> = vec![Vec::new(); profiles.len()];
        for (i, (ids, schema)) in state.schema_labels.iter().zip(schemas).enumerate() {
            let sid = SchemaId(i as u32);
            columns.push(ids.iter().map(|&id| LabelId(id)), schema);
            for &lid in columns.labels(sid) {
                let postings = &mut label_schemas[lid.index()];
                if postings.last() != Some(&sid) {
                    postings.push(sid);
                }
            }
        }
        // Persisted filter lanes skip the per-label re-derivation; an
        // absent/short/invalid image (older snapshot, salvaged FILTERS
        // section) falls back to rebuilding from the label text, which
        // yields identical lanes by construction.
        let filters = state
            .filters
            .and_then(FilterIndex::try_from_data)
            .filter(|f| f.len() == profiles.len())
            .unwrap_or_else(|| FilterIndex::rebuild(&profiles));
        // Tombstone state: images that predate mutability described a
        // fully live repository, so absent (or short) tombstone lists
        // default to live-at-generation-0 per slot.
        let slots = columns.slots();
        let mut removed = vec![false; slots];
        let mut generations = vec![0u64; slots];
        if let Some(tombstones) = state.tombstones {
            for (i, (r, g)) in tombstones.into_iter().take(slots).enumerate() {
                removed[i] = r;
                generations[i] = g;
            }
        }
        let cap = state.max_cached_rows.unwrap_or(UNBOUNDED);
        let keep_from = state.rows.len().saturating_sub(cap);
        let mut rows = HashMap::new();
        let mut clock = 0u64;
        for (query, row) in state.rows.into_iter().skip(keep_from) {
            clock += 1;
            rows.insert(
                query,
                CachedRow {
                    row: Arc::new(row),
                    last_used: AtomicU64::new(clock),
                },
            );
        }
        LabelStore {
            counters: Counters::new(StoreCounters {
                profile_builds: profiles.len() as u64,
                ..StoreCounters::default()
            }),
            interner,
            profiles,
            prefix_hashes,
            columns,
            label_schemas,
            index: TokenIndex::from_postings(state.postings),
            filters,
            removed,
            generations,
            rows: RwLock::new(rows),
            partial_rows: RwLock::default(),
            bound_memo: Arc::default(),
            clock: AtomicU64::new(clock),
            max_cached_rows: AtomicUsize::new(cap),
            batch_threads: state.batch_threads,
            sink: RwLock::new(None),
            salvage_events: AtomicU64::new(0),
        }
    }

    /// Total label profiles ever built — the label-level work counter.
    pub fn profile_builds(&self) -> u64 {
        self.counters.profile_builds.load(Relaxed)
    }

    /// Total (query, label) kernel evaluations ever run — the pair-level
    /// work counter the store-reuse tests assert on.
    pub fn pair_evals(&self) -> u64 {
        self.counters.pair_evals.load(Relaxed)
    }
}

impl Default for LabelStore {
    fn default() -> Self {
        LabelStore::new()
    }
}

impl Clone for LabelStore {
    fn clone(&self) -> Self {
        // Hold the exclusive row lock while snapshotting rows *and*
        // counters: hit-path counter updates happen under the shared
        // lock, so a read-lock clone could freeze `row_lookups` between
        // a peer's paired increments and break the counters invariant.
        let (rows, counters) = {
            let rows = self.rows.write();
            ((*rows).clone(), Counters::new(self.counters.snapshot()))
        };
        LabelStore {
            interner: self.interner.clone(),
            profiles: self.profiles.clone(),
            prefix_hashes: self.prefix_hashes.clone(),
            columns: self.columns.clone(),
            label_schemas: self.label_schemas.clone(),
            index: self.index.clone(),
            filters: self.filters.clone(),
            removed: self.removed.clone(),
            generations: self.generations.clone(),
            rows: RwLock::new(rows),
            partial_rows: RwLock::new(self.partial_rows.read().clone()),
            bound_memo: Arc::clone(&self.bound_memo),
            clock: AtomicU64::new(self.clock.load(Relaxed)),
            max_cached_rows: AtomicUsize::new(self.max_cached_rows.load(Relaxed)),
            batch_threads: self.batch_threads,
            sink: RwLock::new(self.sink.read().clone()),
            counters,
            salvage_events: AtomicU64::new(self.salvage_events.load(Relaxed)),
        }
    }
}

impl std::fmt::Debug for LabelStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LabelStore")
            .field("labels", &self.profiles.len())
            .field("schemas", &self.columns.slots())
            .field("live_schemas", &self.live_schema_count())
            .field("cached_rows", &self.cached_rows())
            .field("partial_rows", &self.cached_partial_rows())
            .field("bound_rows", &self.cached_bound_rows())
            .field("config", &self.config())
            .field("kernel_variant", &KernelVariant::active())
            .field("counters", &self.counters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::Repository;
    use smx_text::NameSimilarity;
    use smx_xml::{PrimitiveType, SchemaBuilder};

    fn repo() -> Repository {
        let mut r = Repository::new();
        r.add(
            SchemaBuilder::new("bib")
                .root("bib")
                .child("book", |b| b.leaf("title", PrimitiveType::String))
                .build(),
        );
        r.add(
            SchemaBuilder::new("shop")
                .root("shop")
                .leaf("title", PrimitiveType::String) // duplicate label
                .build(),
        );
        r
    }

    #[test]
    fn ingest_builds_profiles_once_per_distinct_label() {
        let r = repo();
        let store = r.store();
        // bib, book, title, shop — "title" recurs but is built once.
        assert_eq!(store.len(), 4);
        assert_eq!(store.profile_builds(), 4);
        assert_eq!(store.schema_labels(SchemaId(0)).len(), 3);
        assert_eq!(store.schema_labels(SchemaId(1)).len(), 2);
        // Column map resolves to node names.
        let labels = store.schema_labels(SchemaId(1));
        assert_eq!(store.interner().resolve(labels[1]), "title");
        assert_eq!(store.profile(labels[1]).raw(), "title");
    }

    #[test]
    fn score_rows_match_scalar_distance_bitwise() {
        let r = repo();
        let store = r.store();
        let scalar = NameSimilarity::default();
        for query in ["title", "bookTitle", "", "shop"] {
            let row = store.score_row(query);
            assert_eq!(row.len(), store.len());
            for id in 0..store.len() {
                let label = store.interner().resolve(LabelId(id as u32));
                assert_eq!(
                    row[id].to_bits(),
                    scalar.distance(query, label).to_bits(),
                    "{query:?} vs {label:?}"
                );
            }
        }
    }

    #[test]
    fn repeated_queries_reuse_cached_rows() {
        let r = repo();
        let store = r.store();
        let first = store.score_row("orderTitle");
        let evals = store.pair_evals();
        assert_eq!(evals, store.len() as u64);
        let second = store.score_row("orderTitle");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(store.pair_evals(), evals, "repeat query re-evaluated pairs");
        assert_eq!(store.cached_rows(), 1);
        let c = store.counters();
        assert_eq!(c.row_hits, 1);
        assert_eq!(c.row_misses, 1);
        assert_eq!(c.row_lookups, 2);
        assert_eq!(c.row_evictions, 0);
    }

    #[test]
    fn rows_extend_incrementally_after_add() {
        let mut r = repo();
        let stale = r.store().score_row("title");
        let evals_before = r.store().pair_evals();
        r.add(
            SchemaBuilder::new("extra")
                .root("warehouse")
                .leaf("isbn", PrimitiveType::String)
                .build(),
        );
        let store = r.store();
        assert_eq!(store.len(), 6);
        let extended = store.score_row("title");
        // Only the two new labels were evaluated...
        assert_eq!(store.pair_evals(), evals_before + 2);
        // ...and the extended row equals a from-scratch sweep.
        store.clear_rows();
        let fresh = store.score_row("title");
        assert_eq!(extended.len(), fresh.len());
        for (a, b) in extended.iter().zip(fresh.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(&extended[..stale.len()], &stale[..]);
    }

    #[test]
    fn clone_detaches_counters_but_shares_values() {
        let r = repo();
        r.store().score_row("title");
        let cloned = r.clone();
        // The clone shares the Arc'd store, so the cached row survives.
        assert_eq!(cloned.store().cached_rows(), 1);
        // Mutating the clone (add) detaches it via make_mut; the original
        // keeps its own counters.
        let mut cloned = cloned;
        cloned.add(SchemaBuilder::new("x").root("y").build());
        assert_eq!(cloned.store().len(), r.store().len() + 1);
        assert_eq!(r.store().cached_rows(), 1);
    }

    #[test]
    fn batched_rows_equal_individual_rows_bitwise() {
        let batched = repo();
        let individual = repo();
        let queries = [
            "title",
            "orderNo",
            "title",
            "bookTitle",
            "",
            "shop",
            "orderNo",
        ];
        let rows = batched.store().score_rows(&queries);
        assert_eq!(rows.len(), queries.len());
        for (&q, row) in queries.iter().zip(&rows) {
            let alone = individual.store().score_row(q);
            assert_eq!(row.len(), alone.len(), "{q:?}");
            for (a, b) in row.iter().zip(alone.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{q:?}");
            }
        }
        // Duplicates in the batch share one sweep: 5 distinct queries.
        assert_eq!(
            batched.store().pair_evals(),
            5 * batched.store().len() as u64
        );
        let c = batched.store().counters();
        assert_eq!(c.row_misses, 5);
        assert_eq!(c.row_hits, 2, "duplicate batch entries count as hits");
        assert_eq!(c.row_lookups, 7);
        assert_eq!(c.row_hits + c.row_misses, c.row_lookups);
    }

    #[test]
    fn parallel_sweep_equals_sequential_sweep_bitwise() {
        // Enough labels and queries to clear PARALLEL_SWEEP_MIN_PAIRS.
        let build = |threads: usize| {
            let mut r = Repository::with_store_config(StoreConfig {
                max_cached_rows: None,
                batch_threads: threads,
                ..StoreConfig::default()
            });
            let mut b = SchemaBuilder::new("wide").root("container");
            for i in 0..300 {
                b = b.leaf(
                    format!("field_{i}_{}", "x".repeat(i % 17)),
                    PrimitiveType::String,
                );
            }
            r.add(b.build());
            r
        };
        let seq = build(1);
        let par = build(4);
        let queries: Vec<String> = (0..8).map(|i| format!("queryLabel{i}")).collect();
        let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
        assert!(refs.len() * seq.store().len() >= PARALLEL_SWEEP_MIN_PAIRS);
        let a = seq.store().score_rows(&refs);
        let b = par.store().score_rows(&refs);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.len(), rb.len());
            for (x, y) in ra.iter().zip(rb.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(seq.store().pair_evals(), par.store().pair_evals());
    }

    #[test]
    fn subset_rows_match_full_rows_bitwise_and_count_separately() {
        let r = repo();
        let store = r.store();
        let n = store.len();
        let cols = [0usize, 2];
        // Cold subset: only the requested columns are evaluated.
        let rows = store.score_rows_subset(&["orderTitle", "bookIsbn"], &cols);
        assert_eq!(store.pair_evals(), 2 * cols.len() as u64);
        let c = store.counters();
        assert_eq!(c.subset_lookups, 2, "one subset lookup per query slot");
        assert_eq!(c.partial_row_fills, 2);
        assert_eq!(c.candidate_hits, 0);
        assert_eq!(c.candidate_pruned, 2 * (n - cols.len()) as u64);
        // Full-row path untouched: no lookups, hits, or misses counted.
        assert_eq!(c.row_lookups, 0);
        assert_eq!(c.row_hits + c.row_misses, c.row_lookups);
        assert_eq!(store.cached_rows(), 0, "partials never enter the row cache");
        let scalar = NameSimilarity::default();
        for (q, row) in ["orderTitle", "bookIsbn"].iter().zip(&rows) {
            for &col in &cols {
                let label = store.interner().resolve(LabelId(col as u32));
                assert_eq!(
                    row[col].to_bits(),
                    scalar.distance(q, label).to_bits(),
                    "{q:?} vs {label:?}"
                );
            }
        }
        // Repeat subset: served from the partial row, zero kernel work.
        let evals = store.pair_evals();
        store.score_rows_subset(&["orderTitle"], &cols);
        assert_eq!(store.pair_evals(), evals);
        assert_eq!(store.counters().candidate_hits, cols.len() as u64);
        // Widening the subset computes only the new column.
        store.score_rows_subset(&["orderTitle"], &[0, 1, 2]);
        assert_eq!(store.pair_evals(), evals + 1);
        // The full row afterwards is still computed from scratch,
        // bitwise identical — partials never poison the full path.
        let full = store.score_row("orderTitle");
        assert_eq!(store.pair_evals(), evals + 1 + n as u64);
        for (id, d) in full.iter().enumerate() {
            let label = store.interner().resolve(LabelId(id as u32));
            assert_eq!(d.to_bits(), scalar.distance("orderTitle", label).to_bits());
        }
        // And once a full row exists, it serves any subset for free.
        let evals = store.pair_evals();
        let sub = store.score_rows_subset(&["orderTitle"], &[1, 3]);
        assert_eq!(store.pair_evals(), evals);
        assert!(Arc::ptr_eq(&sub[0], &full));
        // Subset lookups never count as row lookups: only the one
        // `score_row` above did.
        let c = store.counters();
        assert_eq!((c.subset_lookups, c.row_lookups), (5, 1));
    }

    #[test]
    fn subset_rows_extend_after_add_and_clear_with_clear_rows() {
        let mut r = repo();
        r.store().score_rows_subset(&["title"], &[0, 1]);
        r.add(
            SchemaBuilder::new("extra")
                .root("warehouse")
                .leaf("isbn", PrimitiveType::String)
                .build(),
        );
        let store = r.store();
        // Columns past the old width are simply uncovered: requesting
        // them computes exactly the missing ones.
        let evals = store.pair_evals();
        let row = store.score_rows_subset(&["title"], &[0, 1, 5]);
        assert_eq!(store.pair_evals(), evals + 1);
        let scalar = NameSimilarity::default();
        let label = store.interner().resolve(LabelId(5));
        assert_eq!(
            row[0][5].to_bits(),
            scalar.distance("title", label).to_bits()
        );
        store.clear_rows();
        let evals = store.pair_evals();
        store.score_rows_subset(&["title"], &[0]);
        assert_eq!(store.pair_evals(), evals + 1, "clear_rows drops partials");
    }

    #[test]
    fn filter_index_tracks_ingest_and_bounds_admissibly() {
        let mut r = repo();
        assert_eq!(r.store().filter_index().len(), r.store().len());
        r.add(
            SchemaBuilder::new("extra")
                .root("warehouse")
                .leaf("isbn", PrimitiveType::String)
                .build(),
        );
        let store = r.store();
        assert_eq!(store.filter_index().len(), store.len());
        let scalar = NameSimilarity::default();
        let mut out = Vec::new();
        for q in ["title", "warehouse", "bookIsbn", ""] {
            store.similarity_upper_bounds(&QueryFilter::new(q), &mut out);
            assert_eq!(out.len(), store.len());
            for (id, &bound) in out.iter().enumerate() {
                let label = store.interner().resolve(LabelId(id as u32));
                assert!(
                    bound >= scalar.similarity(q, label),
                    "bound {bound} below oracle for ({q:?}, {label:?})"
                );
            }
        }
        // A stored query's own label is bounded at exactly 1.0.
        store.similarity_upper_bounds(&QueryFilter::new("title"), &mut out);
        let title = store.interner().get("title").expect("interned");
        assert_eq!(out[title.index()], 1.0);
    }

    #[test]
    fn lru_bound_evicts_least_recently_used() {
        let r = repo();
        let store = r.store();
        store.set_max_cached_rows(Some(2));
        store.score_row("alpha");
        store.score_row("beta");
        // Touch alpha so beta becomes the oldest.
        store.score_row("alpha");
        store.score_row("gamma");
        assert_eq!(store.cached_rows(), 2);
        assert!(store.has_cached_row("alpha"));
        assert!(store.has_cached_row("gamma"));
        assert!(
            !store.has_cached_row("beta"),
            "LRU must evict the oldest row"
        );
        let c = store.counters();
        assert_eq!(c.row_evictions, 1);
        // Evicted rows recompute to bitwise-identical values.
        let scalar = NameSimilarity::default();
        let again = store.score_row("beta");
        for (id, d) in again.iter().enumerate() {
            let label = store.interner().resolve(LabelId(id as u32));
            assert_eq!(d.to_bits(), scalar.distance("beta", label).to_bits());
        }
    }

    #[test]
    fn tightening_the_bound_evicts_immediately() {
        let r = repo();
        let store = r.store();
        for q in ["a", "b", "c", "d"] {
            store.score_row(q);
        }
        assert_eq!(store.cached_rows(), 4);
        store.set_max_cached_rows(Some(1));
        assert_eq!(store.cached_rows(), 1);
        assert_eq!(store.counters().row_evictions, 3);
        assert!(store.has_cached_row("d"), "most recent row survives");
        // Removing the bound lets the cache grow again.
        store.set_max_cached_rows(None);
        store.score_row("e");
        store.score_row("f");
        assert_eq!(store.cached_rows(), 3);
        assert_eq!(store.config(), StoreConfig::default());
    }

    /// In-memory [`EvictionSink`] double: spilled rows land in a map.
    #[derive(Default)]
    struct MemorySink {
        spilled: parking_lot::Mutex<HashMap<String, (Vec<f64>, u64)>>,
    }

    impl EvictionSink for MemorySink {
        fn on_evict(&self, query: &str, row: &[f64], labels_fingerprint: u64) -> bool {
            self.spilled
                .lock()
                .insert(query.to_owned(), (row.to_vec(), labels_fingerprint));
            true
        }

        fn recover(&self, query: &str) -> Option<(Vec<f64>, u64)> {
            self.spilled.lock().get(query).cloned()
        }
    }

    #[test]
    fn evicted_rows_spill_and_fault_back_without_recompute() {
        let r = repo();
        let store = r.store();
        let sink = Arc::new(MemorySink::default());
        store.set_eviction_sink(Some(Arc::clone(&sink) as Arc<dyn EvictionSink>));
        assert!(store.has_eviction_sink());
        store.set_max_cached_rows(Some(1));
        let first = store.score_row("alpha");
        store.score_row("beta"); // evicts alpha → spilled
        assert_eq!(sink.spilled.lock().len(), 1);
        let evals = store.pair_evals();
        let again = store.score_row("alpha"); // faults back from the sink
        assert_eq!(
            store.pair_evals(),
            evals,
            "recovered row must not re-evaluate pairs"
        );
        assert_eq!(first.len(), again.len());
        for (a, b) in first.iter().zip(again.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let c = store.counters();
        assert_eq!(c.row_spills, 2, "alpha and then beta were spilled");
        assert_eq!(c.row_spill_recoveries, 1);
        assert_eq!(c.row_hits + c.row_misses, c.row_lookups);
    }

    #[test]
    fn spilled_prefix_extends_after_add() {
        let mut r = repo();
        r.store()
            .set_eviction_sink(Some(Arc::new(MemorySink::default())));
        r.store().set_max_cached_rows(Some(1));
        r.store().score_row("alpha");
        r.store().score_row("beta"); // alpha spilled at the old length
        r.add(
            SchemaBuilder::new("extra")
                .root("warehouse")
                .leaf("isbn", PrimitiveType::String)
                .build(),
        );
        let store = r.store();
        let evals = store.pair_evals();
        let row = store.score_row("alpha"); // prefix from sink + 2-column tail
        assert_eq!(
            store.pair_evals(),
            evals + 2,
            "only the new columns are swept"
        );
        assert_eq!(store.counters().row_spill_recoveries, 1);
        store.set_eviction_sink(None);
        store.clear_rows();
        let fresh = store.score_row("alpha");
        assert_eq!(row.len(), fresh.len());
        for (a, b) in row.iter().zip(fresh.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn diverged_clones_reject_each_others_spilled_rows() {
        // Two repository clones share the sink installed before they
        // diverge; after divergence their label lists differ, so a row
        // one lineage spilled must never be served by the other.
        let mut r1 = repo();
        r1.store()
            .set_eviction_sink(Some(Arc::new(MemorySink::default())));
        r1.store().set_max_cached_rows(Some(1));
        let mut r2 = r1.clone();
        r1.add(
            SchemaBuilder::new("a")
                .root("host")
                .leaf("lineageOne", PrimitiveType::String)
                .build(),
        );
        r2.add(
            SchemaBuilder::new("b")
                .root("host")
                .leaf("lineageTwo", PrimitiveType::String)
                .build(),
        );
        assert_eq!(
            r1.store().len(),
            r2.store().len(),
            "equal lengths, different labels"
        );
        // r1 computes and spills "query" (full length, r1's labels).
        r1.store().score_row("query");
        r1.store().score_row("evictor");
        // r2 misses "query": the shared sink holds r1's row of equal
        // length, but the fingerprint mismatch forces a recompute.
        let row = r2.store().score_row("query");
        assert_eq!(
            r2.store().counters().row_spill_recoveries,
            0,
            "a diverged lineage's spilled row must be rejected"
        );
        let scalar = NameSimilarity::default();
        for (id, d) in row.iter().enumerate() {
            let label = r2.store().interner().resolve(LabelId(id as u32));
            assert_eq!(
                d.to_bits(),
                scalar.distance("query", label).to_bits(),
                "{label:?}"
            );
        }
        // Same-lineage recovery still works: r1 faults its own row back.
        let evals = r1.store().pair_evals();
        r1.store().score_row("query");
        assert_eq!(
            r1.store().pair_evals(),
            evals,
            "own spilled row must fault back"
        );
    }

    #[test]
    fn export_import_round_trips_hot_state() {
        let mut r = repo();
        let store = r.store();
        store.score_row("orderTitle");
        store.score_row("title");
        store.score_row("orderTitle"); // refresh: title is now the LRU row
        let state = store.export_state();
        assert_eq!(state.labels.len(), store.len());
        assert_eq!(state.rows.len(), 2);
        assert_eq!(
            state.rows[0].0, "title",
            "rows export least recently used first"
        );
        let schemas: Vec<Schema> = r.iter().map(|(_, s)| s.clone()).collect();
        let imported = LabelStore::import_state(state.clone(), &schemas);
        assert_eq!(imported.len(), store.len());
        assert_eq!(imported.cached_rows(), 2);
        assert_eq!(imported.profile_builds(), store.len() as u64);
        for id in 0..store.len() {
            let id = LabelId(id as u32);
            assert_eq!(
                imported.interner().resolve(id),
                store.interner().resolve(id)
            );
        }
        // Labels come from the image, shapes are rebuilt from the
        // schemas: both equal the live store's.
        assert_eq!(imported.columns(), store.columns());
        assert_eq!(
            imported.token_index().postings().count(),
            store.token_index().postings().count()
        );
        // Restored rows serve bitwise-identically with zero pair evals.
        for query in ["orderTitle", "title"] {
            let a = store.score_row(query);
            let b = imported.score_row(query);
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{query:?}");
            }
        }
        assert_eq!(
            imported.pair_evals(),
            0,
            "imported rows must be served from cache"
        );
        // LRU order survives the round-trip: under a cap of 1, the
        // *least* recently used row ("title") is the one dropped.
        let mut tight = state;
        tight.max_cached_rows = Some(1);
        let bounded = LabelStore::import_state(tight, &schemas);
        assert_eq!(bounded.cached_rows(), 1);
        assert!(bounded.has_cached_row("orderTitle"));
        assert!(!bounded.has_cached_row("title"));
        // And the imported store keeps growing incrementally.
        r.add(SchemaBuilder::new("x").root("brandNew").build());
    }

    #[test]
    fn zero_capacity_store_still_answers_correctly() {
        let r = repo();
        let store = r.store();
        store.set_max_cached_rows(Some(0));
        let scalar = NameSimilarity::default();
        for _ in 0..2 {
            let row = store.score_row("title");
            assert_eq!(store.cached_rows(), 0);
            for (id, d) in row.iter().enumerate() {
                let label = store.interner().resolve(LabelId(id as u32));
                assert_eq!(d.to_bits(), scalar.distance("title", label).to_bits());
            }
        }
        // Every lookup misses and every insert is immediately evicted.
        let c = store.counters();
        assert_eq!(c.row_misses, 2);
        assert_eq!(c.row_evictions, 2);
        assert_eq!(c.pair_evals, 2 * store.len() as u64);
    }

    /// A wider repository: 24 leaf labels, plus 16 distinct queries.
    fn wide_repo(config: StoreConfig) -> (Repository, Vec<String>) {
        let mut r = Repository::with_store_config(config);
        let mut b = SchemaBuilder::new("wide").root("container");
        for i in 0..24 {
            b = b.leaf(format!("field{i}Value"), PrimitiveType::String);
        }
        r.add(b.build());
        let queries: Vec<String> = (0..16).map(|i| format!("query{i}Label")).collect();
        (r, queries)
    }

    #[test]
    fn remove_schema_strips_postings_and_tombstones_slot() {
        let mut r = repo();
        let sid = SchemaId(0);
        assert_eq!(r.live_schemas(), 2);
        assert!(!r.token_index().lookup("book").is_empty());
        assert!(r.remove_schema(sid));
        assert!(!r.remove_schema(sid), "double remove must report false");
        assert!(r.is_removed(sid));
        assert_eq!(r.live_schemas(), 1);
        assert_eq!(r.len(), 2, "slot stays — ids remain stable");
        assert_eq!(r.schema(sid).len(), 0, "tombstone is an empty schema");
        // "book"/"bib" only appeared in schema 0 — their postings are
        // gone; "title" survives via schema 1.
        assert!(r.token_index().lookup("book").is_empty());
        assert!(r.token_index().lookup("bib").is_empty());
        assert_eq!(r.token_index().lookup("title").len(), 1);
        let store = r.store();
        assert!(store.schema_labels(sid).is_empty());
        // Labels are append-only: "bib" and "book" are orphaned, not
        // dropped — cached rows keep their exact width.
        assert_eq!(store.len(), 4);
        assert_eq!(store.orphaned_labels(), 2);
        assert_eq!(store.schema_generation(sid), 1);
        assert_eq!(store.counters().schema_removes, 1);
    }

    #[test]
    fn removal_never_invalidates_cached_rows() {
        let mut r = repo();
        let before = r.store().score_row("title");
        let evals = r.store().pair_evals();
        r.remove_schema(SchemaId(0));
        // The cached row is untouched — same Arc, no re-evaluation.
        let after = r.store().score_row("title");
        assert!(Arc::ptr_eq(&before, &after));
        assert_eq!(r.store().pair_evals(), evals);
    }

    #[test]
    fn replace_schema_reingests_under_same_id() {
        let mut r = repo();
        let sid = SchemaId(1);
        assert!(r.replace_schema(
            sid,
            SchemaBuilder::new("shop2")
                .root("warehouse")
                .leaf("orderLine", PrimitiveType::String)
                .build(),
        ));
        assert!(!r.is_removed(sid));
        assert_eq!(r.live_schemas(), 2);
        assert_eq!(r.schema(sid).name(), "shop2");
        // New tokens indexed, old ones gone.
        assert_eq!(r.token_index().lookup("warehouse").len(), 1);
        assert!(r
            .token_index()
            .lookup("shop")
            .iter()
            .all(|e| e.schema != sid));
        let store = r.store();
        // remove + reingest = two generation bumps.
        assert_eq!(store.schema_generation(sid), 2);
        assert_eq!(store.counters().schema_replaces, 1);
        assert_eq!(store.counters().schema_removes, 1);
        // The column map resolves the new labels.
        let labels = store.schema_labels(sid);
        assert_eq!(store.interner().resolve(labels[0]), "warehouse");
        assert_eq!(store.interner().resolve(labels[1]), "orderLine");
    }

    #[test]
    fn mutated_repository_matches_fresh_rebuild() {
        // Remove + replace, then compare every derived structure against
        // a repository built from scratch with the same final schemas
        // (tombstoned slots as empty placeholder schemas).
        let mut mutated = repo();
        mutated.add(
            SchemaBuilder::new("extra")
                .root("warehouse")
                .leaf("isbn", PrimitiveType::String)
                .build(),
        );
        mutated.remove_schema(SchemaId(0));
        mutated.replace_schema(
            SchemaId(1),
            SchemaBuilder::new("shop2")
                .root("orderDepot")
                .leaf("orderTitle", PrimitiveType::String)
                .build(),
        );
        let mut fresh = Repository::new();
        for sid in mutated.schema_ids() {
            if mutated.is_removed(sid) {
                fresh.add(Schema::new(""));
            } else {
                fresh.add(mutated.schema(sid).clone());
            }
        }
        assert_eq!(mutated.total_elements(), fresh.total_elements());
        // Token postings identical to the rebuild (sorted insert = the
        // incremental-equals-rebuild contract under mutation)...
        for tok in fresh.token_index().tokens() {
            assert_eq!(
                mutated.token_index().lookup(tok),
                fresh.token_index().lookup(tok),
                "{tok}"
            );
        }
        assert_eq!(
            mutated.token_index().vocabulary_size(),
            fresh.token_index().vocabulary_size()
        );
        // ...column maps resolve to identical label text...
        for sid in mutated.schema_ids() {
            let (ms, fs) = (mutated.store(), fresh.store());
            let names = |store: &LabelStore, sid| {
                store
                    .schema_labels(sid)
                    .iter()
                    .map(|&l| store.interner().resolve(l).to_owned())
                    .collect::<Vec<_>>()
            };
            assert_eq!(names(ms, sid), names(fs, sid), "{sid}");
        }
        // ...and scoring agrees bitwise wherever both vocabularies
        // overlap (the mutated store keeps orphaned labels; the fresh
        // one never interned them — compare via each store's own
        // labels).
        let m_row = mutated.store().score_row("orderTitle");
        let f_row = fresh.store().score_row("orderTitle");
        let m = mutated.store();
        let f = fresh.store();
        for (fid, d) in f_row.iter().enumerate() {
            let label = f.interner().resolve(LabelId(fid as u32));
            let mid = m.interner().get(label).expect("label in mutated store");
            assert_eq!(m_row[mid.index()].to_bits(), d.to_bits(), "{label}");
        }
    }

    /// Assert `store`'s bound row of `query` equals the filter index's
    /// dense passes bitwise: cheap bounds and every refinement.
    fn assert_bound_row_is_exact(store: &LabelStore, query: &str) {
        let row = store.bound_row(query);
        let filter = QueryFilter::new(query);
        let exact = store.interner().get(query);
        let (mut cheap, mut tri, mut full) = (Vec::new(), Vec::new(), Vec::new());
        store
            .filter_index()
            .sim_upper_bounds_cheap(&filter, exact, &mut cheap, &mut tri);
        store.similarity_upper_bounds(&filter, &mut full);
        assert_eq!(row.cheap().len(), store.len());
        for id in 0..store.len() {
            let lid = LabelId(id as u32);
            assert_eq!(row.cheap()[id].to_bits(), cheap[id].to_bits(), "{query:?}");
            assert_eq!(row.full(lid).to_bits(), full[id].to_bits(), "{query:?}");
        }
    }

    #[test]
    fn bound_rows_are_memoised_and_exact() {
        let r = repo();
        let store = r.store();
        assert_bound_row_is_exact(store, "bookTitle");
        assert!(!store.bound_row("orderNo").memo_hit());
        assert!(store.bound_row("orderNo").memo_hit());
        assert_bound_row_is_exact(store, "bookTitle");
        let c = store.counters();
        assert_eq!((c.bound_row_builds, c.bound_row_hits), (2, 2));
        assert_eq!(store.cached_bound_rows(), 2);
        assert!(c.to_string().contains("bound rows: 2 memo hits, 2 builds"));
        // Refinements persist across handles: a second handle reads the
        // first one's refinement without recomputing it.
        let first = store.bound_row("orderNo").full(LabelId(2));
        assert_eq!(store.bound_row("orderNo").full(LabelId(2)), first);
        // clear_rows drops memoised bound rows with the score rows.
        store.clear_rows();
        assert_eq!(store.cached_bound_rows(), 0);
        assert!(!store.bound_row("orderNo").memo_hit());
    }

    #[test]
    fn interning_labels_starts_a_fresh_memo_and_clones_diverge_cleanly() {
        let mut r1 = repo();
        r1.store().bound_row("title");
        let mut r2 = r1.clone();
        // Clones share the memo until one of them interns new labels.
        assert!(r2.store().bound_row("title").memo_hit());
        r1.add(
            SchemaBuilder::new("a")
                .root("shop")
                .leaf("title", PrimitiveType::String)
                .build(),
        );
        assert!(
            r1.store().bound_row("title").memo_hit(),
            "an add interning nothing keeps the memo"
        );
        r1.add(SchemaBuilder::new("b").root("lineageOne").build());
        r2.add(SchemaBuilder::new("c").root("lineageTwo").build());
        assert_eq!(r1.store().len(), r2.store().len());
        for r in [&r1, &r2] {
            // The raw-equal label moved under the query ("lineageOne" is
            // interned in r1 only): each lineage rebuilds its own row.
            assert!(!r.store().bound_row("lineageOne").memo_hit());
            assert_bound_row_is_exact(r.store(), "lineageOne");
            assert_bound_row_is_exact(r.store(), "title");
        }
    }

    #[test]
    fn partial_and_bound_rows_respect_the_cache_bound() {
        let (r, queries) = wide_repo(StoreConfig {
            max_cached_rows: Some(3),
            batch_threads: 1,
            ..StoreConfig::default()
        });
        let store = r.store();
        for q in &queries {
            store.score_rows_subset(&[q.as_str()], &[0, 1]);
            store.bound_row(q);
            assert!(store.cached_partial_rows() <= 3);
            assert!(store.cached_bound_rows() <= 3);
        }
        assert_eq!(store.cached_partial_rows(), 3);
        // The most recent queries survive, by the same recency rule as
        // full rows.
        let last = queries.last().unwrap().as_str();
        assert!(store.bound_row(last).memo_hit());
        let evals = store.pair_evals();
        store.score_rows_subset(&[last], &[0, 1]);
        assert_eq!(store.pair_evals(), evals, "recent partial row kept");
        store.score_rows_subset(&[queries[0].as_str()], &[0, 1]);
        assert_eq!(store.pair_evals(), evals + 2, "oldest partial row evicted");
        // Tightening the bound shrinks every kind at once.
        store.set_max_cached_rows(Some(1));
        assert_eq!(store.cached_partial_rows(), 1);
        assert_eq!(store.cached_bound_rows(), 1);
    }

    #[test]
    fn published_metrics_file_counts_as_counters_and_occupancy_as_gauges() {
        let r = repo();
        let store = r.store();
        store.score_row("title");
        store.bound_row("title");
        store.score_rows_subset(&["title", "title"], &[0]);
        let snapshot = store.publish_metrics();
        let c = store.counters();
        assert_eq!(c.subset_lookups, 2);
        for (name, value) in [
            ("store.profile_builds", c.profile_builds),
            ("store.pair_evals", c.pair_evals),
            ("store.row_lookups", c.row_lookups),
            ("store.row_hits", c.row_hits),
            ("store.row_misses", c.row_misses),
            ("store.row_evictions_total", c.row_evictions),
            ("store.row_spills_total", c.row_spills),
            ("store.row_spill_recoveries_total", c.row_spill_recoveries),
            ("store.row_spill_failures_total", c.row_spill_failures),
            ("store.subset_lookups", c.subset_lookups),
            ("store.candidate_hits", c.candidate_hits),
            ("store.candidate_pruned", c.candidate_pruned),
            ("store.partial_row_fills", c.partial_row_fills),
            ("store.bound_row_hits", c.bound_row_hits),
            ("store.bound_row_builds", c.bound_row_builds),
            ("store.salvage_events", 0),
            ("store.schema_removes_total", c.schema_removes),
            ("store.schema_replaces_total", c.schema_replaces),
        ] {
            assert_eq!(snapshot.counters.get(name), Some(&value), "counter {name}");
            assert!(!snapshot.gauges.contains_key(name), "{name} is not a gauge");
        }
        for (name, value) in [
            ("store.cached_rows", 1.0),
            ("store.cached_partial_rows", 0.0),
            ("store.cached_bound_rows", 1.0),
            ("store.live_schemas", 2.0),
            ("store.orphaned_labels", 0.0),
        ] {
            assert_eq!(snapshot.gauges.get(name), Some(&value), "gauge {name}");
            assert!(
                !snapshot.counters.contains_key(name),
                "{name} is not a counter"
            );
        }
    }
}
