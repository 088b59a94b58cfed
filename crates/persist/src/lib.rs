#![warn(missing_docs)]

//! Snapshot + spill persistence for the repository score store — warm
//! restarts for a long-lived matching service.
//!
//! Everything `smx-repo` derives at ingest (label profiles, column
//! maps, filter lanes) and at query time (cached score rows) is
//! recomputable, but recomputing it on every process restart throws
//! away exactly the work the paper's non-exhaustive serving story
//! depends on amortising. This crate makes that state durable in two
//! complementary ways:
//!
//! * **Snapshots** ([`Snapshot`]): `Repository::save_snapshot` writes
//!   the schemas plus the label store's hot state to a versioned,
//!   checksummed binary image; `Repository::load_snapshot` reassembles
//!   a repository that produces **bitwise-identical** match results —
//!   the differential gate in `tests/persist_identity.rs`.
//! * **Spill** ([`SpillFile`]): an [`EvictionSink`](smx_repo::EvictionSink)
//!   that appends rows evicted by the store's LRU bound to an
//!   append-only file, so a bounded cache trades memory for disk
//!   instead of recompute. Misses fault spilled rows back in through
//!   the existing `score_rows` path, bitwise equal to their recomputed
//!   twins.
//!
//! # On-disk snapshot format
//!
//! All integers are little-endian; `f64`s travel as their IEEE-754 bit
//! patterns (`to_bits`/`from_bits`), which is what makes round-trips
//! bitwise. A snapshot is:
//!
//! ```text
//! magic   8  b"SMXPSNAP"
//! version u32  format version (currently 2; readers accept 1 and 2)
//! count   u32  number of sections
//! table   count × { id: u32, offset: u64, len: u64, checksum: u64 }
//! ...section payloads at their table offsets...
//! ```
//!
//! Section checksums are FNV-1a 64 over the raw payload bytes and are
//! verified before any payload is decoded. Version-2 sections:
//!
//! | id | section    | contents |
//! |----|------------|----------|
//! | 1  | schemas    | every repository schema: name, arena nodes (name, kind, type, occurs, parent) |
//! | 2  | labels     | distinct labels in `LabelId` order + per-schema label-id column maps |
//! | 3  | *retired*  | version 1's token inverted index: in a version-1 snapshot it is checksummed like any unknown id and never decoded; the id is never reused |
//! | 4  | rows       | cached score rows `(query, f64 bits…)`, least recently used first |
//! | 5  | config     | `StoreConfig`: cache bound + sweep worker count |
//! | 6  | filters    | candidate-generation filter lanes (`FilterProfileData` per label, id order) — **optional/additive**: absent in pre-filter snapshots, rebuilt from labels |
//! | 7  | tombstones | per-slot `(removed, generation)` — **optional/additive**: absent in pre-mutability snapshots, which load all-live |
//!
//! Label *profiles* are not stored: `LabelProfile::new` is a pure
//! function of the label text (the row-kernel identity contract), so the
//! loader rebuilds them — cheaper than decoding prepared Myers tables
//! and bitwise-equivalent by construction. Filter *lanes* (section 6)
//! are equally a pure function of the label text, but they *are*
//! stored: skipping the per-label re-derivation keeps warm restarts on
//! their load-vs-rebuild budget, and a missing or damaged FILTERS
//! section degrades to exactly that rebuild.
//!
//! # Versioning and compatibility policy
//!
//! * The magic never changes; a mismatch is [`PersistError::BadMagic`]
//!   (not a snapshot at all).
//! * `version` is bumped on any *incompatible* layout change; readers
//!   accept every version from 1 to [`FORMAT_VERSION`] and reject
//!   the rest ([`PersistError::UnsupportedVersion`]) rather than guess.
//! * Within a version, writers may append **new section ids**; readers
//!   skip unknown ids, so adding a section is forward- and
//!   backward-compatible. Removing or re-encoding a section requires a
//!   version bump, and a removed id is retired, never reused.
//!   Sections 1, 2, 4 and 5 are mandatory
//!   ([`PersistError::MissingSection`]); FILTERS (6) and TOMBSTONES (7)
//!   are additive — a strict load accepts their absence (older writers)
//!   and rebuilds the lanes from the label list or loads every slot
//!   live, but rejects a *present* damaged one.
//! * Decoding is all-or-nothing: any error leaves no partially built
//!   repository behind.
//!
//! This format is also the designated switch point for the ROADMAP's
//! "real serde" item: when the vendored serde shims are replaced by the
//! real crates, the section payloads can become serde-encoded while the
//! header, table, checksums, and error taxonomy stay as they are.
//!
//! # Crash consistency
//!
//! Every file this crate replaces is replaced **atomically**:
//! `save_snapshot_file` and `SpillFile::compact` write the complete new
//! image to a sibling staging file (`<name>.tmp`), fsync it, rename it
//! over the target, and fsync the parent directory. A crash at any
//! point — between any two syscalls or mid-write — therefore leaves
//! either the complete old file or the complete new one, never a
//! hybrid and never an unreadable file. The spill log itself is
//! append-only with per-record checksums, so a crash mid-append costs
//! exactly the torn tail record, which `SpillFile::open` detects and
//! truncates.
//!
//! This is not an aspiration but a tested matrix: all file I/O flows
//! through the [`PersistIo`] seam, and [`FaultIo`] injects a
//! **deterministic** fault plan into it — fail op *n*, tear a write
//! after *k* bytes, flip a bit, or crash outright (every op from *n*
//! on fails, exactly like power loss). Op indices are global and
//! assigned in call order, with no clocks or randomness anywhere, so
//! every failure a test finds replays bit-for-bit.
//! `tests/crash_matrix.rs` iterates a crash at *every* op and *every*
//! write-byte boundary of a snapshot save and a spill compaction;
//! `tests/chaos.rs` drives randomized fault plans and proves no plan
//! can change any matcher's answers.
//!
//! # Graceful degradation
//!
//! Everything persisted here is a cache of recomputable state, and the
//! failure policy follows from that:
//!
//! * **Snapshots** default to [`RecoveryPolicy::Strict`] — any damage
//!   is a typed [`PersistError`]. Under
//!   [`RecoveryPolicy::Salvage`], damage to a *derived* section
//!   degrades instead of failing: labels are rebuilt by replaying the
//!   (intact) schemas, cached rows are dropped to a cold store, filter
//!   lanes are rebuilt from the labels, config falls back to defaults.
//!   A label replay matches the lost label ids only for a store never
//!   mutated, so after a remove or replace it drops the cached rows
//!   and rebuilds the filter lanes too. Each action is recorded as a
//!   [`SalvageEvent`] in the returned [`SnapshotReport`] and stamped
//!   on the store's health. Only the SCHEMAS section is load-bearing:
//!   it is the one source of truth the rest can be rebuilt from, so
//!   its damage (or a damaged header) still fails under either policy.
//! * **Spill writes** are best-effort: a write error degrades the sink
//!   (declines spills through a deterministic op-count backoff, then
//!   re-opens and retries; see [`RetryPolicy`]) rather than poisoning
//!   it on first contact, and poison itself — after the retry budget
//!   exhausts — only ever costs recompute, never answers.
//!
//! Degradation is never silent: `LabelStore::health` in `smx-repo`
//! surfaces sink poison/degradation, write errors, reopen cycles, and
//! salvage events to the serving layer.

mod error;
mod fault;
mod io;
mod snapshot;
mod spill;
mod wire;

pub use error::PersistError;
pub use fault::{Fault, FaultIo, FaultPlan};
pub use io::{PersistFile, PersistIo, RealIo};
pub use snapshot::{
    section, Damage, RecoveryPolicy, SalvageEvent, Snapshot, SnapshotReport, FORMAT_VERSION, MAGIC,
};
pub use spill::{RetryPolicy, SpillFile};
