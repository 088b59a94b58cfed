//! The versioned, checksummed repository snapshot: encode a
//! [`Repository`] (schemas + label-store hot state) to bytes and
//! reassemble it, bitwise-identically, on the other side of a restart.
//!
//! See the crate docs for the byte layout and the
//! versioning/compatibility policy. Decoding is strictly
//! validate-then-assemble: the section table and every checksum are
//! verified first, then each payload is decoded into plain data, the
//! cross-references are checked (column maps vs schemas, label ids vs
//! the label list, row lengths vs the label count), and only then is a
//! [`LabelStore`] imported and the repository assembled — an error at
//! any point returns before any repository state exists.
//!
//! Two policies govern what "an error" means on load
//! ([`RecoveryPolicy`]): **Strict** rejects the snapshot on any damage
//! (the behaviour above), while **Salvage** keeps everything that still
//! verifies and *rebuilds or drops* what doesn't — only the SCHEMAS
//! section is load-bearing, because every other section is derivable
//! from it (labels by deterministic replay, rows by re-sweeping on
//! demand, config by defaults). A salvage load reports exactly what it
//! did in a [`SnapshotReport`], so degradation is visible, never
//! silent.
//!
//! Saves are crash-safe: [`Snapshot::save_snapshot_file`] stages the
//! image in a sibling temp file, fsyncs, renames over the target, and
//! fsyncs the directory — a crash at any write boundary leaves the old
//! snapshot intact (the crash-point matrix test iterates every
//! boundary).

use crate::error::PersistError;
use crate::io::{atomic_write_file, PersistIo, RealIo};
use crate::wire::{fnv1a, Reader, Writer};
use smx_repo::{LabelInterner, LabelStore, Repository, StoreState};
use smx_xml::{Node, NodeId, Occurs, PrimitiveType, Schema};
use std::fmt;
use std::path::Path;

/// The 8-byte snapshot magic. Never changes across versions.
pub const MAGIC: [u8; 8] = *b"SMXPSNAP";

/// The snapshot format version this build writes. Readers accept every
/// version from 1 up to this one.
pub const FORMAT_VERSION: u32 = 2;

/// Section ids of the version-2 layout. Readers skip ids they don't
/// know (see the compatibility policy).
///
/// Ids 3 and 6 are **retired**. Version-1 writers stored a token
/// inverted index under id 3, which nothing read. Earlier writers
/// stored candidate-generation filter lanes under id 6, which every
/// load now rebuilds from the label text. Snapshots from those writers
/// still carry them; readers treat them like any unknown id (the
/// checksum is verified with the table, the payload is never decoded).
/// Neither id is ever to be reused.
pub mod section {
    /// Repository schemas (names + arena nodes).
    pub const SCHEMAS: u32 = 1;
    /// Interned labels + per-schema column maps.
    pub const LABELS: u32 = 2;
    /// Cached score rows, least recently used first.
    pub const ROWS: u32 = 4;
    /// Store configuration (cache bound, sweep workers).
    pub const CONFIG: u32 = 5;
    /// Per-slot mutation state: one `(removed, generation)` pair per
    /// schema slot, in id order. **Optional/additive**: snapshots
    /// written before schema mutability existed lack it, and
    /// the loader treats every slot as live at generation 0 (exactly
    /// what those snapshots describe — tombstones didn't exist yet).
    pub const TOMBSTONES: u32 = 7;

    /// Every mandatory section. TOMBSTONES is deliberately not in this
    /// list — its absence is legal (older writers).
    pub const MANDATORY: [u32; 4] = [SCHEMAS, LABELS, ROWS, CONFIG];
}

/// How a snapshot load treats damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Reject the snapshot on *any* damage — a bad checksum, an
    /// undecodable payload, a failed cross-check — with a typed
    /// [`PersistError`]. The right mode when a snapshot is supposed to
    /// be authoritative.
    #[default]
    Strict,
    /// Keep everything that still verifies; rebuild or drop what
    /// doesn't. Only the SCHEMAS section is required — labels are
    /// rebuilt from the schemas by deterministic replay (dropping the
    /// cached rows too when the replay cannot be proven to reproduce
    /// the lost label order), damaged cached rows are dropped (a cold
    /// store, rebuilt on demand), damaged config falls back to
    /// defaults. What was salvaged is reported in
    /// the returned [`SnapshotReport`]; match answers stay
    /// bitwise-identical either way because every rebuilt structure is
    /// a pure function of the schemas. The right mode for
    /// a warm restart: it never fails when a cold start would succeed.
    Salvage,
}

/// Why a section needed salvaging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// The section is absent from the table (or its table entry was
    /// itself unreadable).
    Missing,
    /// The section's payload bytes fail their FNV-1a checksum.
    BadChecksum,
    /// The checksum held but the payload does not decode — the writer
    /// was corrupted before checksumming.
    Undecodable,
    /// The section decoded but contradicts another section (for
    /// example, a cached row longer than the label list).
    Inconsistent,
}

impl fmt::Display for Damage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Damage::Missing => "missing",
            Damage::BadChecksum => "bad checksum",
            Damage::Undecodable => "undecodable",
            Damage::Inconsistent => "inconsistent",
        })
    }
}

/// One salvage action a [`RecoveryPolicy::Salvage`] load performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SalvageEvent {
    /// LABELS was damaged; labels and column maps were rebuilt by
    /// replaying the interner over the schemas in slot order. That
    /// order equals ingest order only for a store no schema was ever
    /// removed from or replaced in; otherwise the replayed label list
    /// can miss or reorder labels of the lost one, and the load also
    /// drops ROWS (reported as [`Damage::Inconsistent`]).
    LabelsRebuilt(Damage),
    /// ROWS was damaged (or contradicted the label list, or a LABELS
    /// rebuild could not be proven exact); all cached score rows were
    /// dropped — the store restarts cold and re-sweeps on demand,
    /// bitwise-identically.
    RowsDropped(Damage),
    /// CONFIG was damaged; the store uses default configuration
    /// (unbounded cache, auto sweep threads).
    ConfigDefaulted(Damage),
    /// TOMBSTONES was damaged (checksum, decode, or a slot count that
    /// contradicts the schema list); every slot was marked live at
    /// generation 1. The mutation history is unknown, so no slot claims
    /// generation 0: the store's next snapshot must not pass for an
    /// add-only history, whose LABELS a later salvage would trust a
    /// replay of. Removed slots persist as empty placeholder schemas,
    /// which every matcher skips — so match answers stay bitwise
    /// identical; only `live_schemas()` accounting and generation
    /// stamps degrade. A snapshot that *predates* the section loads
    /// all-live at generation 0 silently, without this event.
    TombstonesDropped(Damage),
}

impl fmt::Display for SalvageEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SalvageEvent::LabelsRebuilt(d) => {
                write!(f, "LABELS {d}: labels + column maps rebuilt from schemas")
            }
            SalvageEvent::RowsDropped(d) => {
                write!(f, "ROWS {d}: cached score rows dropped (cold store)")
            }
            SalvageEvent::ConfigDefaulted(d) => {
                write!(f, "CONFIG {d}: store config reset to defaults")
            }
            SalvageEvent::TombstonesDropped(d) => {
                write!(f, "TOMBSTONES {d}: all slots marked live at generation 1")
            }
        }
    }
}

/// What a snapshot load had to do to produce a repository.
///
/// Strict loads always return a clean report; salvage loads list one
/// [`SalvageEvent`] per degraded section, in section order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotReport {
    /// The salvage actions taken, in section order; empty for an
    /// undamaged snapshot.
    pub events: Vec<SalvageEvent>,
}

impl SnapshotReport {
    /// Whether the snapshot loaded without any salvaging.
    pub fn is_clean(&self) -> bool {
        self.events.is_empty()
    }

    /// Section `id`'s checked value, or `None` after recording
    /// `event(damage)`. A missing section that is not
    /// [mandatory](section::MANDATORY) records nothing: an older writer
    /// lacked it, which is compatibility, not damage.
    fn salvaged<T>(
        &mut self,
        id: u32,
        checked: Result<T, Damage>,
        event: fn(Damage) -> SalvageEvent,
    ) -> Option<T> {
        match checked {
            Ok(value) => Some(value),
            Err(Damage::Missing) if !section::MANDATORY.contains(&id) => None,
            Err(damage) => {
                self.events.push(event(damage));
                None
            }
        }
    }
}

impl fmt::Display for SnapshotReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("snapshot clean: all sections verified");
        }
        write!(f, "snapshot salvaged ({} events)", self.events.len())?;
        for e in &self.events {
            write!(f, "\n  - {e}")?;
        }
        Ok(())
    }
}

/// Snapshot persistence for repository-shaped types.
///
/// Implemented for [`Repository`]; with the trait in scope the methods
/// read as inherent: `repo.save_snapshot()`,
/// `Repository::load_snapshot(&bytes)`.
///
/// File saves are atomic (temp + fsync + rename + dir fsync) and every
/// file method has a `_with` variant taking a [`PersistIo`], so the
/// whole surface runs under fault injection in tests.
pub trait Snapshot: Sized {
    /// Serialise to the versioned snapshot format.
    fn save_snapshot(&self) -> Vec<u8>;

    /// Reconstruct from snapshot bytes under `policy`, reporting any
    /// salvage actions taken. Under [`RecoveryPolicy::Strict`] a
    /// successful load always carries a clean report.
    fn load_snapshot_report(
        bytes: &[u8],
        policy: RecoveryPolicy,
    ) -> Result<(Self, SnapshotReport), PersistError>;

    /// Reconstruct from snapshot bytes, strictly. The result is
    /// functionally indistinguishable from the instance that was saved:
    /// match results are bitwise identical and no cached work is lost.
    fn load_snapshot(bytes: &[u8]) -> Result<Self, PersistError> {
        Self::load_snapshot_report(bytes, RecoveryPolicy::Strict).map(|(this, _)| this)
    }

    /// [`save_snapshot`](Self::save_snapshot) straight to a file,
    /// crash-safely: the image is staged in a sibling temp file,
    /// fsynced, renamed over `path`, and the directory fsynced. A crash
    /// anywhere leaves the previous snapshot (if any) intact.
    fn save_snapshot_file(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        self.save_snapshot_file_with(&RealIo, path.as_ref())
    }

    /// [`save_snapshot_file`](Self::save_snapshot_file) through an
    /// explicit [`PersistIo`] (the fault-injection seam).
    fn save_snapshot_file_with(&self, io: &dyn PersistIo, path: &Path) -> Result<(), PersistError> {
        atomic_write_file(io, path, &self.save_snapshot())?;
        Ok(())
    }

    /// [`load_snapshot`](Self::load_snapshot) straight from a file.
    fn load_snapshot_file(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::load_snapshot(&RealIo.read(path.as_ref())?)
    }

    /// Load from a file through an explicit [`PersistIo`] under
    /// `policy`, reporting salvage actions.
    fn load_snapshot_file_with(
        io: &dyn PersistIo,
        path: &Path,
        policy: RecoveryPolicy,
    ) -> Result<(Self, SnapshotReport), PersistError> {
        Self::load_snapshot_report(&io.read(path)?, policy)
    }
}

impl Snapshot for Repository {
    fn save_snapshot(&self) -> Vec<u8> {
        let mut span = smx_obs::span("persist.snapshot.save");
        let state = self.store().export_state();
        let sections: Vec<(u32, Vec<u8>)> = vec![
            (section::SCHEMAS, encode_schemas(self)),
            (section::LABELS, encode_labels(&state)),
            (section::ROWS, encode_rows(&state)),
            (section::CONFIG, encode_config(&state)),
            (section::TOMBSTONES, encode_tombstones(&state)),
        ];
        let bytes = assemble(&sections);
        if span.is_active() {
            span.attr("sections", sections.len());
            span.attr("rows", state.rows.len());
            span.attr("bytes", bytes.len());
        }
        bytes
    }

    fn load_snapshot_report(
        bytes: &[u8],
        policy: RecoveryPolicy,
    ) -> Result<(Self, SnapshotReport), PersistError> {
        let mut span = smx_obs::span("persist.snapshot.load");
        if span.is_active() {
            span.attr("bytes", bytes.len());
            span.attr(
                "policy",
                match policy {
                    RecoveryPolicy::Strict => "strict",
                    RecoveryPolicy::Salvage => "salvage",
                },
            );
        }
        let loaded = match policy {
            RecoveryPolicy::Strict => strict_load(bytes).map(|r| (r, SnapshotReport::default())),
            RecoveryPolicy::Salvage => salvage_load(bytes),
        };
        match &loaded {
            Ok((_, report)) => span.attr("salvage_events", report.events.len()),
            Err(_) => span.attr("failed", true),
        }
        loaded
    }
}

/// Lay out a snapshot image: the header, then the section table
/// (offsets backpatched, checksums over the payloads), then the
/// payloads in table order.
fn assemble(sections: &[(u32, impl AsRef<[u8]>)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u32(sections.len() as u32);
    let mut entry_at = Vec::with_capacity(sections.len());
    for (id, payload) in sections {
        w.put_u32(*id);
        entry_at.push(w.len());
        w.put_u64(0); // offset, patched below
        w.put_u64(payload.as_ref().len() as u64);
        w.put_u64(fnv1a(payload.as_ref()));
    }
    for ((_, payload), at) in sections.iter().zip(entry_at) {
        let offset = w.len() as u64;
        w.patch_u64(at, offset);
        w.put_bytes(payload.as_ref());
    }
    w.into_bytes()
}

/// The strict load: every checksum verified up front, every payload
/// decoded, every cross-check passed — any failure rejects the whole
/// snapshot before any repository state exists.
fn strict_load(bytes: &[u8]) -> Result<Repository, PersistError> {
    let sections = read_section_table(bytes)?;
    let optional = |id: u32| {
        sections
            .iter()
            .find(|s| s.id == id)
            .map(|s| &bytes[s.offset..s.offset + s.len])
    };
    let payload = |id: u32| optional(id).ok_or(PersistError::MissingSection(id));
    let schemas = decode_schemas(payload(section::SCHEMAS)?)?;
    let (labels, schema_labels) = decode_labels(payload(section::LABELS)?)?;
    let rows = decode_rows(payload(section::ROWS)?)?;
    let (max_cached_rows, batch_threads) = decode_config(payload(section::CONFIG)?)?;
    // TOMBSTONES is additive: absent (an older writer) means every slot
    // is live at generation 0; *present* but undecodable is damage and
    // rejected like any other strict failure. (A present section with a
    // bad checksum never reaches here — the table pass already rejected
    // it.)
    let tombstones = optional(section::TOMBSTONES)
        .map(decode_tombstones)
        .transpose()?;
    let state = StoreState {
        labels,
        schema_labels,
        rows,
        max_cached_rows,
        batch_threads,
        tombstones,
    };
    validate(&schemas, &state)?;
    let store = LabelStore::import_state(state, &schemas);
    Ok(Repository::from_parts(schemas, store))
}

/// The salvage load: keep what verifies, rebuild or drop what doesn't.
///
/// Only SCHEMAS is load-bearing — its damage (or a damaged header) is
/// still a hard error, because without the schemas there is nothing to
/// rebuild *from*; that is exactly the case where a cold start would
/// fail too. Everything else degrades per section:
///
/// * LABELS → rebuilt by replaying [`LabelInterner`] over the schemas
///   in slot order. That is ingest order — so the replay reproduces the
///   lost label list — only when no schema was ever removed or
///   replaced: TOMBSTONES absent (a pre-mutability writer) or intact
///   with every slot live at generation 0. Otherwise removals may have
///   orphaned labels and replaces appended them, so the replay can miss
///   or reorder labels of the lost list, and ROWS (indexed by label id)
///   is dropped as inconsistent.
/// * ROWS → dropped; the store restarts cold and re-sweeps on demand.
/// * CONFIG → defaults.
/// * TOMBSTONES → every slot live at generation 1, since the history
///   is unknown; only an absent section (a pre-mutability writer)
///   loads at generation 0.
fn salvage_load(bytes: &[u8]) -> Result<(Repository, SnapshotReport), PersistError> {
    let sections = read_section_table_lenient(bytes)?;
    let payload = |id: u32| -> Result<&[u8], Damage> {
        let entry = sections
            .iter()
            .find(|(s, _)| s.id == id)
            .ok_or(Damage::Missing)?;
        match entry {
            (s, true) => Ok(&bytes[s.offset..s.offset + s.len]),
            (_, false) => Err(Damage::BadChecksum),
        }
    };

    // SCHEMAS: hard-required, with the strict error taxonomy.
    let schemas = match payload(section::SCHEMAS) {
        Ok(p) => decode_schemas(p)?,
        Err(Damage::Missing) => return Err(PersistError::MissingSection(section::SCHEMAS)),
        Err(_) => return Err(PersistError::ChecksumMismatch(section::SCHEMAS)),
    };

    // TOMBSTONES is decoded first because it decides whether a LABELS
    // replay is exact; its event is still reported in section order.
    let tombstones = checked(payload(section::TOMBSTONES), decode_tombstones, |t| {
        t.len() == schemas.len()
    });
    let replay_exact = match &tombstones {
        Ok(t) => t
            .iter()
            .all(|&(removed, generation)| !removed && generation == 0),
        Err(damage) => *damage == Damage::Missing,
    };

    let mut report = SnapshotReport::default();

    // LABELS: use if it decodes and cross-checks; else replay-rebuild.
    let labels = checked(
        payload(section::LABELS),
        decode_labels,
        |(labels, columns)| validate_labels(&schemas, labels, columns).is_ok(),
    );
    let ((labels, schema_labels), ids_kept) =
        match report.salvaged(section::LABELS, labels, SalvageEvent::LabelsRebuilt) {
            Some(pair) => (pair, true),
            None => (rebuild_labels(&schemas), replay_exact),
        };
    // ROWS is indexed by label id: kept only on the saved ids, sized to
    // the final label list. Dropped rows leave a cold store.
    let rows = checked(payload(section::ROWS), decode_rows, |rows| {
        ids_kept && validate_rows(labels.len(), rows).is_ok()
    });
    let rows = report
        .salvaged(section::ROWS, rows, SalvageEvent::RowsDropped)
        .unwrap_or_default();
    let config = checked(payload(section::CONFIG), decode_config, |_| true);
    let (max_cached_rows, batch_threads) = report
        .salvaged(section::CONFIG, config, SalvageEvent::ConfigDefaulted)
        .unwrap_or((None, 0));
    // Damaged tombstones load every slot live at generation 1: the
    // history is lost, so the next snapshot must not read as add-only.
    // Match answers are unaffected (removed slots persist as empty
    // schemas every matcher skips); only liveness accounting degrades.
    // An absent section (a pre-mutability writer) loads at generation 0.
    let damaged = tombstones.as_ref().is_err_and(|d| *d != Damage::Missing);
    let tombstones = report
        .salvaged(
            section::TOMBSTONES,
            tombstones,
            SalvageEvent::TombstonesDropped,
        )
        .or_else(|| damaged.then(|| vec![(false, 1); schemas.len()]));

    let state = StoreState {
        labels,
        schema_labels,
        rows,
        max_cached_rows,
        batch_threads,
        tombstones,
    };
    // The assembled state passed its checks piecewise; the composed
    // validation must therefore hold. Debug-assert it rather than
    // re-running the full pass in release loads.
    debug_assert!(validate(&schemas, &state).is_ok());
    let store = LabelStore::import_state(state, &schemas);
    let repo = Repository::from_parts(schemas, store);
    // Stamp the degradation on the store, so callers that only ever see
    // the repository (not this report) still observe it via `health()`.
    repo.store()
        .record_salvage_events(report.events.len() as u64);
    Ok((repo, report))
}

/// Decode a salvage-mode section `payload` and cross-check it with
/// `consistent`, naming the damage on failure.
fn checked<T>(
    payload: Result<&[u8], Damage>,
    decode: impl FnOnce(&[u8]) -> Result<T, PersistError>,
    consistent: impl FnOnce(&T) -> bool,
) -> Result<T, Damage> {
    let value = decode(payload?).map_err(|_| Damage::Undecodable)?;
    if consistent(&value) {
        Ok(value)
    } else {
        Err(Damage::Inconsistent)
    }
}

/// Rebuild the interned label list + per-schema column maps by
/// replaying the interner over the schemas in slot order — ingest
/// order for a store that was never mutated (see [`salvage_load`]).
fn rebuild_labels(schemas: &[Schema]) -> (Vec<String>, Vec<Vec<u32>>) {
    let mut interner = LabelInterner::new();
    let schema_labels: Vec<Vec<u32>> = schemas
        .iter()
        .map(|s| interner.intern_schema(s).iter().map(|id| id.0).collect())
        .collect();
    let labels = (0..interner.len())
        .map(|i| interner.resolve(smx_repo::LabelId(i as u32)).to_owned())
        .collect();
    (labels, schema_labels)
}

/// One parsed and checksum-verified section table entry.
struct SectionEntry {
    id: u32,
    offset: usize,
    len: usize,
}

/// Parse the header — magic, a version this build reads
/// (`1..=FORMAT_VERSION`), and the section count — and return a reader
/// positioned at the first table entry. Both table parsers start here,
/// so both accept exactly the same versions.
fn read_header(bytes: &[u8]) -> Result<(Reader<'_>, usize), PersistError> {
    let mut r = Reader::new(bytes);
    if bytes.len() < MAGIC.len() {
        return Err(PersistError::Truncated);
    }
    let mut magic = [0u8; 8];
    for m in &mut magic {
        *m = r.get_u8()?;
    }
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.get_u32()?;
    if !(1..=FORMAT_VERSION).contains(&version) {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let count = r.get_u32()? as usize;
    Ok((r, count))
}

/// Parse the header + section table and verify every section's bounds
/// and checksum. Unknown section ids are kept in the table (and simply
/// never asked for) — the forward-compatibility half of the policy.
fn read_section_table(bytes: &[u8]) -> Result<Vec<SectionEntry>, PersistError> {
    let (mut r, count) = read_header(bytes)?;
    // Each table entry is 28 bytes; a count the remaining bytes cannot
    // hold is a lie (the header is outside the checksummed payloads, so
    // this is the only integrity check it gets) — and must be caught
    // *before* sizing any allocation by it.
    if count > r.remaining() / 28 {
        return Err(PersistError::Truncated);
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let id = r.get_u32()?;
        let offset = r.get_u64()? as usize;
        let len = r.get_u64()? as usize;
        let checksum = r.get_u64()?;
        let end = offset.checked_add(len).ok_or(PersistError::Truncated)?;
        if end > bytes.len() {
            return Err(PersistError::Truncated);
        }
        if fnv1a(&bytes[offset..end]) != checksum {
            return Err(PersistError::ChecksumMismatch(id));
        }
        entries.push(SectionEntry { id, offset, len });
    }
    Ok(entries)
}

/// The salvage-mode table parse: the header (magic + version) is still
/// strict — without it nothing identifies these bytes as a snapshot —
/// but table entries degrade individually: an entry whose payload is
/// out of bounds or fails its checksum is kept with `false` (damaged)
/// instead of rejecting the table, and a table physically shorter than
/// its count yields the entries that fit.
fn read_section_table_lenient(bytes: &[u8]) -> Result<Vec<(SectionEntry, bool)>, PersistError> {
    let (mut r, count) = read_header(bytes)?;
    let count = count.min(r.remaining() / 28);
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let id = r.get_u32()?;
        let offset = r.get_u64()? as usize;
        let len = r.get_u64()? as usize;
        let checksum = r.get_u64()?;
        let ok = offset
            .checked_add(len)
            .filter(|&end| end <= bytes.len())
            .is_some_and(|end| fnv1a(&bytes[offset..end]) == checksum);
        // A damaged entry keeps id but zeroes its span, so no caller
        // can index out of bounds through it.
        let (offset, len) = if ok { (offset, len) } else { (0, 0) };
        entries.push((SectionEntry { id, offset, len }, ok));
    }
    Ok(entries)
}

fn encode_schemas(repo: &Repository) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(repo.len() as u32);
    for (_, schema) in repo.iter() {
        w.put_str(schema.name());
        w.put_u32(schema.len() as u32);
        for id in schema.node_ids() {
            let node = schema.node(id);
            w.put_str(&node.name);
            w.put_u8(match node.kind {
                smx_xml::NodeKind::Element => 0,
                smx_xml::NodeKind::Attribute => 1,
            });
            w.put_u8(encode_type(node.ty));
            w.put_u32(node.occurs.min);
            match node.occurs.max {
                Some(max) => {
                    w.put_u8(1);
                    w.put_u32(max);
                }
                None => w.put_u8(0),
            }
            // Parents always precede children in the arena, so a plain
            // parent pointer reconstructs the tree in one forward pass.
            w.put_u32(node.parent.map_or(u32::MAX, |p| p.0));
        }
    }
    w.into_bytes()
}

fn decode_schemas(bytes: &[u8]) -> Result<Vec<Schema>, PersistError> {
    let mut r = Reader::new(bytes);
    let count = r.get_u32()? as usize;
    let mut schemas = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let name = r.get_str()?;
        let nodes = r.get_u32()? as usize;
        let mut schema = Schema::new(name);
        // One allocation per schema, capped like the schema list: counts
        // are only trusted once the nodes actually decode.
        schema.reserve(nodes.min(1 << 16));
        for i in 0..nodes {
            let mut node = Node::element(r.get_str()?);
            node.kind = match r.get_u8()? {
                0 => smx_xml::NodeKind::Element,
                1 => smx_xml::NodeKind::Attribute,
                k => return Err(PersistError::Corrupt(format!("unknown node kind {k}"))),
            };
            node.ty = decode_type(r.get_u8()?)?;
            let min = r.get_u32()?;
            let max = match r.get_u8()? {
                0 => None,
                1 => Some(r.get_u32()?),
                f => return Err(PersistError::Corrupt(format!("bad occurs flag {f}"))),
            };
            node.occurs = Occurs { min, max };
            let parent = r.get_u32()?;
            let added = if parent == u32::MAX {
                schema
                    .add_root(node)
                    .map_err(|e| PersistError::Corrupt(format!("schema rebuild: {e}")))?
            } else {
                if parent as usize >= i {
                    return Err(PersistError::Corrupt(format!(
                        "node {i} has forward parent {parent}"
                    )));
                }
                schema
                    .add_child(NodeId(parent), node)
                    .map_err(|e| PersistError::Corrupt(format!("schema rebuild: {e}")))?
            };
            debug_assert_eq!(added.index(), i, "arena replay preserves ids");
        }
        schemas.push(schema);
    }
    Ok(schemas)
}

fn encode_type(ty: PrimitiveType) -> u8 {
    match ty {
        PrimitiveType::Complex => 0,
        PrimitiveType::String => 1,
        PrimitiveType::Integer => 2,
        PrimitiveType::Decimal => 3,
        PrimitiveType::Date => 4,
        PrimitiveType::Boolean => 5,
        PrimitiveType::Id => 6,
    }
}

fn decode_type(v: u8) -> Result<PrimitiveType, PersistError> {
    Ok(match v {
        0 => PrimitiveType::Complex,
        1 => PrimitiveType::String,
        2 => PrimitiveType::Integer,
        3 => PrimitiveType::Decimal,
        4 => PrimitiveType::Date,
        5 => PrimitiveType::Boolean,
        6 => PrimitiveType::Id,
        t => return Err(PersistError::Corrupt(format!("unknown primitive type {t}"))),
    })
}

fn encode_labels(state: &StoreState) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(state.labels.len() as u32);
    for label in &state.labels {
        w.put_str(label);
    }
    w.put_u32(state.schema_labels.len() as u32);
    for columns in &state.schema_labels {
        w.put_u32(columns.len() as u32);
        for &id in columns {
            w.put_u32(id);
        }
    }
    w.into_bytes()
}

type LabelSections = (Vec<String>, Vec<Vec<u32>>);

fn decode_labels(bytes: &[u8]) -> Result<LabelSections, PersistError> {
    let mut r = Reader::new(bytes);
    let count = r.get_u32()? as usize;
    let mut labels = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        labels.push(r.get_str()?);
    }
    let schemas = r.get_u32()? as usize;
    let mut schema_labels = Vec::with_capacity(schemas.min(1 << 20));
    for _ in 0..schemas {
        let n = r.get_u32()? as usize;
        let mut columns = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            columns.push(r.get_u32()?);
        }
        schema_labels.push(columns);
    }
    Ok((labels, schema_labels))
}

fn encode_rows(state: &StoreState) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(state.rows.len() as u32);
    for (query, row) in &state.rows {
        w.put_str(query);
        w.put_u64(row.len() as u64);
        for &v in row {
            w.put_f64(v);
        }
    }
    w.into_bytes()
}

fn decode_rows(bytes: &[u8]) -> Result<Vec<(String, Vec<f64>)>, PersistError> {
    let mut r = Reader::new(bytes);
    let count = r.get_u32()? as usize;
    let mut rows = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let query = r.get_str()?;
        let n = r.get_u64()? as usize;
        if n > r.remaining() / 8 {
            return Err(PersistError::Truncated);
        }
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(r.get_f64()?);
        }
        rows.push((query, row));
    }
    Ok(rows)
}

fn encode_config(state: &StoreState) -> Vec<u8> {
    let mut w = Writer::new();
    match state.max_cached_rows {
        Some(cap) => {
            w.put_u8(1);
            w.put_u64(cap as u64);
        }
        None => w.put_u8(0),
    }
    w.put_u64(state.batch_threads as u64);
    w.into_bytes()
}

fn decode_config(bytes: &[u8]) -> Result<(Option<usize>, usize), PersistError> {
    let mut r = Reader::new(bytes);
    let max_cached_rows = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_u64()? as usize),
        f => return Err(PersistError::Corrupt(format!("bad config flag {f}"))),
    };
    let batch_threads = r.get_u64()? as usize;
    // Writers from the sharded-store era appended a shard count here.
    // The store has no shards any more, so trailing bytes are ignored
    // and those snapshots keep loading.
    Ok((max_cached_rows, batch_threads))
}

/// TOMBSTONES payload: slot count, then one `(removed, generation)`
/// pair per schema slot in id order.
fn encode_tombstones(state: &StoreState) -> Vec<u8> {
    let mut w = Writer::new();
    let slots = state.tombstones.as_deref().unwrap_or(&[]);
    w.put_u32(slots.len() as u32);
    for &(removed, generation) in slots {
        w.put_u8(u8::from(removed));
        w.put_u64(generation);
    }
    w.into_bytes()
}

fn decode_tombstones(bytes: &[u8]) -> Result<Vec<(bool, u64)>, PersistError> {
    let mut r = Reader::new(bytes);
    let count = r.get_u32()? as usize;
    if count > r.remaining() / 9 {
        return Err(PersistError::Truncated);
    }
    let mut slots = Vec::with_capacity(count);
    for _ in 0..count {
        let removed = match r.get_u8()? {
            0 => false,
            1 => true,
            f => return Err(PersistError::Corrupt(format!("bad tombstone flag {f}"))),
        };
        let generation = r.get_u64()?;
        slots.push((removed, generation));
    }
    Ok(slots)
}

/// Cross-reference the decoded sections before any store is built: the
/// label list must be duplicate-free, every column map must mirror its
/// schema's node names through the label list, every cached row must be
/// a valid prefix of the label list, and the tombstones must match the
/// slot count. The salvage path runs the same checks section by section.
fn validate(schemas: &[Schema], state: &StoreState) -> Result<(), PersistError> {
    validate_labels(schemas, &state.labels, &state.schema_labels)?;
    validate_rows(state.labels.len(), &state.rows)?;
    match &state.tombstones {
        Some(slots) if slots.len() != schemas.len() => Err(PersistError::Corrupt(format!(
            "{} tombstone slots for {} schemas",
            slots.len(),
            schemas.len()
        ))),
        _ => Ok(()),
    }
}

/// The LABELS cross-checks: duplicate-free label list, one column map
/// per schema, every column map mirroring its schema's node names
/// through the label list.
fn validate_labels(
    schemas: &[Schema],
    labels: &[String],
    schema_labels: &[Vec<u32>],
) -> Result<(), PersistError> {
    let mut seen = std::collections::HashSet::with_capacity(labels.len());
    for label in labels {
        if !seen.insert(label.as_str()) {
            return Err(PersistError::Corrupt(format!("duplicate label {label:?}")));
        }
    }
    if schema_labels.len() != schemas.len() {
        return Err(PersistError::Corrupt(format!(
            "{} column maps for {} schemas",
            schema_labels.len(),
            schemas.len()
        )));
    }
    for (i, (schema, columns)) in schemas.iter().zip(schema_labels).enumerate() {
        if columns.len() != schema.len() {
            return Err(PersistError::Corrupt(format!(
                "schema {i} column map has {} entries for {} nodes",
                columns.len(),
                schema.len()
            )));
        }
        for (node, &label) in schema.node_ids().zip(columns) {
            let name = labels.get(label as usize).ok_or_else(|| {
                PersistError::Corrupt(format!("schema {i} references label {label}"))
            })?;
            if *name != schema.node(node).name {
                return Err(PersistError::Corrupt(format!(
                    "schema {i} node {node} labelled {name:?}, expected {:?}",
                    schema.node(node).name
                )));
            }
        }
    }
    Ok(())
}

/// The ROWS cross-check: every cached row must be a valid prefix of the
/// label list.
fn validate_rows(label_count: usize, rows: &[(String, Vec<f64>)]) -> Result<(), PersistError> {
    for (query, row) in rows {
        if row.len() > label_count {
            return Err(PersistError::Corrupt(format!(
                "row {query:?} has {} entries for {label_count} labels",
                row.len()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_xml::SchemaBuilder;

    fn repository() -> Repository {
        let mut repo = Repository::new();
        repo.add(
            SchemaBuilder::new("bib")
                .root("bibliography")
                .child("book", |b| {
                    b.leaf("title", PrimitiveType::String)
                        .leaf("year", PrimitiveType::Integer)
                })
                .build(),
        );
        repo.add(
            SchemaBuilder::new("shop")
                .root("store")
                .leaf("title", PrimitiveType::String)
                .build(),
        );
        repo.store().score_row("bookTitle");
        repo.store().score_row("title");
        repo
    }

    #[test]
    fn snapshot_round_trips_schemas_and_hot_state() {
        let repo = repository();
        let bytes = repo.save_snapshot();
        let loaded = Repository::load_snapshot(&bytes).expect("snapshot decodes");
        assert_eq!(loaded, repo, "schema lists must be equal");
        for (sid, schema) in repo.iter() {
            assert_eq!(loaded.schema(sid), schema);
        }
        let (a, b) = (repo.store(), loaded.store());
        assert_eq!(a.len(), b.len());
        assert_eq!(b.cached_rows(), 2);
        for query in ["bookTitle", "title"] {
            let (x, y) = (a.score_row(query), b.score_row(query));
            assert_eq!(x.len(), y.len());
            for (p, q) in x.iter().zip(y.iter()) {
                assert_eq!(p.to_bits(), q.to_bits(), "{query:?}");
            }
        }
        assert_eq!(b.pair_evals(), 0, "loaded rows must serve from cache");
    }

    #[test]
    fn empty_repository_round_trips() {
        let repo = Repository::new();
        let loaded = Repository::load_snapshot(&repo.save_snapshot()).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.store().len(), 0);
        assert_eq!(loaded.store().cached_rows(), 0);
    }

    #[test]
    fn config_round_trips() {
        let mut repo = Repository::with_store_config(smx_repo::StoreConfig {
            max_cached_rows: Some(3),
            batch_threads: 2,
            ..smx_repo::StoreConfig::default()
        });
        repo.add(SchemaBuilder::new("s").root("r").build());
        let loaded = Repository::load_snapshot(&repo.save_snapshot()).unwrap();
        assert_eq!(loaded.store().config(), repo.store().config());
    }

    /// Flip one payload byte of `id`'s section (without re-stamping the
    /// checksum) — the canonical "damaged section" for salvage tests.
    fn corrupt_section(bytes: &mut [u8], id: u32) {
        let sections = read_section_table_lenient(bytes).unwrap();
        let (s, ok) = sections.iter().find(|(s, _)| s.id == id).unwrap();
        assert!(ok, "section {id} must start valid");
        bytes[s.offset] ^= 0xFF;
    }

    fn assert_bitwise_rows(a: &Repository, b: &Repository, queries: &[&str]) {
        for query in queries {
            let (x, y) = (a.store().score_row(query), b.store().score_row(query));
            assert_eq!(x.len(), y.len(), "{query:?}");
            for (p, q) in x.iter().zip(y.iter()) {
                assert_eq!(p.to_bits(), q.to_bits(), "{query:?}");
            }
        }
    }

    #[test]
    fn salvage_of_clean_snapshot_is_clean_and_identical() {
        let repo = repository();
        let (loaded, report) =
            Repository::load_snapshot_report(&repo.save_snapshot(), RecoveryPolicy::Salvage)
                .unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(loaded, repo);
        assert_eq!(loaded.store().cached_rows(), 2);
    }

    #[test]
    fn salvage_rebuilds_corrupt_labels_and_keeps_rows() {
        let repo = repository();
        let mut bytes = repo.save_snapshot();
        corrupt_section(&mut bytes, section::LABELS);
        assert!(matches!(
            Repository::load_snapshot(&bytes),
            Err(PersistError::ChecksumMismatch(section::LABELS))
        ));
        let (loaded, report) =
            Repository::load_snapshot_report(&bytes, RecoveryPolicy::Salvage).unwrap();
        assert_eq!(
            report.events,
            vec![SalvageEvent::LabelsRebuilt(Damage::BadChecksum)]
        );
        // Interner replay rebuilds the identical label list, so the
        // cached rows survive and stay bitwise.
        assert_eq!(loaded, repo);
        assert_eq!(loaded.store().cached_rows(), 2);
        assert_bitwise_rows(&repo, &loaded, &["bookTitle", "title"]);
        assert_eq!(loaded.store().pair_evals(), 0, "rows must have survived");
    }

    #[test]
    fn salvage_drops_corrupt_rows_to_cold_store() {
        let repo = repository();
        let mut bytes = repo.save_snapshot();
        corrupt_section(&mut bytes, section::ROWS);
        let (loaded, report) =
            Repository::load_snapshot_report(&bytes, RecoveryPolicy::Salvage).unwrap();
        assert_eq!(
            report.events,
            vec![SalvageEvent::RowsDropped(Damage::BadChecksum)]
        );
        assert_eq!(loaded.store().cached_rows(), 0, "store restarts cold");
        // Cold re-sweeps still produce bitwise-identical rows.
        assert_bitwise_rows(&repo, &loaded, &["bookTitle", "title"]);
    }

    #[test]
    fn salvage_defaults_corrupt_config() {
        let mut repo = Repository::with_store_config(smx_repo::StoreConfig {
            max_cached_rows: Some(3),
            batch_threads: 2,
            ..smx_repo::StoreConfig::default()
        });
        repo.add(SchemaBuilder::new("s").root("r").build());
        let mut bytes = repo.save_snapshot();
        corrupt_section(&mut bytes, section::CONFIG);
        let (loaded, report) =
            Repository::load_snapshot_report(&bytes, RecoveryPolicy::Salvage).unwrap();
        assert_eq!(
            report.events,
            vec![SalvageEvent::ConfigDefaulted(Damage::BadChecksum)]
        );
        assert_eq!(loaded.store().config(), smx_repo::StoreConfig::default());
    }

    /// Assert `b`'s candidate bounds equal `a`'s bitwise for every query:
    /// the dense full-precision pass and the memoised cheap bound row.
    fn assert_bitwise_bounds(a: &Repository, b: &Repository, queries: &[&str]) {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let (mut x, mut y) = (Vec::new(), Vec::new());
        for query in queries {
            let filter = smx_repo::QueryFilter::new(query);
            a.store().similarity_upper_bounds(&filter, &mut x);
            b.store().similarity_upper_bounds(&filter, &mut y);
            assert_eq!(bits(&x), bits(&y), "{query:?}");
            let (p, q) = (a.store().bound_row(query), b.store().bound_row(query));
            assert_eq!(bits(p.cheap()), bits(q.cheap()), "{query:?}");
        }
    }

    /// `bytes`'s sections in table order, as `(id, payload)`.
    fn sections_of(bytes: &[u8]) -> Vec<(u32, &[u8])> {
        read_section_table(bytes)
            .unwrap()
            .iter()
            .map(|s| (s.id, &bytes[s.offset..s.offset + s.len]))
            .collect()
    }

    /// Rebuild snapshot bytes keeping only the sections in `keep` —
    /// simulates a writer from before an additive section existed.
    fn strip_to_sections(bytes: &[u8], keep: &[u32]) -> Vec<u8> {
        let mut sections = sections_of(bytes);
        sections.retain(|s| keep.contains(&s.0));
        assemble(&sections)
    }

    /// A repository with one removed and one replaced slot — the
    /// canonical mutated fixture for tombstone persistence.
    fn mutated_repository() -> Repository {
        let mut repo = repository();
        repo.add(
            SchemaBuilder::new("extra")
                .root("warehouse")
                .leaf("isbn", PrimitiveType::String)
                .build(),
        );
        repo.remove_schema(smx_repo::SchemaId(0));
        repo.replace_schema(
            smx_repo::SchemaId(1),
            SchemaBuilder::new("shop2")
                .root("orderDepot")
                .leaf("orderLine", PrimitiveType::String)
                .build(),
        );
        repo.store().score_row("orderTitle");
        repo
    }

    #[test]
    fn tombstones_round_trip_through_snapshot() {
        let repo = mutated_repository();
        let bytes = repo.save_snapshot();
        let loaded = Repository::load_snapshot(&bytes).expect("mutated snapshot decodes");
        assert_eq!(loaded, repo);
        for sid in repo.schema_ids() {
            assert_eq!(loaded.is_removed(sid), repo.is_removed(sid), "{sid}");
            assert_eq!(
                loaded.store().schema_generation(sid),
                repo.store().schema_generation(sid),
                "{sid}"
            );
        }
        assert_eq!(loaded.live_schemas(), 2);
        assert!(loaded.is_removed(smx_repo::SchemaId(0)));
        assert_eq!(loaded.store().schema_generation(smx_repo::SchemaId(1)), 2);
        assert_eq!(
            loaded.store().orphaned_labels(),
            repo.store().orphaned_labels()
        );
        assert_bitwise_rows(&repo, &loaded, &["orderTitle", "orderLine", "title"]);
    }

    #[test]
    fn snapshots_without_tombstones_section_load_all_live() {
        // A snapshot from a pre-mutability writer: no TOMBSTONES
        // section. Every slot loads live at generation 0 — exactly the
        // state such a writer could have had — and silently (absence is
        // compatibility, not damage).
        let repo = repository();
        let old = strip_to_sections(&repo.save_snapshot(), &section::MANDATORY);
        let loaded = Repository::load_snapshot(&old).expect("additive section may be absent");
        assert_eq!(loaded, repo);
        for sid in loaded.schema_ids() {
            assert!(!loaded.is_removed(sid));
            assert_eq!(loaded.store().schema_generation(sid), 0);
        }
        assert_eq!(loaded.live_schemas(), loaded.len());
        let (_, report) = Repository::load_snapshot_report(&old, RecoveryPolicy::Salvage).unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn corrupt_tombstones_rejected_strict_salvaged_all_live() {
        let repo = mutated_repository();
        let mut bytes = repo.save_snapshot();
        corrupt_section(&mut bytes, section::TOMBSTONES);
        assert!(matches!(
            Repository::load_snapshot(&bytes),
            Err(PersistError::ChecksumMismatch(section::TOMBSTONES))
        ));
        let (salvaged, report) =
            Repository::load_snapshot_report(&bytes, RecoveryPolicy::Salvage).unwrap();
        assert_eq!(
            report.events,
            vec![SalvageEvent::TombstonesDropped(Damage::BadChecksum)]
        );
        // Degraded: liveness flags lost (all slots report live), but
        // the tombstoned slot is still an empty schema every matcher
        // skips — answers stay bitwise identical, and cached rows
        // survive.
        for sid in salvaged.schema_ids() {
            assert!(!salvaged.is_removed(sid));
        }
        assert_eq!(salvaged.schema(smx_repo::SchemaId(0)).len(), 0);
        assert!(salvaged.store().cached_rows() > 0);
        assert_bitwise_rows(&repo, &salvaged, &["orderTitle", "orderLine"]);
    }

    /// [`mutated_repository`] as the last version-1 writer saved it:
    /// it still carries the retired sections 3 and 6.
    const V1_MUTATED: &[u8] = include_bytes!("../tests/data/v1_mutated_repository.snap");

    /// Queries for the bound checks: stored labels, near misses, and the
    /// normalisation-empty query.
    const BOUND_QUERIES: [&str; 6] = ["title", "orderTitle", "isbn", "warehouse", "bookYear", ""];

    #[test]
    fn version_1_snapshots_load_under_both_policies() {
        assert_eq!(V1_MUTATED[MAGIC.len()..MAGIC.len() + 4], 1u32.to_le_bytes());
        let ids: Vec<u32> = sections_of(V1_MUTATED).iter().map(|s| s.0).collect();
        assert!(ids.contains(&3) && ids.contains(&6), "{ids:?}");
        // A store image with its cached rows as bit patterns, so equality
        // is bitwise on the rows and by value on everything else.
        let image = |repo: &Repository| {
            let state = repo.store().export_state();
            let rows: Vec<(String, Vec<u64>)> = state
                .rows
                .iter()
                .map(|(q, row)| (q.clone(), row.iter().map(|v| v.to_bits()).collect()))
                .collect();
            (
                StoreState {
                    rows: Vec::new(),
                    ..state
                },
                rows,
            )
        };
        let fresh = mutated_repository();
        for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Salvage] {
            let (loaded, report) = Repository::load_snapshot_report(V1_MUTATED, policy).unwrap();
            assert!(report.is_clean(), "{policy:?}: {report}");
            assert_eq!(loaded, fresh, "{policy:?}: schemas");
            // Labels, column maps, rows, config, and each slot's
            // tombstone and generation.
            assert_eq!(image(&loaded), image(&fresh), "{policy:?}");
            // Filter lanes are rebuilt from the labels, never decoded.
            assert_bitwise_bounds(&fresh, &loaded, &BOUND_QUERIES);
            // Re-saving writes the current version, without sections 3
            // and 6.
            let resaved = loaded.save_snapshot();
            assert_eq!(
                resaved[MAGIC.len()..MAGIC.len() + 4],
                FORMAT_VERSION.to_le_bytes()
            );
            let ids: Vec<u32> = sections_of(&resaved).iter().map(|s| s.0).collect();
            assert_eq!(ids, [1, 2, 4, 5, 7]);
        }
        assert_eq!(FORMAT_VERSION, 2);
    }

    #[test]
    fn retired_filters_section_is_never_decoded() {
        // Earlier version-2 writers stored filter lanes under id 6. A
        // payload there is checksummed with the table and otherwise
        // ignored: garbage loads clean under both policies, and a bad
        // checksum fails only the strict table pass.
        let repo = mutated_repository();
        let bytes = repo.save_snapshot();
        let mut sections = sections_of(&bytes);
        sections.push((6, b"future"));
        let garbage = assemble(&sections);
        for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Salvage] {
            let (loaded, report) = Repository::load_snapshot_report(&garbage, policy).unwrap();
            assert!(report.is_clean(), "{policy:?}: {report}");
            assert_eq!(loaded, repo, "{policy:?}");
            assert_bitwise_bounds(&repo, &loaded, &BOUND_QUERIES);
        }
        let mut rotten = garbage.clone();
        corrupt_section(&mut rotten, 6);
        assert!(matches!(
            Repository::load_snapshot(&rotten),
            Err(PersistError::ChecksumMismatch(6))
        ));
        let (loaded, report) =
            Repository::load_snapshot_report(&rotten, RecoveryPolicy::Salvage).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(loaded, repo);
        assert_bitwise_bounds(&repo, &loaded, &BOUND_QUERIES);
    }

    #[test]
    fn config_payloads_of_every_writer_generation_decode() {
        // Before the sharded store, a CONFIG payload ended after
        // batch_threads.
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u64(7);
        w.put_u64(3);
        let unsharded = w.into_bytes();
        assert_eq!(decode_config(&unsharded).unwrap(), (Some(7), 3));
        // Sharded-store writers appended a shard count; it is ignored.
        let mut w = Writer::new();
        w.put_u8(0);
        w.put_u64(2);
        w.put_u64(16);
        assert_eq!(decode_config(&w.into_bytes()).unwrap(), (None, 2));
        // The current writer round-trips cap and threads in exactly the
        // pre-sharding layout, with no trailing bytes.
        let state = StoreState {
            labels: Vec::new(),
            schema_labels: Vec::new(),
            rows: Vec::new(),
            max_cached_rows: Some(7),
            batch_threads: 3,
            tombstones: None,
        };
        assert_eq!(encode_config(&state), unsharded);
        assert_eq!(decode_config(&encode_config(&state)).unwrap(), (Some(7), 3));
    }

    #[test]
    fn salvage_still_rejects_corrupt_schemas() {
        let repo = repository();
        let mut bytes = repo.save_snapshot();
        corrupt_section(&mut bytes, section::SCHEMAS);
        assert!(matches!(
            Repository::load_snapshot_report(&bytes, RecoveryPolicy::Salvage),
            Err(PersistError::ChecksumMismatch(section::SCHEMAS))
        ));
    }

    #[test]
    fn salvage_still_rejects_bad_header() {
        let repo = repository();
        let mut bytes = repo.save_snapshot();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Repository::load_snapshot_report(&bytes, RecoveryPolicy::Salvage),
            Err(PersistError::BadMagic)
        ));
        // Both policies read versions 1..=FORMAT_VERSION only.
        for version in [0, FORMAT_VERSION + 1, 99] {
            let mut bytes = repo.save_snapshot();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Salvage] {
                assert!(matches!(
                    Repository::load_snapshot_report(&bytes, policy),
                    Err(PersistError::UnsupportedVersion(v)) if v == version
                ));
            }
        }
    }

    #[test]
    fn salvage_handles_truncated_tail() {
        // Chop the snapshot mid-payload: sections whose spans fall off
        // the end read as damaged, sections before the cut survive.
        let repo = repository();
        let bytes = repo.save_snapshot();
        let cut = &bytes[..bytes.len() - bytes.len() / 4];
        match Repository::load_snapshot_report(cut, RecoveryPolicy::Salvage) {
            Ok((loaded, report)) => {
                assert!(!report.is_clean());
                assert_bitwise_rows(&repo, &loaded, &["bookTitle", "title"]);
            }
            // If the cut took SCHEMAS itself, a hard error is correct.
            Err(e) => assert!(matches!(
                e,
                PersistError::ChecksumMismatch(_) | PersistError::Truncated
            )),
        }
    }

    #[test]
    fn atomic_save_preserves_old_snapshot_on_create_failure() {
        use crate::fault::{Fault, FaultIo, FaultPlan};
        use std::sync::Arc;
        let repo = repository();
        let path =
            std::env::temp_dir().join(format!("smx-snap-atomic-{}.snap", std::process::id()));
        repo.save_snapshot_file(&path).unwrap();
        let old = std::fs::read(&path).unwrap();
        // Every op of the save fails from the start: the snapshot on
        // disk must be untouched.
        let io = FaultIo::new(
            Arc::new(RealIo),
            FaultPlan::clean().fault_at(0, Fault::Fail),
        );
        let bigger = {
            let mut r = repository();
            r.add(SchemaBuilder::new("extra").root("extra").build());
            r
        };
        assert!(bigger.save_snapshot_file_with(&io, &path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), old, "old snapshot intact");
        let loaded = Repository::load_snapshot_file(&path).unwrap();
        assert_eq!(loaded, repo);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_sections_are_skipped() {
        // Append a section id far above the known range: a reader must
        // ignore it (forward compatibility for additive sections).
        let repo = repository();
        let bytes = repo.save_snapshot();
        let mut sections = sections_of(&bytes);
        sections.push((999, b"future"));
        let loaded = Repository::load_snapshot(&assemble(&sections)).expect("unknown id skipped");
        assert_eq!(loaded, repo);
    }
}
