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
//! from it (labels and tokens by deterministic replay, rows by
//! re-sweeping on demand, config by defaults). A salvage load reports
//! exactly what it did in a [`SnapshotReport`], so degradation is
//! visible, never silent.
//!
//! Saves are crash-safe: [`Snapshot::save_snapshot_file`] stages the
//! image in a sibling temp file, fsyncs, renames over the target, and
//! fsyncs the directory — a crash at any write boundary leaves the old
//! snapshot intact (the crash-point matrix test iterates every
//! boundary).

use crate::error::PersistError;
use crate::io::{atomic_write_file, PersistIo, RealIo};
use crate::wire::{fnv1a, Reader, Writer};
use smx_repo::{LabelInterner, LabelStore, Repository, SchemaId, StoreState, TokenIndex};
use smx_xml::{Node, NodeId, Occurs, PrimitiveType, Schema};
use std::fmt;
use std::path::Path;

/// The 8-byte snapshot magic. Never changes across versions.
pub const MAGIC: [u8; 8] = *b"SMXPSNAP";

/// The snapshot format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;

/// Section ids of the version-1 layout. All are mandatory; readers
/// skip ids they don't know (see the compatibility policy).
pub mod section {
    /// Repository schemas (names + arena nodes).
    pub const SCHEMAS: u32 = 1;
    /// Interned labels + per-schema column maps.
    pub const LABELS: u32 = 2;
    /// Token inverted index postings.
    pub const TOKENS: u32 = 3;
    /// Cached score rows, least recently used first.
    pub const ROWS: u32 = 4;
    /// Store configuration (cache bound, sweep workers).
    pub const CONFIG: u32 = 5;
    /// Candidate-generation filter lanes, one `FilterProfileData` per
    /// label in id order. **Optional/additive**: snapshots written
    /// before this section existed simply lack it, and the loader
    /// rebuilds the lanes from the label text.
    pub const FILTERS: u32 = 6;
    /// Per-slot mutation state: one `(removed, generation)` pair per
    /// schema slot, in id order. **Optional/additive** like FILTERS:
    /// snapshots written before schema mutability existed lack it, and
    /// the loader treats every slot as live at generation 0 (exactly
    /// what those snapshots describe — tombstones didn't exist yet).
    pub const TOMBSTONES: u32 = 7;

    /// Every mandatory version-1 section. FILTERS and TOMBSTONES are
    /// deliberately not in this list — their absence is legal (older
    /// writers).
    pub const MANDATORY: [u32; 5] = [SCHEMAS, LABELS, TOKENS, ROWS, CONFIG];
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
    /// doesn't. Only the SCHEMAS section is required — labels and the
    /// token index are rebuilt from the schemas by deterministic
    /// replay, damaged cached rows are dropped (a cold store, rebuilt
    /// on demand), damaged config falls back to defaults. What was
    /// salvaged is reported in the returned [`SnapshotReport`]; match
    /// answers stay bitwise-identical either way because every rebuilt
    /// structure is a pure function of the schemas. The right mode for
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
    /// replaying the interner over the schemas (identical to ingest
    /// order, so surviving cached rows stay valid).
    LabelsRebuilt(Damage),
    /// TOKENS was damaged; the token inverted index was rebuilt from
    /// the schemas.
    TokensRebuilt(Damage),
    /// ROWS was damaged (or contradicted the label list); all cached
    /// score rows were dropped — the store restarts cold and re-sweeps
    /// on demand, bitwise-identically.
    RowsDropped(Damage),
    /// CONFIG was damaged; the store uses default configuration
    /// (unbounded cache, auto sweep threads).
    ConfigDefaulted(Damage),
    /// FILTERS was damaged (checksum, decode, or a lane count that
    /// contradicts the label list); the candidate-generation filter
    /// lanes were rebuilt from the label text — identical by
    /// construction, so candidate bounds are unaffected. A snapshot
    /// that simply *predates* the section rebuilds silently, without
    /// this event.
    FiltersRebuilt(Damage),
    /// TOMBSTONES was damaged (checksum, decode, or a slot count that
    /// contradicts the schema list); every slot was marked live at
    /// generation 0. Removed slots persist as empty placeholder
    /// schemas, which every matcher skips — so match answers stay
    /// bitwise identical; only `live_schemas()` accounting and
    /// generation stamps degrade. A snapshot that *predates* the
    /// section loads all-live silently, without this event.
    TombstonesDropped(Damage),
}

impl fmt::Display for SalvageEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SalvageEvent::LabelsRebuilt(d) => {
                write!(f, "LABELS {d}: labels + column maps rebuilt from schemas")
            }
            SalvageEvent::TokensRebuilt(d) => {
                write!(f, "TOKENS {d}: token index rebuilt from schemas")
            }
            SalvageEvent::RowsDropped(d) => {
                write!(f, "ROWS {d}: cached score rows dropped (cold store)")
            }
            SalvageEvent::ConfigDefaulted(d) => {
                write!(f, "CONFIG {d}: store config reset to defaults")
            }
            SalvageEvent::FiltersRebuilt(d) => {
                write!(f, "FILTERS {d}: filter lanes rebuilt from labels")
            }
            SalvageEvent::TombstonesDropped(d) => {
                write!(f, "TOMBSTONES {d}: all slots marked live at generation 0")
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
            (section::TOKENS, encode_tokens(&state)),
            (section::ROWS, encode_rows(&state)),
            (section::CONFIG, encode_config(&state)),
            (section::FILTERS, encode_filters(&state)),
            (section::TOMBSTONES, encode_tombstones(&state)),
        ];
        let mut w = Writer::new();
        w.put_bytes(&MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u32(sections.len() as u32);
        // Table first (offsets backpatched), payloads after.
        let mut entry_at = Vec::with_capacity(sections.len());
        for (id, payload) in &sections {
            w.put_u32(*id);
            entry_at.push(w.len());
            w.put_u64(0); // offset, patched below
            w.put_u64(payload.len() as u64);
            w.put_u64(fnv1a(payload));
        }
        for ((_, payload), at) in sections.iter().zip(entry_at) {
            let offset = w.len() as u64;
            w.patch_u64(at, offset);
            w.put_bytes(payload);
        }
        let bytes = w.into_bytes();
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

/// The strict load: every checksum verified up front, every payload
/// decoded, every cross-check passed — any failure rejects the whole
/// snapshot before any repository state exists.
fn strict_load(bytes: &[u8]) -> Result<Repository, PersistError> {
    let sections = read_section_table(bytes)?;
    let payload = |id: u32| -> Result<&[u8], PersistError> {
        sections
            .iter()
            .find(|s| s.id == id)
            .map(|s| &bytes[s.offset..s.offset + s.len])
            .ok_or(PersistError::MissingSection(id))
    };
    let schemas = decode_schemas(payload(section::SCHEMAS)?)?;
    let (labels, schema_labels) = decode_labels(payload(section::LABELS)?)?;
    let postings = decode_tokens(payload(section::TOKENS)?)?;
    let rows = decode_rows(payload(section::ROWS)?)?;
    let (max_cached_rows, batch_threads) = decode_config(payload(section::CONFIG)?)?;
    // FILTERS is additive: absent (an older writer) means the lanes are
    // rebuilt from the label text at import; *present* but undecodable
    // is damage and rejected like any other strict failure. (A present
    // section with a bad checksum never reaches here — the table pass
    // already rejected it.)
    let filters = sections
        .iter()
        .find(|s| s.id == section::FILTERS)
        .map(|s| decode_filters(&bytes[s.offset..s.offset + s.len]))
        .transpose()?;
    // TOMBSTONES follows the same additive policy: absent means every
    // slot is live at generation 0 (a pre-mutability writer).
    let tombstones = sections
        .iter()
        .find(|s| s.id == section::TOMBSTONES)
        .map(|s| decode_tombstones(&bytes[s.offset..s.offset + s.len]))
        .transpose()?;
    let state = StoreState {
        labels,
        schema_labels,
        postings,
        rows,
        max_cached_rows,
        batch_threads,
        filters,
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
/// * LABELS → rebuilt by replaying [`LabelInterner`] over the schemas.
///   Replay order equals ingest order equals save order, so a rebuilt
///   label list is *identical* to the lost one and surviving cached
///   rows (prefix-indexed by label order) remain valid.
/// * TOKENS → rebuilt by replaying [`TokenIndex::add_schema`].
/// * ROWS → dropped; the store restarts cold and re-sweeps on demand.
/// * CONFIG → defaults.
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

    let mut events = Vec::new();

    // LABELS: use if it decodes and cross-checks; else replay-rebuild.
    let labels_result = payload(section::LABELS)
        .and_then(|p| decode_labels(p).map_err(|_| Damage::Undecodable))
        .and_then(|(labels, schema_labels)| {
            validate_labels(&schemas, &labels, &schema_labels)
                .map(|()| (labels, schema_labels))
                .map_err(|_| Damage::Inconsistent)
        });
    let (labels, schema_labels) = match labels_result {
        Ok(pair) => pair,
        Err(damage) => {
            events.push(SalvageEvent::LabelsRebuilt(damage));
            rebuild_labels(&schemas)
        }
    };

    // TOKENS: same shape, rebuilt via the incremental index path.
    let postings_result = payload(section::TOKENS)
        .and_then(|p| decode_tokens(p).map_err(|_| Damage::Undecodable))
        .and_then(|postings| {
            validate_postings(&schemas, &postings)
                .map(|()| postings)
                .map_err(|_| Damage::Inconsistent)
        });
    let postings = match postings_result {
        Ok(postings) => postings,
        Err(damage) => {
            events.push(SalvageEvent::TokensRebuilt(damage));
            rebuild_postings(&schemas)
        }
    };

    // ROWS: validated against the *final* label list (original or
    // rebuilt — identical by construction, but never trusted blindly).
    let rows_result = payload(section::ROWS)
        .and_then(|p| decode_rows(p).map_err(|_| Damage::Undecodable))
        .and_then(|rows| {
            validate_rows(labels.len(), &rows)
                .map(|()| rows)
                .map_err(|_| Damage::Inconsistent)
        });
    let rows = match rows_result {
        Ok(rows) => rows,
        Err(damage) => {
            events.push(SalvageEvent::RowsDropped(damage));
            Vec::new()
        }
    };

    // CONFIG: defaults on any damage.
    let (max_cached_rows, batch_threads) = match payload(section::CONFIG)
        .and_then(|p| decode_config(p).map_err(|_| Damage::Undecodable))
    {
        Ok(config) => config,
        Err(damage) => {
            events.push(SalvageEvent::ConfigDefaulted(damage));
            (None, 0)
        }
    };

    // FILTERS: use if present, decodable, and sized to the label list;
    // otherwise rebuild from the labels (`None` lets the store import
    // path re-derive identical lanes). A snapshot that predates the
    // section rebuilds *silently* — that is compatibility, not damage.
    let filters = match payload(section::FILTERS) {
        Ok(p) => match decode_filters(p) {
            Ok(f) if f.len() == labels.len() => Some(f),
            Ok(_) => {
                events.push(SalvageEvent::FiltersRebuilt(Damage::Inconsistent));
                None
            }
            Err(_) => {
                events.push(SalvageEvent::FiltersRebuilt(Damage::Undecodable));
                None
            }
        },
        Err(Damage::Missing) => None,
        Err(damage) => {
            events.push(SalvageEvent::FiltersRebuilt(damage));
            None
        }
    };

    // TOMBSTONES: all-live on any damage. Match answers are unaffected
    // (removed slots persist as empty schemas every matcher skips);
    // only liveness accounting and generation stamps degrade.
    let tombstones = match payload(section::TOMBSTONES) {
        Ok(p) => match decode_tombstones(p) {
            Ok(t) if t.len() == schemas.len() => Some(t),
            Ok(_) => {
                events.push(SalvageEvent::TombstonesDropped(Damage::Inconsistent));
                None
            }
            Err(_) => {
                events.push(SalvageEvent::TombstonesDropped(Damage::Undecodable));
                None
            }
        },
        Err(Damage::Missing) => None,
        Err(damage) => {
            events.push(SalvageEvent::TombstonesDropped(damage));
            None
        }
    };

    let state = StoreState {
        labels,
        schema_labels,
        postings,
        rows,
        max_cached_rows,
        batch_threads,
        filters,
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
    repo.store().record_salvage_events(events.len() as u64);
    Ok((repo, SnapshotReport { events }))
}

/// Rebuild the interned label list + per-schema column maps by
/// replaying the interner over the schemas in id order — the same
/// order ingest used, so ids match the lost section exactly.
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

/// Rebuild the token inverted index postings by replaying the
/// incremental `add_schema` path over the schemas in id order.
fn rebuild_postings(schemas: &[Schema]) -> Vec<(String, Vec<smx_repo::ElementRef>)> {
    let mut index = TokenIndex::default();
    for (i, schema) in schemas.iter().enumerate() {
        index.add_schema(SchemaId(i as u32), schema);
    }
    index
        .postings()
        .map(|(token, elements)| (token.to_owned(), elements.to_vec()))
        .collect()
}

/// One parsed and checksum-verified section table entry.
struct SectionEntry {
    id: u32,
    offset: usize,
    len: usize,
}

/// Parse the header + section table and verify every section's bounds
/// and checksum. Unknown section ids are kept in the table (and simply
/// never asked for) — the forward-compatibility half of the policy.
fn read_section_table(bytes: &[u8]) -> Result<Vec<SectionEntry>, PersistError> {
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
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let count = r.get_u32()? as usize;
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
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let count = (r.get_u32()? as usize).min(r.remaining() / 28);
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

fn encode_tokens(state: &StoreState) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(state.postings.len() as u32);
    for (token, elements) in &state.postings {
        w.put_str(token);
        w.put_u32(elements.len() as u32);
        for element in elements {
            w.put_u32(element.schema.0);
            w.put_u32(element.node.0);
        }
    }
    w.into_bytes()
}

fn decode_tokens(bytes: &[u8]) -> Result<Vec<(String, Vec<smx_repo::ElementRef>)>, PersistError> {
    let mut r = Reader::new(bytes);
    let count = r.get_u32()? as usize;
    let mut postings = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let token = r.get_str()?;
        let n = r.get_u32()? as usize;
        let mut elements = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let schema = smx_repo::SchemaId(r.get_u32()?);
            let node = NodeId(r.get_u32()?);
            elements.push(smx_repo::ElementRef { schema, node });
        }
        postings.push((token, elements));
    }
    Ok(postings)
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

fn encode_filters(state: &StoreState) -> Vec<u8> {
    let mut w = Writer::new();
    let lanes = state.filters.as_deref().unwrap_or(&[]);
    w.put_u32(lanes.len() as u32);
    for p in lanes {
        w.put_u32(p.norm_len);
        for &c in &p.prefix {
            w.put_u32(c);
        }
        w.put_u32(p.unigrams.len() as u32);
        for &(scalar, count) in &p.unigrams {
            w.put_u32(scalar);
            w.put_u32(count);
        }
        w.put_u32(p.token_count);
        w.put_u32(p.token_lens.len() as u32);
        for &l in &p.token_lens {
            w.put_u32(l);
        }
        w.put_u64(p.initials);
        w.put_u32(p.gram_keys.len() as u32);
        for &k in &p.gram_keys {
            w.put_u64(k);
        }
        for &c in &p.gram_counts {
            w.put_u32(c);
        }
        w.put_u64(p.gram_total);
    }
    w.into_bytes()
}

fn decode_filters(bytes: &[u8]) -> Result<Vec<smx_repo::FilterProfileData>, PersistError> {
    let mut r = Reader::new(bytes);
    let count = r.get_u32()? as usize;
    let mut lanes = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let norm_len = r.get_u32()?;
        let mut prefix = [0u32; 4];
        for c in &mut prefix {
            *c = r.get_u32()?;
        }
        let n = r.get_u32()? as usize;
        if n > r.remaining() / 8 {
            return Err(PersistError::Truncated);
        }
        let mut unigrams = Vec::with_capacity(n);
        for _ in 0..n {
            let scalar = r.get_u32()?;
            let count = r.get_u32()?;
            unigrams.push((scalar, count));
        }
        let token_count = r.get_u32()?;
        let n = r.get_u32()? as usize;
        if n > r.remaining() / 4 {
            return Err(PersistError::Truncated);
        }
        let mut token_lens = Vec::with_capacity(n);
        for _ in 0..n {
            token_lens.push(r.get_u32()?);
        }
        let initials = r.get_u64()?;
        let n = r.get_u32()? as usize;
        if n > r.remaining() / 12 {
            return Err(PersistError::Truncated);
        }
        let mut gram_keys = Vec::with_capacity(n);
        for _ in 0..n {
            gram_keys.push(r.get_u64()?);
        }
        let mut gram_counts = Vec::with_capacity(n);
        for _ in 0..n {
            gram_counts.push(r.get_u32()?);
        }
        let gram_total = r.get_u64()?;
        lanes.push(smx_repo::FilterProfileData {
            norm_len,
            prefix,
            unigrams,
            token_count,
            token_lens,
            initials,
            gram_keys,
            gram_counts,
            gram_total,
        });
    }
    Ok(lanes)
}

/// Cross-reference the decoded sections before any store is built: the
/// label list must be duplicate-free, every column map must mirror its
/// schema's node names through the label list, every cached row must be
/// a valid prefix of the label list, and every token posting must point
/// at a real element (the pre-filter path indexes schemas by these
/// references unchecked). Composed from the per-section validators the
/// salvage path uses piecewise.
fn validate(schemas: &[Schema], state: &StoreState) -> Result<(), PersistError> {
    validate_labels(schemas, &state.labels, &state.schema_labels)?;
    validate_rows(state.labels.len(), &state.rows)?;
    validate_postings(schemas, &state.postings)?;
    validate_filters(state.labels.len(), state.filters.as_deref())?;
    validate_tombstones(schemas.len(), state.tombstones.as_deref())
}

/// The TOMBSTONES cross-check: when present, exactly one
/// `(removed, generation)` pair per schema slot.
fn validate_tombstones(
    schema_count: usize,
    tombstones: Option<&[(bool, u64)]>,
) -> Result<(), PersistError> {
    match tombstones {
        Some(slots) if slots.len() != schema_count => Err(PersistError::Corrupt(format!(
            "{} tombstone slots for {schema_count} schemas",
            slots.len()
        ))),
        _ => Ok(()),
    }
}

/// The FILTERS cross-check: when present, exactly one lane entry per
/// label. (Lane-internal invariants are re-validated by the store at
/// import; a violation there degrades to a rebuild from label text,
/// which is bitwise-equivalent by construction.)
fn validate_filters(
    label_count: usize,
    filters: Option<&[smx_repo::FilterProfileData]>,
) -> Result<(), PersistError> {
    match filters {
        Some(lanes) if lanes.len() != label_count => Err(PersistError::Corrupt(format!(
            "{} filter lanes for {label_count} labels",
            lanes.len()
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

/// The TOKENS cross-check: every posting must point at a real element.
fn validate_postings(
    schemas: &[Schema],
    postings: &[(String, Vec<smx_repo::ElementRef>)],
) -> Result<(), PersistError> {
    for (token, elements) in postings {
        for element in elements {
            let schema = schemas.get(element.schema.index()).ok_or_else(|| {
                PersistError::Corrupt(format!(
                    "token {token:?} posting references schema {}",
                    element.schema
                ))
            })?;
            if element.node.index() >= schema.len() {
                return Err(PersistError::Corrupt(format!(
                    "token {token:?} posting references node {} of {}-node schema {}",
                    element.node,
                    schema.len(),
                    element.schema
                )));
            }
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
    fn salvage_rebuilds_corrupt_tokens() {
        let repo = repository();
        let mut bytes = repo.save_snapshot();
        corrupt_section(&mut bytes, section::TOKENS);
        let (loaded, report) =
            Repository::load_snapshot_report(&bytes, RecoveryPolicy::Salvage).unwrap();
        assert_eq!(
            report.events,
            vec![SalvageEvent::TokensRebuilt(Damage::BadChecksum)]
        );
        assert_eq!(loaded, repo);
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

    #[test]
    fn filters_section_round_trips_lanes() {
        let repo = repository();
        let loaded = Repository::load_snapshot(&repo.save_snapshot()).unwrap();
        let (a, b) = (repo.store(), loaded.store());
        assert_eq!(a.filter_index().len(), b.filter_index().len());
        assert_eq!(a.filter_index().export(), b.filter_index().export());
        // The loaded lanes bound identically to the saved ones.
        let (mut x, mut y) = (Vec::new(), Vec::new());
        for q in ["bookTitle", "store", ""] {
            let filter = smx_repo::QueryFilter::new(q);
            a.similarity_upper_bounds(&filter, &mut x);
            b.similarity_upper_bounds(&filter, &mut y);
            assert_eq!(x, y, "{q:?}");
        }
    }

    #[test]
    fn strict_load_rejects_corrupt_filters() {
        let repo = repository();
        let mut bytes = repo.save_snapshot();
        corrupt_section(&mut bytes, section::FILTERS);
        assert!(matches!(
            Repository::load_snapshot(&bytes),
            Err(PersistError::ChecksumMismatch(section::FILTERS))
        ));
    }

    #[test]
    fn salvage_rebuilds_corrupt_filters_from_labels() {
        let repo = repository();
        let mut bytes = repo.save_snapshot();
        corrupt_section(&mut bytes, section::FILTERS);
        let (loaded, report) =
            Repository::load_snapshot_report(&bytes, RecoveryPolicy::Salvage).unwrap();
        assert_eq!(
            report.events,
            vec![SalvageEvent::FiltersRebuilt(Damage::BadChecksum)]
        );
        // Rebuilt lanes are identical to the lost ones (pure function
        // of the label text), so candidate bounds are unaffected.
        assert_eq!(
            loaded.store().filter_index().export(),
            repo.store().filter_index().export()
        );
        assert_eq!(loaded.store().salvage_events(), 1);
    }

    /// Rebuild snapshot bytes keeping only the sections in `keep` —
    /// simulates a writer from before an additive section existed.
    fn strip_to_sections(bytes: &[u8], keep: &[u32]) -> Vec<u8> {
        let sections = read_section_table(bytes).unwrap();
        let kept: Vec<_> = sections.iter().filter(|s| keep.contains(&s.id)).collect();
        let mut w = Writer::new();
        w.put_bytes(&MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u32(kept.len() as u32);
        let mut entry_at = Vec::new();
        for s in &kept {
            w.put_u32(s.id);
            entry_at.push(w.len());
            w.put_u64(0);
            w.put_u64(s.len as u64);
            w.put_u64(fnv1a(&bytes[s.offset..s.offset + s.len]));
        }
        for (s, at) in kept.iter().zip(entry_at) {
            let offset = w.len() as u64;
            w.patch_u64(at, offset);
            w.put_bytes(&bytes[s.offset..s.offset + s.len]);
        }
        w.into_bytes()
    }

    #[test]
    fn snapshots_without_filters_section_load_and_rebuild_lanes() {
        // A snapshot from a pre-FILTERS writer: sections 1–5 only.
        let repo = repository();
        let old = strip_to_sections(&repo.save_snapshot(), &section::MANDATORY);
        let loaded = Repository::load_snapshot(&old).expect("additive section may be absent");
        assert_eq!(loaded, repo);
        // Lanes were rebuilt from the label text — identical to what a
        // new writer would have persisted — and silently (no salvage).
        assert_eq!(
            loaded.store().filter_index().export(),
            repo.store().filter_index().export()
        );
        let (salvaged, report) =
            Repository::load_snapshot_report(&old, RecoveryPolicy::Salvage).unwrap();
        assert!(report.is_clean(), "absence is compatibility, not damage");
        assert_eq!(salvaged.store().salvage_events(), 0);
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
        let mut keep = section::MANDATORY.to_vec();
        keep.push(section::FILTERS);
        let old = strip_to_sections(&repo.save_snapshot(), &keep);
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
            postings: Vec::new(),
            rows: Vec::new(),
            max_cached_rows: Some(7),
            batch_threads: 3,
            filters: None,
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
        let mut bytes = repo.save_snapshot();
        bytes[8] = 99; // version
        assert!(matches!(
            Repository::load_snapshot_report(&bytes, RecoveryPolicy::Salvage),
            Err(PersistError::UnsupportedVersion(99))
        ));
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
        // Append a section id far above the known range: a v1 reader
        // must ignore it (forward compatibility for additive sections).
        let repo = repository();
        let mut bytes = repo.save_snapshot();
        // Rewrite: rebuild with one extra empty section in the table.
        let payload: &[u8] = b"future";
        let mut w = Writer::new();
        w.put_bytes(&MAGIC);
        w.put_u32(FORMAT_VERSION);
        let sections = read_section_table(&bytes).unwrap();
        w.put_u32(sections.len() as u32 + 1);
        let extra_tail = 28; // one extra table entry shifts payloads by this
        for s in &sections {
            w.put_u32(s.id);
            w.put_u64((s.offset + extra_tail) as u64);
            w.put_u64(s.len as u64);
            w.put_u64(fnv1a(&bytes[s.offset..s.offset + s.len]));
        }
        w.put_u32(999);
        w.put_u64((bytes.len() + extra_tail) as u64);
        w.put_u64(payload.len() as u64);
        w.put_u64(fnv1a(payload));
        let first_payload = sections.iter().map(|s| s.offset).min().unwrap();
        w.put_bytes(&bytes.split_off(first_payload));
        w.put_bytes(payload);
        let loaded = Repository::load_snapshot(&w.into_bytes()).expect("unknown id skipped");
        assert_eq!(loaded, repo);
    }
}
