//! A repository of XML schemas with global element addressing.
//!
//! Every [`Repository::add`] also feeds the repository's
//! [`LabelStore`] — interner, per-label row-kernel profiles, column
//! arena, and cached score rows — **incrementally**: ingest appends, it
//! never rebuilds. The store sits behind an `Arc`, so cloning a
//! repository (e.g. to construct a `MatchProblem`) shares all
//! label-level preprocessing and every score row computed so far.

use crate::store::{LabelStore, StoreConfig};
use serde::{Deserialize, Serialize};
use smx_xml::{NodeId, Schema};
use std::sync::Arc;

/// Dense index of a schema within a [`Repository`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SchemaId(pub u32);

impl SchemaId {
    /// The index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SchemaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A globally addressed repository element: `(schema, node)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ElementRef {
    /// The schema containing the element.
    pub schema: SchemaId,
    /// The element inside that schema.
    pub node: NodeId,
}

impl std::fmt::Display for ElementRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.schema, self.node)
    }
}

/// An ordered collection of schemas with an incrementally maintained
/// [`LabelStore`].
///
/// Cloning is cheap: both the schema list and the derived store sit
/// behind `Arc`s (copy-on-write via `Arc::make_mut` on mutation), so a
/// `MatchProblem` — or a whole batch of them — can own a repository
/// clone without duplicating any schema data.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Repository {
    /// The schemas, `Arc`-shared across clones; `Arc::make_mut`
    /// detaches on the rare mutate-after-clone.
    schemas: Arc<Vec<Schema>>,
    /// Derived, append-only state (interner, profiles, column arena,
    /// score rows). `Arc` so clones share it; `Arc::make_mut` detaches
    /// on the rare mutate-after-clone.
    ///
    /// Serde note: the workspace's vendored serde derives are no-ops
    /// (nothing serialises at runtime). When the real crates are swapped
    /// in (ROADMAP open item), this field must be `#[serde(skip)]` *and*
    /// rebuilt from `schemas` on deserialize — a skipped-but-empty store
    /// would desync from the schema list and break column-arena
    /// indexing.
    store: Arc<LabelStore>,
    /// Total elements across `schemas`, maintained by every mutation so
    /// [`total_elements`](Self::total_elements) is O(1).
    elements: usize,
}

/// Equality is over the schemas; the store is derived state.
impl PartialEq for Repository {
    fn eq(&self, other: &Self) -> bool {
        self.schemas == other.schemas
    }
}

impl Repository {
    /// An empty repository.
    pub fn new() -> Self {
        Repository::default()
    }

    /// An empty repository whose label store uses `config` — e.g. a
    /// production deployment bounding the score-row cache
    /// (`max_cached_rows`) or pinning the batched-sweep worker count.
    pub fn with_store_config(config: StoreConfig) -> Self {
        Repository {
            schemas: Arc::new(Vec::new()),
            store: Arc::new(LabelStore::with_config(config)),
            elements: 0,
        }
    }

    /// Reassemble a repository from a schema list and an already
    /// imported label store — the warm-restart path `smx-persist`'s
    /// snapshot loader uses instead of replaying [`add`](Self::add)
    /// (which would rebuild profiles and score rows from scratch).
    ///
    /// The store must describe exactly these schemas (imported with
    /// [`LabelStore::import_state`] from an image of them: one column
    /// slot per schema, labels resolving to the schemas' node names,
    /// shapes built from them); the snapshot decoder validates that
    /// before importing.
    ///
    /// # Panics
    ///
    /// If the store's slot count differs from the schema count, or any
    /// slot's column length from its schema's node count — a mismatched
    /// pair would mis-index every cost-matrix fill and edge price.
    pub fn from_parts(schemas: Vec<Schema>, store: LabelStore) -> Self {
        let columns = store.columns();
        assert!(
            columns.slots() == schemas.len()
                && schemas
                    .iter()
                    .enumerate()
                    .all(|(i, s)| columns.labels(SchemaId(i as u32)).len() == s.len()),
            "store columns must match the schema list: {} slots for {} schemas, \
             and every slot as long as its schema",
            columns.slots(),
            schemas.len()
        );
        Repository {
            elements: columns.len(),
            schemas: Arc::new(schemas),
            store: Arc::new(store),
        }
    }

    /// Add a schema, returning its id. Updates the label store
    /// incrementally: new distinct labels are profiled, the schema's
    /// column slot appended — nothing is rebuilt.
    pub fn add(&mut self, schema: Schema) -> SchemaId {
        let id = SchemaId(self.schemas.len() as u32);
        Arc::make_mut(&mut self.store).add_schema(id, &schema);
        self.elements += schema.len();
        Arc::make_mut(&mut self.schemas).push(schema);
        id
    }

    /// Remove a schema, leaving a tombstone at its slot so every other
    /// [`SchemaId`] stays valid. Returns `false` if `sid` is out of
    /// range or already removed.
    ///
    /// Maintenance is **incremental and targeted**: the removed
    /// schema's label→schema postings and store column slot are
    /// stripped, its slot is replaced by an empty placeholder schema
    /// (every matcher skips empty schemas), and its generation stamp is
    /// bumped.
    /// Label-level derived state — interned labels, row-kernel
    /// profiles, cached score rows — is append-only and **never
    /// invalidated**: a cached row is a pure function of its query
    /// string and the label vocabulary, which only grows. Labels no
    /// schema references anymore are merely orphaned
    /// ([`LabelStore::orphaned_labels`]); their row entries stay
    /// bitwise valid.
    pub fn remove_schema(&mut self, sid: SchemaId) -> bool {
        if sid.index() >= self.schemas.len() || self.store.is_removed(sid) {
            return false;
        }
        let old = {
            let schemas = Arc::make_mut(&mut self.schemas);
            std::mem::replace(&mut schemas[sid.index()], Schema::new(""))
        };
        Arc::make_mut(&mut self.store).remove_schema(sid);
        self.elements -= old.len();
        true
    }

    /// Replace the schema at `sid` with a new version, in place —
    /// unlink-then-reingest under the same id, bumping the slot's
    /// generation twice (once per step; a replace of a live slot is
    /// observable as `generation += 2`). The slot may currently be a
    /// tombstone (replace doubles as re-add). Returns `false` only if
    /// `sid` is out of range.
    ///
    /// Like [`add`](Self::add), ingest is incremental: new distinct
    /// labels are profiled and the slot is spliced back into the
    /// label→schema postings at its sorted position — nothing is
    /// rebuilt, no cached score row is invalidated, and a schema with
    /// the old one's node count overwrites its column slot in place.
    pub fn replace_schema(&mut self, sid: SchemaId, schema: Schema) -> bool {
        if sid.index() >= self.schemas.len() {
            return false;
        }
        let old = std::mem::replace(&mut Arc::make_mut(&mut self.schemas)[sid.index()], schema);
        Arc::make_mut(&mut self.store).replace_schema(sid, &self.schemas[sid.index()]);
        self.elements = self.elements - old.len() + self.schemas[sid.index()].len();
        true
    }

    /// Whether `sid`'s slot is a tombstone left by
    /// [`remove_schema`](Self::remove_schema). Out-of-range ids report
    /// `false`.
    pub fn is_removed(&self, sid: SchemaId) -> bool {
        self.store.is_removed(sid)
    }

    /// Number of live (non-tombstoned) schemas — `len()` minus
    /// tombstones.
    pub fn live_schemas(&self) -> usize {
        self.store.live_schema_count()
    }

    /// The repository's label store: interner, row-kernel profiles,
    /// column arena, and cached score rows, all maintained by
    /// [`add`](Self::add).
    pub fn store(&self) -> &LabelStore {
        &self.store
    }

    /// Drop the store's cached score rows and memoised candidate-tier
    /// bound rows ([`LabelStore::clear_rows`]) — benches use this to time
    /// a genuinely cold request. Affects every clone sharing the store.
    pub fn clear_score_rows(&self) {
        self.store.clear_rows();
    }

    /// Number of schemas.
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// Whether the repository holds no schemas.
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }

    /// Borrow a schema.
    pub fn schema(&self, id: SchemaId) -> &Schema {
        &self.schemas[id.index()]
    }

    /// Iterate over `(id, schema)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SchemaId, &Schema)> {
        self.schemas
            .iter()
            .enumerate()
            .map(|(i, s)| (SchemaId(i as u32), s))
    }

    /// All schema ids.
    pub fn schema_ids(&self) -> impl ExactSizeIterator<Item = SchemaId> {
        (0..self.schemas.len() as u32).map(SchemaId)
    }

    /// Total number of elements across all schemas.
    pub fn total_elements(&self) -> usize {
        self.elements
    }

    /// Iterate over every element in the repository.
    pub fn elements(&self) -> impl Iterator<Item = ElementRef> + '_ {
        self.iter().flat_map(|(sid, schema)| {
            schema
                .node_ids()
                .map(move |node| ElementRef { schema: sid, node })
        })
    }

    /// The name of the element `eref` points at.
    pub fn element_name(&self, eref: ElementRef) -> &str {
        &self.schema(eref.schema).node(eref.node).name
    }

    /// Find schemas by name.
    pub fn find_schema(&self, name: &str) -> Option<SchemaId> {
        self.iter()
            .find(|(_, s)| s.name() == name)
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                .leaf("order", PrimitiveType::String)
                .build(),
        );
        r
    }

    #[test]
    fn add_and_lookup() {
        let r = repo();
        assert_eq!(r.len(), 2);
        assert_eq!(r.total_elements(), 5);
        assert_eq!(r.schema(SchemaId(0)).name(), "bib");
        assert_eq!(r.find_schema("shop"), Some(SchemaId(1)));
        assert_eq!(r.find_schema("nope"), None);
    }

    #[test]
    fn element_iteration_and_names() {
        let r = repo();
        let elements: Vec<ElementRef> = r.elements().collect();
        assert_eq!(elements.len(), 5);
        let names: Vec<&str> = elements.iter().map(|&e| r.element_name(e)).collect();
        assert_eq!(names, vec!["bib", "book", "title", "shop", "order"]);
        assert_eq!(elements[2].to_string(), "s0:n2");
    }

    #[test]
    #[should_panic(expected = "store columns must match the schema list")]
    fn from_parts_rejects_a_slot_count_mismatch() {
        let r = repo();
        let one: Vec<Schema> = r.iter().take(1).map(|(_, s)| s.clone()).collect();
        Repository::from_parts(one, r.store().clone());
    }

    #[test]
    #[should_panic(expected = "store columns must match the schema list")]
    fn from_parts_rejects_a_column_length_mismatch() {
        let r = repo();
        // Same slot count, schemas swapped: 2 nodes where the store's
        // first slot holds 3.
        let swapped = vec![r.schema(SchemaId(1)).clone(), r.schema(SchemaId(0)).clone()];
        Repository::from_parts(swapped, r.store().clone());
    }

    #[test]
    fn empty_repository() {
        let r = Repository::new();
        assert!(r.is_empty());
        assert_eq!(r.total_elements(), 0);
        assert_eq!(r.elements().count(), 0);
    }
}
