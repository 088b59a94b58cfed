#![warn(missing_docs)]

//! Schema repository and element clustering.
//!
//! The paper's motivating system matches a small personal schema against a
//! *large repository* of XML schemas and gains efficiency by clustering
//! repository elements, then searching only the most promising clusters
//! (\[16\] in the paper). This crate provides that substrate:
//!
//! * [`repository`] — a collection of named schemas with global
//!   [`ElementRef`] addressing,
//! * [`intern`] — dense [`LabelId`]s for distinct element names, so
//!   scoring engines compare and memoise names by `u32` instead of by
//!   string,
//! * [`columns`] — the flat column arena: every schema's per-node label
//!   ids and tree shapes ([`NodeShape`]: O(1) ancestor tests) in two
//!   contiguous arrays,
//! * [`feature`] — token-based feature vectors for repository elements
//!   (name, path context, type),
//! * [`cluster`] — greedy leader clustering (the fast method a scalable
//!   matcher would use) and average-linkage agglomerative clustering (the
//!   reference method), plus quality measures,
//! * [`fragment`] — per-schema fragments induced by a cluster selection:
//!   the element sets a cluster-restricted matcher is allowed to target,
//! * [`filter_index`] — the candidate-generation tier's filter lanes
//!   and trigram inverted index: admissible per-label upper bounds on
//!   the name-similarity mix, maintained incrementally on ingest and
//!   persisted through the `smx-persist` FILTERS section,
//! * [`store`] — the repository-resident label score store: per-label
//!   row-kernel profiles and cached name-distance rows (full rows plus
//!   coverage-masked partial rows for candidate subsets), updated
//!   incrementally on every ingest, shared by every `MatchProblem`
//!   against the repository,
//! * [`bound_rows`] — the store's memo of candidate-tier bound rows:
//!   per query label, the filter index's cheap bounds plus lazily
//!   refined full-precision ones.

pub mod bound_rows;
pub mod cluster;
pub mod columns;
pub mod feature;
pub mod filter_index;
pub mod fragment;
pub mod intern;
pub mod repository;
pub mod store;

pub use bound_rows::BoundRow;
pub use cluster::{agglomerative_clustering, greedy_clustering, Cluster, Clustering};
pub use columns::{ColumnArena, NodeShape};
pub use feature::{element_features, feature_similarity, query_features, ElementFeatures};
pub use filter_index::{FilterIndex, FilterProfile, FilterProfileData, QueryFilter, BOUND_EPS};
pub use fragment::{fragments_for_clusters, Fragment};
pub use intern::{LabelId, LabelInterner};
pub use repository::{ElementRef, Repository, SchemaId};
pub use store::{
    EvictionSink, HealthReport, LabelStore, SinkHealth, StoreConfig, StoreCounters, StoreState,
};
