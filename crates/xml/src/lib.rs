#![warn(missing_docs)]

//! Arena-based XML schema model.
//!
//! The matching problem of the paper pits a small user-defined *personal
//! schema* against a large repository of XML schemas. This crate provides
//! the schema data model both sides share:
//!
//! * [`schema`] — an arena tree of element declarations ([`Schema`],
//!   [`NodeId`]),
//! * [`node`] — per-element data: name, primitive type, occurrence
//!   constraints,
//! * [`path`] — root-to-element paths and path resolution,
//! * [`builder`] — fluent construction of schemas,
//! * [`parse`] / [`serialize`] — a compact XML text format with a
//!   hand-rolled parser, so repositories can be persisted and inspected,
//! * [`visit`] — pre-order traversal,
//! * [`stats`] — structural statistics (size, depth, fan-out).
//!
//! Invariants maintained by [`Schema`]: exactly one root; every non-root
//! node has a parent; child lists and parent pointers agree; node ids are
//! dense indices into the arena. `Schema::validate` checks all of them and
//! is exercised by the property tests.

pub mod builder;
pub mod error;
pub mod node;
pub mod parse;
pub mod path;
pub mod schema;
pub mod serialize;
pub mod stats;
pub mod visit;

pub use builder::SchemaBuilder;
pub use error::XmlError;
pub use node::{Node, NodeId, NodeKind, Occurs, PrimitiveType};
pub use parse::parse_schema;
pub use path::Path;
pub use schema::Schema;
pub use serialize::schema_to_string;
pub use stats::SchemaStats;
pub use visit::preorder;
