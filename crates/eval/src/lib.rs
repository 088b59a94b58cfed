#![warn(missing_docs)]

//! Retrieval evaluation: answer sets, ground truth, precision/recall,
//! P/R curves, interpolation, and pooling.
//!
//! This crate implements §2 of the paper ("Quality measurement of schema
//! matching systems") *generically*: answers are opaque ids with a score
//! assigned by an objective function Δ where **lower scores are better**
//! (Δ measures how *different* two schemas are). The paper notes the same
//! machinery applies to any retrieval system — documents, images — and the
//! bounds crate (`smx-core`) consumes only the types defined here.
//!
//! * [`answer`] — [`AnswerSet`]: scored answers, threshold slicing
//!   `A_S^δ = {a | Δ(a) ≤ δ}`, subset/score-consistency checks,
//! * [`truth`] — [`GroundTruth`] `H`: the human-judged correct answers,
//! * [`metrics`] — counts `|A|, |T|` and precision/recall (Figure 2),
//! * [`curve`] — measured P/R curves obtained by sweeping the threshold
//!   (Figure 5),
//! * [`interpolate`] — 11-point interpolated P/R curves (Figure 6),
//! * [`topn`] — precision/recall at a result-list cut,
//! * [`pooling`] — TREC-style pooling and Zobel's shallow-pool estimate,
//!   the related-work validation techniques the bounds are compared against.

pub mod answer;
pub mod curve;
pub mod error;
pub mod interpolate;
pub mod metrics;
pub mod pooling;
pub mod topn;
pub mod truth;

pub use answer::{AnswerId, AnswerSet, ScoredAnswer};
pub use curve::{PrCurve, PrPoint};
pub use error::EvalError;
pub use interpolate::{InterpolatedCurve, STANDARD_RECALL_LEVELS};
pub use metrics::{f1_score, precision, recall, Counts};
pub use pooling::{pool_depth_k, shallow_pool_estimate, PooledTruth};
pub use topn::{precision_at, recall_at, TopNReport};
pub use truth::GroundTruth;
