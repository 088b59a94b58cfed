#![warn(missing_docs)]

//! Schema matchers: an exhaustive system S1 and several non-exhaustive
//! improvements S2, all sharing **one objective function** Δ — the
//! precondition of the effectiveness-bounds technique.
//!
//! A schema mapping assigns every element of the personal schema to a
//! distinct element of one repository schema; its quality is the
//! difference score Δ ∈ [0, 1] (lower = better) computed by
//! [`ObjectiveFunction`] from name similarity, type compatibility, and
//! structural coherence. The search space is exponential in the personal
//! schema's size ([`space`] counts it), which is why the paper needs
//! non-exhaustive improvements:
//!
//! * [`exhaustive`] — S1: branch-and-bound enumeration, provably complete
//!   for every threshold δ ≤ δ_max (the admissible bound only prunes
//!   branches that cannot reach δ_max); [`brute_force`] is the
//!   no-pruning reference it is tested against;
//! * [`beam`] — S2-one style: per-schema beam search; loses answers
//!   smoothly as δ grows (compare Figure 10's S2-one);
//! * [`cluster_search`] — S2-two style (\[16\] in the paper): match only
//!   inside the top-ranked clusters' fragments; loses whole score bands
//!   (Figure 10's S2-two);
//! * [`topk`] — \[17\]-style early termination: exactly the top-k answers;
//! * [`batch`] — the bulk serving path: N personal schemas against one
//!   repository, distinct labels deduped across the batch and swept in
//!   one pass over the stored label profiles, then any matcher above
//!   dispatched per problem (optionally across scoped workers) —
//!   bitwise identical to solo runs (`tests/batch_identity.rs`);
//! * [`candidates`] + [`certified`] — the certified non-exhaustive
//!   tier: an inverted-index filter stage ([`smx_repo::FilterIndex`])
//!   computes an *admissible lower bound* on every schema's best
//!   possible mapping cost, certifies hopeless schemas empty before
//!   any exact scoring, and restricts the problem (and its matrix
//!   fill) to the survivors. [`CertifiedMatcher`] wraps any matcher
//!   above and attaches a [`RecallCertificate`]: a machine-checkable
//!   lower bound on recall vs the exhaustive oracle, valid with no
//!   ground truth. At δ_max it also lower-bounds the answer-size ratio
//!   `Â` that `smx-core`'s effectiveness bounds take; it is not a bound
//!   on `Â` at tighter thresholds. With no budget the restriction is
//!   loss-free and the restricted answers are **bitwise identical** to
//!   the unrestricted run (`tests/candidate_differential.rs`).
//!
//! ```
//! use smx_match::{CandidateConfig, CandidateGenerator, CertifiedMatcher,
//!                 ExhaustiveMatcher, MappingRegistry, MatchProblem,
//!                 ObjectiveFunction};
//! use smx_synth::{Scenario, ScenarioConfig};
//!
//! let sc = Scenario::generate(ScenarioConfig::default());
//! let problem = MatchProblem::new(sc.personal, sc.repository).unwrap();
//!
//! // Score the 8 most promising schemas exactly and cap the rest.
//! let generator = CandidateGenerator::new(
//!     ObjectiveFunction::default(),
//!     CandidateConfig { budget: Some(8) },
//! );
//! let matcher = CertifiedMatcher::new(ExhaustiveMatcher::default(), generator);
//! let run = matcher.run_certified(&problem, 0.3, &MappingRegistry::new());
//! assert_eq!(run.certificate.answer_count(), run.answers.len());
//! assert!(run.certificate.certified_recall() <= 1.0);
//! ```
//!
//! # The scoring engine
//!
//! All matchers score through the problem's precomputed
//! [`CostMatrix`] ([`cost_matrix`]): at first use per
//! [`MatchProblem`], one name-distance row per *distinct* personal
//! label is fetched from the repository's score store
//! ([`smx_repo::LabelStore`]) — swept by a batched row kernel
//! (`smx_text::RowKernel`) over per-label profiles precomputed at
//! ingest, and cached on the repository so repeated problems against
//! the same repository refill without evaluating a single string pair.
//! The dense `k × n` node-cost table per schema, per-level row minima,
//! and their suffix sums (the admissible branch-and-bound bounds) are
//! then plain `Vec<f64>` lookups. The engine lives behind a `OnceLock`
//! in the problem, so post-initialisation reads are lock-free and
//! allocation-free — safe to share across the batch dispatcher's
//! workers.
//!
//! **Score-identity invariant.** The bounds methodology requires S1 and
//! every S2 to share Δ *exactly*. The store's rows are bitwise identical
//! to [`ObjectiveFunction::name_distance`] (the row kernel's contract),
//! the matrix fill reuses [`ObjectiveFunction::blend`], and
//! [`CostMatrix::mapping_cost`] replicates
//! [`ObjectiveFunction::mapping_cost`] term by term, so matrix-backed
//! scores are **bitwise identical** (`f64::to_bits`) to direct
//! evaluation. `ExhaustiveMatcher::direct` /
//! `BruteForceMatcher::direct` keep the recompute-every-time path alive
//! as the reference; `tests/score_identity.rs` asserts the invariant
//! across all matchers, and `benches/matching.rs` measures the speedup
//! the engine buys.
//!
//! All matchers return [`smx_eval::AnswerSet`]s whose ids come from a
//! shared [`MappingRegistry`], so S1's and S2's answers are directly
//! comparable — the invariant `A_S2^δ ⊆ A_S1^δ` is asserted in tests.

pub mod batch;
pub mod beam;
pub mod brute_force;
pub mod candidates;
pub mod certified;
pub mod cluster_search;
pub mod cost_matrix;
pub mod error;
pub mod exhaustive;
pub mod mapping;
pub mod matcher;
pub mod objective;
pub mod problem;
pub mod space;
pub mod test_support;
pub mod topk;

pub use batch::{BatchMatcher, BatchProblem};
pub use beam::BeamMatcher;
pub use brute_force::BruteForceMatcher;
pub use candidates::{ActiveSet, CandidateConfig, CandidateGenerator, CandidateSet, CERT_SLACK};
pub use certified::{CertifiedAnswer, CertifiedMatcher, RecallCertificate};
pub use cluster_search::ClusterMatcher;
pub use cost_matrix::{CostMatrix, SchemaTable};
pub use error::MatchError;
pub use exhaustive::{ExhaustiveMatcher, ScoringMode};
pub use mapping::{Mapping, MappingRegistry};
pub use matcher::Matcher;
pub use objective::{ObjectiveConfig, ObjectiveFunction};
pub use problem::MatchProblem;
pub use space::{falling_factorial, search_space_size};
pub use topk::TopKMatcher;
