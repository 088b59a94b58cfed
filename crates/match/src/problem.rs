//! The matching problem `Q`: a personal schema against a repository.

use crate::candidates::{ActiveSet, CandidateSet};
use crate::cost_matrix::CostMatrix;
use crate::error::MatchError;
use crate::objective::ObjectiveFunction;
use smx_repo::{Repository, SchemaId};
use smx_xml::{NodeId, Schema};
use std::sync::{Arc, OnceLock};

/// One matching problem: the user's personal schema and the repository it
/// is matched against.
#[derive(Debug, Clone)]
pub struct MatchProblem {
    personal: Schema,
    repository: Repository,
    /// Personal node ids in arena order (parents precede children, which
    /// the assignment loops rely on).
    personal_order: Vec<NodeId>,
    /// Candidate restriction: `None` scores every repository schema (the
    /// exhaustive default); `Some` restricts every matcher and the
    /// cost-matrix fill to the active subset (see [`crate::candidates`]).
    active: Option<Arc<ActiveSet>>,
    /// Lazily built scoring engine, shared by every matcher run against
    /// this problem. `OnceLock` keeps post-initialisation reads lock-free.
    engine: OnceLock<Arc<CostMatrix>>,
}

impl MatchProblem {
    /// Create a problem; fails on an empty personal schema.
    pub fn new(personal: Schema, repository: Repository) -> Result<Self, MatchError> {
        if personal.is_empty() {
            return Err(MatchError::EmptyPersonalSchema);
        }
        let personal_order: Vec<NodeId> = personal.node_ids().collect();
        Ok(MatchProblem {
            personal,
            repository,
            personal_order,
            active: None,
            engine: OnceLock::new(),
        })
    }

    /// A copy of this problem restricted to `candidates`' active
    /// schemas: matchers skip every other schema and the cost-matrix
    /// fill scores only the label columns the active schemas reference
    /// (through [`smx_repo::LabelStore::score_rows_subset`]). The
    /// engine cache starts fresh — a restricted matrix must never be
    /// confused with an unrestricted one.
    ///
    /// When the candidate set covers the whole repository the copy
    /// carries no restriction at all, so its runs are trivially
    /// bitwise identical to the original's.
    pub fn with_candidates(&self, candidates: &CandidateSet) -> MatchProblem {
        MatchProblem {
            personal: self.personal.clone(),
            repository: self.repository.clone(),
            personal_order: self.personal_order.clone(),
            active: if candidates.covers_all() {
                None
            } else {
                Some(Arc::clone(candidates.active()))
            },
            engine: OnceLock::new(),
        }
    }

    /// The candidate restriction, if any.
    pub fn active_set(&self) -> Option<&ActiveSet> {
        self.active.as_deref()
    }

    /// Whether a matcher may score `sid` (always true on an
    /// unrestricted problem).
    pub fn is_active(&self, sid: SchemaId) -> bool {
        match &self.active {
            None => true,
            Some(set) => set.contains(sid),
        }
    }

    /// The schema ids a matcher iterates: all of them, or the active
    /// subset (ascending either way).
    pub fn active_schema_ids(&self) -> Vec<SchemaId> {
        match &self.active {
            None => self.repository.schema_ids().collect(),
            Some(set) => set.ids().to_vec(),
        }
    }

    /// The precomputed [`CostMatrix`] for `objective`, built on first use
    /// and cached for the lifetime of the problem.
    ///
    /// The build itself leans on the repository's label score store
    /// ([`smx_repo::LabelStore`]): label-level preprocessing happened at
    /// ingest, and name-distance rows computed for one problem are cached
    /// on the (`Arc`-shared) repository — so constructing a *new*
    /// `MatchProblem` against the same repository pays only row lookups
    /// and type blends, not string similarity.
    ///
    /// The cache is keyed by the first objective seen — the paper's
    /// methodology runs every matcher with *one* shared Δ, so that is the
    /// overwhelmingly common case. A call with a different
    /// [`ObjectiveConfig`](crate::ObjectiveConfig) gets a freshly built
    /// (uncached) matrix rather than a wrong one.
    pub fn cost_matrix(&self, objective: &ObjectiveFunction) -> Arc<CostMatrix> {
        let cached = self
            .engine
            .get_or_init(|| Arc::new(CostMatrix::build(self, objective)));
        if cached.config() == objective.config() {
            Arc::clone(cached)
        } else {
            Arc::new(CostMatrix::build(self, objective))
        }
    }

    /// The personal schema.
    pub fn personal(&self) -> &Schema {
        &self.personal
    }

    /// The repository.
    pub fn repository(&self) -> &Repository {
        &self.repository
    }

    /// Personal nodes in assignment order (arena order: parents first).
    pub fn personal_order(&self) -> &[NodeId] {
        &self.personal_order
    }

    /// Number of personal nodes `k` — the exponent of the search space.
    pub fn personal_size(&self) -> usize {
        self.personal_order.len()
    }

    /// Distinct personal-schema labels in first-seen (arena) order —
    /// exactly the row set a cost-matrix fill fetches from the
    /// repository's score store, and what batch matching dedups across
    /// problems before its shared sweep.
    pub fn distinct_personal_labels(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for &pid in &self.personal_order {
            let name = self.personal.node(pid).name.as_str();
            if !names.contains(&name) {
                names.push(name);
            }
        }
        names
    }

    /// Number of parent→child edges in the personal schema.
    pub fn personal_edges(&self) -> usize {
        self.personal_order
            .iter()
            .filter(|&&id| self.personal.node(id).parent.is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_xml::{PrimitiveType, SchemaBuilder};

    #[test]
    fn construction_and_accessors() {
        let personal = SchemaBuilder::new("p")
            .root("book")
            .leaf("title", PrimitiveType::String)
            .leaf("year", PrimitiveType::Integer)
            .build();
        let problem = MatchProblem::new(personal, Repository::new()).unwrap();
        assert_eq!(problem.personal_size(), 3);
        assert_eq!(problem.personal_edges(), 2);
        // The engine cache hands out the same matrix for the same config
        // and a fresh one for a different config.
        let obj = ObjectiveFunction::default();
        let a = problem.cost_matrix(&obj);
        let b = problem.cost_matrix(&obj);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        let other = ObjectiveFunction::new(crate::ObjectiveConfig {
            name_weight: 0.5,
            type_weight: 0.5,
            structure_weight: 0.3,
        });
        let c = problem.cost_matrix(&other);
        assert!(!std::sync::Arc::ptr_eq(&a, &c));
        assert_eq!(c.config(), other.config());
        // Arena order keeps parents before children.
        let order = problem.personal_order();
        for (i, &id) in order.iter().enumerate() {
            if let Some(p) = problem.personal().node(id).parent {
                assert!(order[..i].contains(&p));
            }
        }
    }

    #[test]
    fn empty_personal_rejected() {
        assert_eq!(
            MatchProblem::new(Schema::new("p"), Repository::new()).unwrap_err(),
            MatchError::EmptyPersonalSchema
        );
    }
}
