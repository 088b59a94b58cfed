//! No-pruning reference enumerator.
//!
//! Enumerates *every* injective assignment of personal nodes into every
//! repository schema and keeps those with Δ ≤ δ_max. Exponential with no
//! mercy — usable only on tiny instances, which is exactly its job: the
//! ground truth against which [`ExhaustiveMatcher`](crate::exhaustive)'s
//! pruning is proven complete.

use crate::exhaustive::ScoringMode;
use crate::mapping::{Mapping, MappingRegistry};
use crate::matcher::Matcher;
use crate::objective::ObjectiveFunction;
use crate::problem::MatchProblem;
use smx_eval::AnswerSet;
use smx_xml::NodeId;

/// The no-pruning reference matcher.
#[derive(Debug, Clone, Default)]
pub struct BruteForceMatcher {
    objective: ObjectiveFunction,
    mode: ScoringMode,
}

impl BruteForceMatcher {
    /// Build with a shared objective function (matrix-backed scoring).
    pub fn new(objective: ObjectiveFunction) -> Self {
        BruteForceMatcher {
            objective,
            mode: ScoringMode::Precomputed,
        }
    }

    /// Build a matcher that scores through the raw
    /// [`ObjectiveFunction`] path instead of the precomputed matrix —
    /// the fully independent reference for score-identity tests.
    pub fn direct(objective: ObjectiveFunction) -> Self {
        BruteForceMatcher {
            objective,
            mode: ScoringMode::Direct,
        }
    }

    /// The scoring mode.
    pub fn mode(&self) -> ScoringMode {
        self.mode
    }
}

impl Matcher for BruteForceMatcher {
    fn name(&self) -> &str {
        "brute-force"
    }

    fn run(&self, problem: &MatchProblem, delta_max: f64, registry: &MappingRegistry) -> AnswerSet {
        let k = problem.personal_size();
        let matrix = match self.mode {
            ScoringMode::Precomputed => Some(problem.cost_matrix(&self.objective)),
            ScoringMode::Direct => None,
        };
        let mut found: Vec<(smx_eval::AnswerId, f64)> = Vec::new();
        for (sid, schema) in problem.repository().iter() {
            if !problem.is_active(sid) {
                continue;
            }
            let nodes: Vec<NodeId> = schema.node_ids().collect();
            if nodes.len() < k {
                continue;
            }
            // Odometer over k positions with injectivity check.
            let mut idx = vec![0usize; k];
            'outer: loop {
                // Injectivity.
                let mut used = vec![false; nodes.len()];
                let mut injective = true;
                for &i in &idx {
                    if used[i] {
                        injective = false;
                        break;
                    }
                    used[i] = true;
                }
                if injective {
                    let targets: Vec<NodeId> = idx.iter().map(|&i| nodes[i]).collect();
                    let cost = match &matrix {
                        Some(m) => m.mapping_cost(problem, sid, &targets),
                        None => self.objective.mapping_cost(problem, sid, &targets),
                    };
                    if cost <= delta_max {
                        let id = registry.intern(Mapping {
                            schema: sid,
                            targets,
                        });
                        found.push((id, cost));
                    }
                }
                // Advance odometer.
                let mut pos = k;
                loop {
                    if pos == 0 {
                        break 'outer;
                    }
                    pos -= 1;
                    idx[pos] += 1;
                    if idx[pos] < nodes.len() {
                        break;
                    }
                    idx[pos] = 0;
                }
            }
        }
        AnswerSet::new(found).expect("finite costs, unique interned ids")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_repo::Repository;
    use smx_xml::{PrimitiveType, SchemaBuilder};

    fn tiny_problem() -> MatchProblem {
        let personal = SchemaBuilder::new("p")
            .root("book")
            .leaf("title", PrimitiveType::String)
            .build();
        let mut repo = Repository::new();
        repo.add(
            SchemaBuilder::new("bib")
                .root("bib")
                .child("book", |b| b.leaf("title", PrimitiveType::String))
                .build(),
        );
        MatchProblem::new(personal, repo).unwrap()
    }

    #[test]
    fn enumerates_all_injective_assignments() {
        let problem = tiny_problem();
        let registry = MappingRegistry::new();
        let answers = BruteForceMatcher::default().run(&problem, 1.0, &registry);
        // 3 schema nodes, k = 2 → P(3,2) = 6 injective assignments.
        assert_eq!(answers.len(), 6);
        // Every answer is injective and scored in range.
        for a in answers.answers() {
            let m = registry.resolve(a.id).unwrap();
            assert!(m.is_injective());
            assert!((0.0..=1.0).contains(&a.score));
        }
    }

    #[test]
    fn threshold_filters() {
        let problem = tiny_problem();
        let registry = MappingRegistry::new();
        let all = BruteForceMatcher::default().run(&problem, 1.0, &registry);
        let some = BruteForceMatcher::default().run(&problem, 0.2, &registry);
        assert!(some.len() < all.len());
        assert!(some.is_subset_of(&all).is_ok());
        // The perfect mapping (book→book, title→title) survives δ=0.2.
        assert!(!some.is_empty());
    }

    #[test]
    fn small_schemas_skipped() {
        let personal = SchemaBuilder::new("p")
            .root("a")
            .leaf("b", PrimitiveType::String)
            .leaf("c", PrimitiveType::String)
            .build();
        let mut repo = Repository::new();
        let mut tiny = smx_xml::Schema::new("tiny");
        tiny.add_root(smx_xml::Node::element("only")).unwrap();
        repo.add(tiny); // 1 node < k = 3 → no assignments
        let problem = MatchProblem::new(personal, repo).unwrap();
        let registry = MappingRegistry::new();
        let answers = BruteForceMatcher::default().run(&problem, 1.0, &registry);
        assert!(answers.is_empty());
    }
}
