//! S1: the exhaustive matcher (branch-and-bound, provably complete).
//!
//! Depth-first assignment of personal nodes in arena order with an
//! admissible lower bound: the partial cost so far plus the sum of each
//! unassigned node's *minimum possible* node cost (edge penalties are
//! non-negative, so ignoring them keeps the bound admissible). A branch
//! is pruned only when even this optimistic completion exceeds δ_max —
//! therefore every mapping with Δ ≤ δ_max is found, which is what
//! "exhaustive for threshold δ" means in the paper (§2.1).
//!
//! Node costs and bounds come from the problem's precomputed
//! [`CostMatrix`] (see [`crate::cost_matrix`]), and edges are priced
//! from the repository's column arena: each candidate's structural
//! penalty is an O(1) interval test on the targets' node shapes
//! ([`ObjectiveFunction::shape_edge_penalty`]), which must match the
//! parent-walking oracle [`ObjectiveFunction::edge_penalty`] bit for
//! bit. The [`ExhaustiveMatcher::direct`] constructor keeps the old
//! recompute-per-run evaluation — raw strings and `edge_penalty` — as a
//! benchmark baseline and score-identity reference.

use crate::cost_matrix::{CostMatrix, SchemaTable};
use crate::mapping::{Mapping, MappingRegistry};
use crate::matcher::Matcher;
use crate::objective::ObjectiveFunction;
use crate::problem::MatchProblem;
use smx_eval::{AnswerId, AnswerSet};
use smx_repo::{NodeShape, SchemaId};
use smx_xml::NodeId;

/// How a matcher obtains node costs and final mapping scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoringMode {
    /// Read from the problem's cached [`CostMatrix`] (the fast default).
    #[default]
    Precomputed,
    /// Recompute string similarity per run — the pre-engine behaviour,
    /// kept as the benchmark baseline and as an identity reference.
    Direct,
}

/// The exhaustive branch-and-bound matcher (the paper's S1).
#[derive(Debug, Clone, Default)]
pub struct ExhaustiveMatcher {
    objective: ObjectiveFunction,
    mode: ScoringMode,
}

impl ExhaustiveMatcher {
    /// Build with a shared objective function (matrix-backed scoring).
    pub fn new(objective: ObjectiveFunction) -> Self {
        ExhaustiveMatcher {
            objective,
            mode: ScoringMode::Precomputed,
        }
    }

    /// Build a matcher that bypasses the precomputed engine and evaluates
    /// the objective directly, as the seed implementation did.
    pub fn direct(objective: ObjectiveFunction) -> Self {
        ExhaustiveMatcher {
            objective,
            mode: ScoringMode::Direct,
        }
    }

    /// The scoring mode.
    pub fn mode(&self) -> ScoringMode {
        self.mode
    }

    /// Search one repository schema, appending `(id, score)` pairs.
    fn search_schema(
        &self,
        problem: &MatchProblem,
        sid: SchemaId,
        matrix: Option<&CostMatrix>,
        delta_max: f64,
        registry: &MappingRegistry,
        found: &mut Vec<(AnswerId, f64)>,
    ) {
        let k = problem.personal_size();
        let schema = problem.repository().schema(sid);
        if schema.len() < k {
            return;
        }
        // Matrix mode: indexed loads from the shared engine. Direct mode:
        // a fresh per-run table through the raw string path.
        let direct_table;
        let table: &SchemaTable = match matrix {
            Some(m) => m.table(sid),
            None => {
                direct_table = SchemaTable::compute_direct(problem, schema, &self.objective);
                &direct_table
            }
        };
        let denom =
            k as f64 + problem.personal_edges() as f64 * self.objective.config().structure_weight;
        let budget = delta_max * denom + 1e-12; // un-normalised cost budget
        let structure_weight = self.objective.config().structure_weight;

        let mut targets: Vec<usize> = vec![usize::MAX; k];
        let mut used = vec![false; schema.len()];

        struct Ctx<'a> {
            problem: &'a MatchProblem,
            objective: &'a ObjectiveFunction,
            matrix: Option<&'a CostMatrix>,
            schema: &'a smx_xml::Schema,
            /// The schema's node shapes in matrix mode; `None` prices
            /// edges through the oracle walk (direct mode).
            shapes: Option<&'a [NodeShape]>,
            sid: SchemaId,
            table: &'a SchemaTable,
            budget: f64,
            delta_max: f64,
            structure_weight: f64,
            registry: &'a MappingRegistry,
        }

        fn dfs(
            ctx: &Ctx<'_>,
            level: usize,
            partial: f64,
            targets: &mut Vec<usize>,
            used: &mut Vec<bool>,
            found: &mut Vec<(AnswerId, f64)>,
        ) {
            let k = targets.len();
            if level == k {
                let assignment: Vec<NodeId> = targets.iter().map(|&i| NodeId(i as u32)).collect();
                // Re-score through the shared code path so every matcher
                // reports bitwise-identical Δ for the same mapping (the
                // accumulated `partial` has a different summation order).
                let score = match ctx.matrix {
                    Some(m) => m.mapping_cost(ctx.problem, ctx.sid, &assignment),
                    None => ctx
                        .objective
                        .mapping_cost(ctx.problem, ctx.sid, &assignment),
                };
                if score <= ctx.delta_max {
                    let id = ctx.registry.intern(Mapping {
                        schema: ctx.sid,
                        targets: assignment,
                    });
                    found.push((id, score));
                }
                return;
            }
            let pid = ctx.problem.personal_order()[level];
            let parent = ctx.problem.personal().node(pid).parent;
            let suffix = ctx.table.suffix_min()[level + 1];
            let row = ctx.table.row(level);
            let parent_target = parent.map(|p| targets[p.index()]);
            for (cand, &node_cost) in row.iter().enumerate() {
                if used[cand] {
                    continue;
                }
                let mut step = node_cost;
                if let Some(pt) = parent_target {
                    let penalty = match ctx.shapes {
                        Some(shapes) => ctx.objective.shape_edge_penalty(shapes[pt], shapes[cand]),
                        None => ctx.objective.edge_penalty(
                            ctx.schema,
                            NodeId(pt as u32),
                            NodeId(cand as u32),
                        ),
                    };
                    step += ctx.structure_weight * penalty;
                }
                let lower_bound = partial + step + suffix;
                if lower_bound > ctx.budget {
                    continue; // admissible prune: no completion can reach δ_max
                }
                targets[level] = cand;
                used[cand] = true;
                dfs(ctx, level + 1, partial + step, targets, used, found);
                used[cand] = false;
                targets[level] = usize::MAX;
            }
        }

        let ctx = Ctx {
            problem,
            objective: &self.objective,
            matrix,
            schema,
            shapes: matrix.map(|_| problem.repository().store().schema_shapes(sid)),
            sid,
            table,
            budget,
            delta_max,
            structure_weight,
            registry,
        };
        dfs(&ctx, 0, 0.0, &mut targets, &mut used, found);
    }

    /// The matrix to search with (`None` in direct mode).
    fn engine(&self, problem: &MatchProblem) -> Option<std::sync::Arc<CostMatrix>> {
        match self.mode {
            ScoringMode::Precomputed => Some(problem.cost_matrix(&self.objective)),
            ScoringMode::Direct => None,
        }
    }
}

impl Matcher for ExhaustiveMatcher {
    fn name(&self) -> &str {
        "S1-exhaustive"
    }

    fn run(&self, problem: &MatchProblem, delta_max: f64, registry: &MappingRegistry) -> AnswerSet {
        let matrix = self.engine(problem);
        let mut found = Vec::new();
        for sid in problem.active_schema_ids() {
            self.search_schema(
                problem,
                sid,
                matrix.as_deref(),
                delta_max,
                registry,
                &mut found,
            );
        }
        AnswerSet::new(found).expect("finite costs, unique interned ids")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::BruteForceMatcher;
    use smx_repo::Repository;
    use smx_synth::{Scenario, ScenarioConfig};
    use smx_xml::{PrimitiveType, SchemaBuilder};

    fn small_problem() -> MatchProblem {
        let personal = SchemaBuilder::new("p")
            .root("book")
            .leaf("title", PrimitiveType::String)
            .leaf("year", PrimitiveType::Integer)
            .build();
        let mut repo = Repository::new();
        repo.add(
            SchemaBuilder::new("bib")
                .root("bibliography")
                .child("book", |b| {
                    b.leaf("title", PrimitiveType::String)
                        .leaf("year", PrimitiveType::Integer)
                        .leaf("price", PrimitiveType::Decimal)
                })
                .build(),
        );
        repo.add(
            SchemaBuilder::new("shop")
                .root("store")
                .child("order", |o| {
                    o.leaf("date", PrimitiveType::Date)
                        .leaf("total", PrimitiveType::Decimal)
                })
                .build(),
        );
        MatchProblem::new(personal, repo).unwrap()
    }

    #[test]
    fn agrees_with_brute_force_at_every_threshold() {
        let problem = small_problem();
        for delta_max in [0.1, 0.25, 0.4, 0.6, 1.0] {
            let reg_a = MappingRegistry::new();
            let reg_b = MappingRegistry::new();
            let fast = ExhaustiveMatcher::default().run(&problem, delta_max, &reg_a);
            let slow = BruteForceMatcher::default().run(&problem, delta_max, &reg_b);
            assert_eq!(fast.len(), slow.len(), "δ={delta_max}");
            // Same mappings with same scores (ids differ across registries,
            // so compare resolved mappings + scores).
            let mut a: Vec<(Mapping, f64)> = fast
                .answers()
                .iter()
                .map(|s| (reg_a.resolve(s.id).unwrap(), s.score))
                .collect();
            let mut b: Vec<(Mapping, f64)> = slow
                .answers()
                .iter()
                .map(|s| (reg_b.resolve(s.id).unwrap(), s.score))
                .collect();
            a.sort_by(|x, y| x.0.cmp(&y.0));
            b.sort_by(|x, y| x.0.cmp(&y.0));
            assert_eq!(a, b, "δ={delta_max}");
        }
    }

    #[test]
    fn best_answer_is_the_planted_mapping() {
        let problem = small_problem();
        let registry = MappingRegistry::new();
        let answers = ExhaustiveMatcher::default().run(&problem, 1.0, &registry);
        let best = answers.answers().first().unwrap();
        let mapping = registry.resolve(best.id).unwrap();
        assert_eq!(mapping.schema, SchemaId(0));
        // book→book(n1), title→title(n2), year→year(n3).
        assert_eq!(mapping.targets, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn monotone_in_threshold() {
        let problem = small_problem();
        let registry = MappingRegistry::new();
        let matcher = ExhaustiveMatcher::default();
        let small = matcher.run(&problem, 0.3, &registry);
        let large = matcher.run(&problem, 0.6, &registry);
        assert!(small.is_subset_of(&large).is_ok());
        assert!(small.scores_consistent_with(&large));
    }

    #[test]
    fn works_on_generated_scenarios() {
        let sc = Scenario::generate(ScenarioConfig {
            derived_schemas: 4,
            noise_schemas: 2,
            personal_nodes: 4,
            host_nodes: 8,
            ..Default::default()
        });
        let problem = MatchProblem::new(sc.personal.clone(), sc.repository.clone()).unwrap();
        let registry = MappingRegistry::new();
        let answers = ExhaustiveMatcher::default().run(&problem, 0.35, &registry);
        // The planted correct mappings score well: at least one correct
        // mapping appears among the answers.
        let correct_found = sc.correct.iter().any(|cm| {
            let mapping = Mapping {
                schema: cm.schema,
                targets: cm.targets.iter().map(|&(_, r)| r).collect(),
            };
            let id = registry.intern(mapping);
            answers.score_of(id).is_some()
        });
        assert!(correct_found, "no planted mapping retrieved at δ=0.35");
    }
}
