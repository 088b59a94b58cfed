//! S2 variant: per-schema beam search (the iMap-style improvement the
//! paper cites as a non-exhaustive system keeping the objective function).
//!
//! Assignment proceeds level-by-level over the personal nodes; at each
//! level only the `width` best partial assignments (by accumulated
//! partial cost) survive. Cheap answers are almost always found — partial
//! costs of good mappings stay at the front of the beam — while expensive
//! answers are lost with increasing probability: the **smoothly declining
//! answer-size-ratio curve** of Figure 10's S2-one.

use crate::mapping::{Mapping, MappingRegistry};
use crate::matcher::Matcher;
use crate::objective::ObjectiveFunction;
use crate::problem::MatchProblem;
use smx_eval::{AnswerId, AnswerSet};
use smx_xml::NodeId;

/// Beam-search matcher with a fixed beam width per schema.
#[derive(Debug, Clone)]
pub struct BeamMatcher {
    objective: ObjectiveFunction,
    width: usize,
}

impl BeamMatcher {
    /// Build with a shared objective function and beam `width ≥ 1`.
    pub fn new(objective: ObjectiveFunction, width: usize) -> Self {
        BeamMatcher {
            objective,
            width: width.max(1),
        }
    }

    /// The beam width.
    pub fn width(&self) -> usize {
        self.width
    }
}

impl BeamMatcher {
    /// Lift into a terminal [`pipeline`](crate::pipeline) refine stage.
    /// To use the beam as an *intermediate* filter instead — keep only
    /// schemas where the beam finds an answer, then refine those
    /// exhaustively — compose a
    /// [`BeamFilter`](crate::pipeline::BeamFilter) stage, which charges
    /// the certificate for the schemas it drops.
    pub fn into_refine_stage(self) -> crate::pipeline::RefineStage<Self> {
        crate::pipeline::RefineStage::new(self)
    }
}

impl Matcher for BeamMatcher {
    fn name(&self) -> &str {
        "S2-beam"
    }

    fn run(&self, problem: &MatchProblem, delta_max: f64, registry: &MappingRegistry) -> AnswerSet {
        let k = problem.personal_size();
        let personal = problem.personal();
        let matrix = problem.cost_matrix(&self.objective);
        let mut found: Vec<(AnswerId, f64)> = Vec::new();
        for (sid, schema) in problem.repository().iter() {
            let n = schema.len();
            if n < k || !problem.is_active(sid) {
                continue;
            }
            let table = matrix.table(sid);
            let shapes = problem.repository().store().schema_shapes(sid);
            // Beam of partial assignments: (partial cost, chosen indices).
            let mut beam: Vec<(f64, Vec<usize>)> = vec![(0.0, Vec::new())];
            for level in 0..k {
                let pid = problem.personal_order()[level];
                let parent = personal.node(pid).parent;
                let row = table.row(level);
                let mut next: Vec<(f64, Vec<usize>)> = Vec::new();
                for (partial, chosen) in &beam {
                    for (cand, &node_cost) in row.iter().enumerate() {
                        if chosen.contains(&cand) {
                            continue; // injectivity
                        }
                        let mut step = node_cost;
                        if let Some(p) = parent {
                            step += self.objective.config().structure_weight
                                * self
                                    .objective
                                    .shape_edge_penalty(shapes[chosen[p.index()]], shapes[cand]);
                        }
                        let mut extended = chosen.clone();
                        extended.push(cand);
                        next.push((partial + step, extended));
                    }
                }
                next.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
                next.truncate(self.width);
                beam = next;
                if beam.is_empty() {
                    break;
                }
            }
            for (_, chosen) in beam {
                if chosen.len() != k {
                    continue;
                }
                let assignment: Vec<NodeId> = chosen.iter().map(|&i| NodeId(i as u32)).collect();
                // Shared scoring path ⇒ identical Δ as S1 for this mapping.
                let score = matrix.mapping_cost(problem, sid, &assignment);
                if score <= delta_max {
                    let id = registry.intern(Mapping {
                        schema: sid,
                        targets: assignment,
                    });
                    found.push((id, score));
                }
            }
        }
        AnswerSet::new(found).expect("finite costs, unique interned ids")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveMatcher;
    use smx_synth::{Scenario, ScenarioConfig};

    fn scenario_problem() -> MatchProblem {
        let sc = Scenario::generate(ScenarioConfig {
            derived_schemas: 5,
            noise_schemas: 3,
            personal_nodes: 4,
            host_nodes: 8,
            ..Default::default()
        });
        MatchProblem::new(sc.personal, sc.repository).unwrap()
    }

    #[test]
    fn beam_is_subset_of_exhaustive_with_same_scores() {
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let s1 = ExhaustiveMatcher::default().run(&problem, 0.5, &registry);
        for width in [1, 4, 16, 64] {
            let s2 =
                BeamMatcher::new(ObjectiveFunction::default(), width).run(&problem, 0.5, &registry);
            s2.is_subset_of(&s1).expect("beam ⊆ exhaustive");
            assert!(s2.scores_consistent_with(&s1), "width {width}");
        }
    }

    #[test]
    fn wider_beams_find_no_fewer_answers() {
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let narrow =
            BeamMatcher::new(ObjectiveFunction::default(), 2).run(&problem, 0.5, &registry);
        let wide = BeamMatcher::new(ObjectiveFunction::default(), 32).run(&problem, 0.5, &registry);
        assert!(narrow.len() <= wide.len());
    }

    #[test]
    fn huge_beam_equals_exhaustive_on_tiny_problem() {
        // With a beam wider than the whole level, nothing is cut.
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let s1 = ExhaustiveMatcher::default().run(&problem, 0.3, &registry);
        let s2 =
            BeamMatcher::new(ObjectiveFunction::default(), 100_000).run(&problem, 0.3, &registry);
        assert_eq!(s1.len(), s2.len());
    }

    #[test]
    fn best_answers_survive_narrow_beams() {
        // The top-ranked S1 answer should be found even by a narrow beam —
        // the paper's observation that the top of the ranking is reliable.
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let s1 = ExhaustiveMatcher::default().run(&problem, 0.5, &registry);
        let s2 = BeamMatcher::new(ObjectiveFunction::default(), 8).run(&problem, 0.5, &registry);
        if let Some(best) = s1.answers().first() {
            assert!(
                s2.score_of(best.id).is_some(),
                "beam(8) lost the top-ranked answer"
            );
        }
    }

    #[test]
    fn width_clamped_to_one() {
        assert_eq!(BeamMatcher::new(ObjectiveFunction::default(), 0).width(), 1);
    }
}
