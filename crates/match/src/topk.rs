//! S2 variant: top-k early termination (Theobald et al. style, \[17\] in
//! the paper).
//!
//! Branch-and-bound like S1, but the pruning threshold *shrinks* as good
//! answers accumulate: once `k` answers are held, branches that cannot
//! beat the current k-th best score are cut. The result is exactly the
//! top-k of S1's ranking (ties at the boundary resolved by answer id),
//! so the answer-size ratio is 1 up to the k-th score and 0 beyond — the
//! sharpest possible ratio cliff.

use crate::mapping::{Mapping, MappingRegistry};
use crate::matcher::Matcher;
use crate::objective::ObjectiveFunction;
use crate::problem::MatchProblem;
use smx_eval::{AnswerId, AnswerSet};
use smx_xml::NodeId;
use std::collections::BinaryHeap;

/// Max-heap entry so the worst of the current top-k sits on top.
#[derive(PartialEq)]
struct Held {
    score: f64,
    id: AnswerId,
}

impl Eq for Held {}

impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Held {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Higher score = worse = greater; ties by id ascending so the
        // *larger* id is evicted first, matching AnswerSet's (score, id)
        // ranking.
        self.score
            .partial_cmp(&other.score)
            .expect("finite scores")
            .then(self.id.cmp(&other.id))
    }
}

/// Top-k early-termination matcher.
///
/// As the inner matcher of a
/// [`CertifiedMatcher`](crate::CertifiedMatcher), the dynamic budget
/// stays *global* across the surviving schemas, so the candidate
/// tier's pruning can promote deeper-ranked answers into the top k —
/// see the certified-matrix suite for what the certificate does and
/// does not claim here.
#[derive(Debug, Clone)]
pub struct TopKMatcher {
    objective: ObjectiveFunction,
    k: usize,
}

impl TopKMatcher {
    /// Build with a shared objective function and `k ≥ 1`.
    pub fn new(objective: ObjectiveFunction, k: usize) -> Self {
        TopKMatcher {
            objective,
            k: k.max(1),
        }
    }

    /// The result-list size.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Matcher for TopKMatcher {
    fn name(&self) -> &str {
        "S2-topk"
    }

    fn run(&self, problem: &MatchProblem, delta_max: f64, registry: &MappingRegistry) -> AnswerSet {
        let k = problem.personal_size();
        let matrix = problem.cost_matrix(&self.objective);
        let mut heap: BinaryHeap<Held> = BinaryHeap::new();
        for (sid, schema) in problem.repository().iter() {
            if schema.len() < k || !problem.is_active(sid) {
                continue;
            }
            let table = matrix.table(sid);
            let mut chosen: Vec<usize> = Vec::with_capacity(k);

            #[allow(clippy::too_many_arguments)]
            fn dfs(
                m: &TopKMatcher,
                problem: &MatchProblem,
                sid: smx_repo::SchemaId,
                shapes: &[smx_repo::NodeShape],
                matrix: &crate::cost_matrix::CostMatrix,
                table: &crate::cost_matrix::SchemaTable,
                delta_max: f64,
                registry: &MappingRegistry,
                partial: f64,
                chosen: &mut Vec<usize>,
                heap: &mut BinaryHeap<Held>,
            ) {
                let k = problem.personal_size();
                // Dynamic budget: δ_max, or the current k-th best score once
                // the heap is full.
                let dynamic = if heap.len() >= m.k {
                    heap.peek().expect("non-empty").score.min(delta_max)
                } else {
                    delta_max
                };
                let budget = dynamic * matrix.denom() + 1e-12;
                if chosen.len() == k {
                    let assignment: Vec<NodeId> =
                        chosen.iter().map(|&i| NodeId(i as u32)).collect();
                    let score = matrix.mapping_cost(problem, sid, &assignment);
                    if score <= delta_max {
                        let id = registry.intern(Mapping {
                            schema: sid,
                            targets: assignment,
                        });
                        heap.push(Held { score, id });
                        if heap.len() > m.k {
                            heap.pop();
                        }
                    }
                    return;
                }
                let level = chosen.len();
                let pid = problem.personal_order()[level];
                let parent = problem.personal().node(pid).parent;
                let suffix = table.suffix_min()[level + 1];
                let row = table.row(level);
                for (cand, &node_cost) in row.iter().enumerate() {
                    if chosen.contains(&cand) {
                        continue;
                    }
                    let mut step = node_cost;
                    if let Some(p) = parent {
                        step += m.objective.config().structure_weight
                            * m.objective
                                .shape_edge_penalty(shapes[chosen[p.index()]], shapes[cand]);
                    }
                    if partial + step + suffix > budget {
                        continue;
                    }
                    chosen.push(cand);
                    dfs(
                        m,
                        problem,
                        sid,
                        shapes,
                        matrix,
                        table,
                        delta_max,
                        registry,
                        partial + step,
                        chosen,
                        heap,
                    );
                    chosen.pop();
                }
            }
            dfs(
                self,
                problem,
                sid,
                problem.repository().store().schema_shapes(sid),
                &matrix,
                table,
                delta_max,
                registry,
                0.0,
                &mut chosen,
                &mut heap,
            );
        }
        AnswerSet::new(heap.into_iter().map(|h| (h.id, h.score)))
            .expect("finite costs, unique interned ids")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveMatcher;
    use smx_synth::{Scenario, ScenarioConfig};

    fn scenario_problem() -> MatchProblem {
        let sc = Scenario::generate(ScenarioConfig {
            derived_schemas: 4,
            noise_schemas: 2,
            personal_nodes: 4,
            host_nodes: 7,
            ..Default::default()
        });
        MatchProblem::new(sc.personal, sc.repository).unwrap()
    }

    #[test]
    fn returns_exactly_the_top_k_of_s1() {
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let s1 = ExhaustiveMatcher::default().run(&problem, 0.5, &registry);
        for k in [1, 5, 20, 100] {
            let s2 =
                TopKMatcher::new(ObjectiveFunction::default(), k).run(&problem, 0.5, &registry);
            assert_eq!(s2.len(), k.min(s1.len()), "k={k}");
            // Identical prefix: same ids and scores as S1's head.
            let expect = s1.top_n(k);
            assert_eq!(s2.answers(), expect, "k={k}");
        }
    }

    #[test]
    fn topk_is_subset_with_same_scores() {
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let s1 = ExhaustiveMatcher::default().run(&problem, 0.5, &registry);
        let s2 = TopKMatcher::new(ObjectiveFunction::default(), 10).run(&problem, 0.5, &registry);
        s2.is_subset_of(&s1).expect("top-k ⊆ exhaustive");
        assert!(s2.scores_consistent_with(&s1));
    }

    #[test]
    fn k_clamped_to_one() {
        assert_eq!(TopKMatcher::new(ObjectiveFunction::default(), 0).k(), 1);
    }
}
