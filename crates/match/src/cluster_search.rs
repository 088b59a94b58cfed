//! S2 variant: cluster-restricted search (\[16\] in the paper — the system
//! the bounds technique was developed for).
//!
//! Repository elements are clustered by name/context features; clusters
//! are ranked against the personal schema's tokens; only the top
//! `fragments` clusters' elements remain allowed as mapping targets.
//! Schemas with no selected cluster member are skipped wholesale, which is
//! where the speed-up comes from — and why whole *score bands* of answers
//! disappear at once: the **step-shaped ratio curve** of Figure 10's
//! S2-two.

use crate::mapping::{Mapping, MappingRegistry};
use crate::matcher::Matcher;
use crate::objective::ObjectiveFunction;
use crate::problem::MatchProblem;
use smx_eval::{AnswerId, AnswerSet};
use smx_repo::{fragments_for_clusters, greedy_clustering, query_features, Fragment};
use smx_xml::NodeId;

/// Cluster-restricted matcher.
///
/// As the inner matcher of a
/// [`CertifiedMatcher`](crate::CertifiedMatcher), cluster ranking stays
/// global (it reads the whole repository); the candidate tier only
/// decides which fragments may answer.
#[derive(Debug, Clone)]
pub struct ClusterMatcher {
    objective: ObjectiveFunction,
    /// Greedy-clustering similarity threshold.
    cluster_threshold: f64,
    /// How many top-ranked clusters stay searchable.
    fragments: usize,
}

impl ClusterMatcher {
    /// Build with a shared objective function, a clustering threshold in
    /// `[0, 1]`, and the number of top clusters to search.
    pub fn new(objective: ObjectiveFunction, cluster_threshold: f64, fragments: usize) -> Self {
        ClusterMatcher {
            objective,
            cluster_threshold: cluster_threshold.clamp(0.0, 1.0),
            fragments: fragments.max(1),
        }
    }

    /// Number of clusters searched.
    pub fn fragments(&self) -> usize {
        self.fragments
    }
}

impl Matcher for ClusterMatcher {
    fn name(&self) -> &str {
        "S2-cluster"
    }

    fn run(&self, problem: &MatchProblem, delta_max: f64, registry: &MappingRegistry) -> AnswerSet {
        let repo = problem.repository();
        let personal = problem.personal();
        // 1. Cluster the repository and rank clusters against the query.
        let clustering = greedy_clustering(repo, self.cluster_threshold);
        let names: Vec<&str> = personal
            .node_ids()
            .map(|id| personal.node(id).name.as_str())
            .collect();
        let query = query_features(&names);
        let ranked = clustering.rank_against(&query);
        let selected: Vec<usize> = ranked
            .iter()
            .take(self.fragments)
            .map(|&(i, _)| i)
            .collect();
        let fragments: Vec<Fragment> = fragments_for_clusters(repo, &clustering, &selected);

        // 2. Exhaustively search each fragment's schema with targets
        //    restricted to the fragment cover. Scores come from the
        //    problem's precomputed cost matrix (fragment covers are plain
        //    index subsets of it).
        let k = problem.personal_size();
        let matrix = problem.cost_matrix(&self.objective);
        let mut found: Vec<(AnswerId, f64)> = Vec::new();
        for fragment in &fragments {
            if !problem.is_active(fragment.schema) {
                continue;
            }
            let nodes: Vec<NodeId> = fragment.cover.iter().copied().collect();
            if nodes.len() < k {
                continue;
            }
            let mut chosen: Vec<usize> = Vec::with_capacity(k);
            search(
                problem,
                &matrix,
                fragment,
                &nodes,
                delta_max,
                registry,
                &mut chosen,
                &mut found,
            );

            #[allow(clippy::too_many_arguments)]
            fn search(
                problem: &MatchProblem,
                matrix: &crate::cost_matrix::CostMatrix,
                fragment: &Fragment,
                nodes: &[NodeId],
                delta_max: f64,
                registry: &MappingRegistry,
                chosen: &mut Vec<usize>,
                found: &mut Vec<(AnswerId, f64)>,
            ) {
                let k = problem.personal_size();
                if chosen.len() == k {
                    let assignment: Vec<NodeId> = chosen.iter().map(|&i| nodes[i]).collect();
                    let score = matrix.mapping_cost(problem, fragment.schema, &assignment);
                    if score <= delta_max {
                        let id = registry.intern(Mapping {
                            schema: fragment.schema,
                            targets: assignment,
                        });
                        found.push((id, score));
                    }
                    return;
                }
                for cand in 0..nodes.len() {
                    if chosen.contains(&cand) {
                        continue;
                    }
                    chosen.push(cand);
                    search(
                        problem, matrix, fragment, nodes, delta_max, registry, chosen, found,
                    );
                    chosen.pop();
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
            derived_schemas: 4,
            noise_schemas: 3,
            personal_nodes: 4,
            host_nodes: 7,
            ..Default::default()
        });
        MatchProblem::new(sc.personal, sc.repository).unwrap()
    }

    #[test]
    fn cluster_matcher_is_subset_of_exhaustive() {
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let s1 = ExhaustiveMatcher::default().run(&problem, 0.45, &registry);
        for fragments in [1, 3, 8] {
            let s2 = ClusterMatcher::new(ObjectiveFunction::default(), 0.5, fragments)
                .run(&problem, 0.45, &registry);
            s2.is_subset_of(&s1).expect("cluster ⊆ exhaustive");
            assert!(s2.scores_consistent_with(&s1), "fragments {fragments}");
        }
    }

    #[test]
    fn more_fragments_find_no_fewer_answers() {
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let few = ClusterMatcher::new(ObjectiveFunction::default(), 0.5, 1)
            .run(&problem, 0.45, &registry);
        let many = ClusterMatcher::new(ObjectiveFunction::default(), 0.5, 10)
            .run(&problem, 0.45, &registry);
        assert!(few.len() <= many.len());
    }

    #[test]
    fn restriction_actually_restricts() {
        let problem = scenario_problem();
        let registry = MappingRegistry::new();
        let s1 = ExhaustiveMatcher::default().run(&problem, 0.45, &registry);
        let s2 = ClusterMatcher::new(ObjectiveFunction::default(), 0.6, 1)
            .run(&problem, 0.45, &registry);
        assert!(
            s2.len() < s1.len(),
            "one fragment should lose answers ({} vs {})",
            s2.len(),
            s1.len()
        );
    }

    #[test]
    fn parameters_clamped() {
        let m = ClusterMatcher::new(ObjectiveFunction::default(), 2.0, 0);
        assert_eq!(m.fragments(), 1);
    }
}
