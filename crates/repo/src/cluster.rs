//! Element clustering over a repository.
//!
//! [`greedy_clustering`] is single-pass leader clustering: each element
//! joins the most similar cluster whose centroid is at least `threshold`
//! similar, else founds a new one. `O(n·c)`; this is the rough-but-fast
//! method a scalable matcher uses online. Clusters are ranked against a
//! query with [`Clustering::rank_against`].

use crate::feature::{element_features, ElementFeatures};
use crate::repository::{ElementRef, Repository};
use serde::{Deserialize, Serialize};

/// One cluster: members plus their centroid feature bag.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Cluster {
    /// The elements in this cluster.
    pub members: Vec<ElementRef>,
    /// Sum of member feature bags (cosine against it acts as an
    /// average-linkage approximation).
    pub centroid: ElementFeatures,
}

impl Cluster {
    fn singleton(eref: ElementRef, features: ElementFeatures) -> Self {
        Cluster {
            members: vec![eref],
            centroid: features,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// A complete clustering of a repository's elements.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Clustering {
    clusters: Vec<Cluster>,
}

impl Clustering {
    /// The clusters, in construction order.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Total elements across clusters.
    pub fn total_members(&self) -> usize {
        self.clusters.iter().map(Cluster::len).sum()
    }

    /// Rank cluster indices by centroid similarity to `query`, best first.
    pub fn rank_against(&self, query: &ElementFeatures) -> Vec<(usize, f64)> {
        let mut ranked: Vec<(usize, f64)> = self
            .clusters
            .iter()
            .enumerate()
            .map(|(i, c)| (i, query.cosine(&c.centroid)))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        ranked
    }
}

/// Single-pass leader clustering at a similarity `threshold` in `[0, 1]`.
pub fn greedy_clustering(repo: &Repository, threshold: f64) -> Clustering {
    let mut clusters: Vec<Cluster> = Vec::new();
    for eref in repo.elements() {
        let features = element_features(repo, eref);
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in clusters.iter().enumerate() {
            let sim = features.cosine(&c.centroid);
            if sim >= threshold && best.is_none_or(|(_, b)| sim > b) {
                best = Some((i, sim));
            }
        }
        match best {
            Some((i, _)) => {
                clusters[i].members.push(eref);
                clusters[i].centroid.merge(&features);
            }
            None => clusters.push(Cluster::singleton(eref, features)),
        }
    }
    Clustering { clusters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::query_features;
    use smx_xml::{PrimitiveType, SchemaBuilder};

    /// Two clearly-separated topic groups: book-ish and order-ish names.
    fn repo() -> Repository {
        let mut r = Repository::new();
        r.add(
            SchemaBuilder::new("bib")
                .root("bib")
                .child("book", |b| {
                    b.leaf("bookTitle", PrimitiveType::String)
                        .leaf("bookAuthor", PrimitiveType::String)
                })
                .build(),
        );
        r.add(
            SchemaBuilder::new("shop")
                .root("shop")
                .child("order", |o| {
                    o.leaf("orderDate", PrimitiveType::Date)
                        .leaf("orderTotal", PrimitiveType::Decimal)
                })
                .build(),
        );
        r
    }

    #[test]
    fn greedy_covers_every_element_once() {
        let r = repo();
        let clustering = greedy_clustering(&r, 0.3);
        assert_eq!(clustering.total_members(), r.total_elements());
        // No element in two clusters.
        let mut seen: Vec<ElementRef> = clustering
            .clusters()
            .iter()
            .flat_map(|c| c.members.iter().copied())
            .collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), r.total_elements());
    }

    #[test]
    fn greedy_threshold_extremes() {
        let r = repo();
        // Threshold 0 keeps everything joinable: few clusters.
        let loose = greedy_clustering(&r, 0.0);
        // Threshold just above 1 is unreachable: all singletons.
        let strict = greedy_clustering(&r, 1.01);
        assert_eq!(strict.len(), r.total_elements());
        assert!(loose.len() <= strict.len());
    }

    #[test]
    fn ranking_prefers_matching_topic() {
        let r = repo();
        let clustering = greedy_clustering(&r, 0.3);
        assert!(clustering.len() >= 2);
        let q = query_features(&["book", "title", "author"]);
        let ranked = clustering.rank_against(&q);
        let top = &clustering.clusters()[ranked[0].0];
        assert!(top
            .members
            .iter()
            .any(|&m| r.element_name(m) == "bookTitle"));
        assert!(ranked[0].1 > ranked[1].1);
    }

    #[test]
    fn empty_repository_clusters() {
        let r = Repository::new();
        assert!(greedy_clustering(&r, 0.5).is_empty());
    }
}
