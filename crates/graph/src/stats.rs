//! Per-label statistics catalog feeding the planner's cost model.
//!
//! RGL-style graph-centric planning (PAPERS.md) chooses operators from
//! catalog statistics rather than live scans. [`StatsCatalog`] is the
//! ChatGraph equivalent: one O(n + m) pass over a [`Graph`] records node
//! counts per label, edge counts per relation, and the degree moments that
//! predict kernel work (`Σ deg` for linear kernels, `Σ deg²` for
//! triangle-style kernels, `max deg` for skew). The planner's cost model
//! (`chatgraph-apis::cost`) turns these into per-step work estimates; it
//! never needs the graph itself.
//!
//! [`CatalogCache`] keeps one catalog per mutation epoch under the same
//! `Arc`-identity retirement rule as CSR snapshots: a hit proves the
//! statistics are still current, a mutation produces a new `Arc` and a
//! fresh one-pass rebuild.

use crate::graph::Graph;
use crate::version_cache::VersionCache;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One epoch's statistics: label/relation histograms plus degree moments.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsCatalog {
    /// Live node count.
    pub nodes: usize,
    /// Live edge count.
    pub edges: usize,
    /// Whether the graph is directed.
    pub directed: bool,
    /// `(label, count)` over live nodes, sorted by label.
    pub node_labels: Vec<(String, usize)>,
    /// `(relation, count)` over live edges, sorted by relation.
    pub edge_labels: Vec<(String, usize)>,
    /// `Σ total_degree` over live nodes (= 2m undirected, 2m directed).
    pub degree_sum: u64,
    /// `Σ total_degree²` — the second moment driving triangle/clustering
    /// cost and parallel-imbalance risk.
    pub degree_sum_sq: u64,
    /// Maximum total degree (hub size).
    pub max_degree: usize,
}

impl StatsCatalog {
    /// One pass over `g`'s live nodes and edges.
    pub fn build(g: &Graph) -> StatsCatalog {
        let mut node_labels: BTreeMap<String, usize> = BTreeMap::new();
        let (mut degree_sum, mut degree_sum_sq, mut max_degree) = (0u64, 0u64, 0usize);
        for v in g.node_ids() {
            if let Ok(l) = g.node_label(v) {
                *node_labels.entry(l.to_owned()).or_default() += 1;
            }
            let d = g.total_degree(v);
            degree_sum += d as u64;
            degree_sum_sq += (d as u64) * (d as u64);
            max_degree = max_degree.max(d);
        }
        let mut edge_labels: BTreeMap<String, usize> = BTreeMap::new();
        for e in g.edge_ids() {
            if let Ok(l) = g.edge_label(e) {
                *edge_labels.entry(l.to_owned()).or_default() += 1;
            }
        }
        StatsCatalog {
            nodes: g.node_count(),
            edges: g.edge_count(),
            directed: g.is_directed(),
            node_labels: node_labels.into_iter().collect(),
            edge_labels: edge_labels.into_iter().collect(),
            degree_sum,
            degree_sum_sq,
            max_degree,
        }
    }

    /// Live nodes carrying `label`.
    pub fn node_count(&self, label: &str) -> usize {
        match self.node_labels.binary_search_by(|(l, _)| l.as_str().cmp(label)) {
            Ok(i) => self.node_labels[i].1,
            Err(_) => 0,
        }
    }

    /// Live edges carrying relation `label`.
    pub fn edge_count(&self, label: &str) -> usize {
        match self.edge_labels.binary_search_by(|(l, _)| l.as_str().cmp(label)) {
            Ok(i) => self.edge_labels[i].1,
            Err(_) => 0,
        }
    }

    /// Mean total degree.
    pub fn avg_degree(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.degree_sum as f64 / self.nodes as f64
        }
    }

    /// `Σ deg² / n` — large relative to `avg_degree²` means hubs.
    pub fn degree_second_moment(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.degree_sum_sq as f64 / self.nodes as f64
        }
    }
}

/// An epoch cache of [`StatsCatalog`]s, keyed by `Arc<Graph>` identity —
/// the same retirement rule as [`crate::csr::CsrCache`], from the same
/// crate-private `version_cache` module.
#[derive(Debug)]
pub struct CatalogCache(VersionCache<StatsCatalog>);

impl Default for CatalogCache {
    fn default() -> Self {
        CatalogCache::new(4)
    }
}

impl CatalogCache {
    /// Creates a cache holding up to `capacity` catalogs (minimum 1).
    pub fn new(capacity: usize) -> CatalogCache {
        CatalogCache(VersionCache::new(capacity))
    }

    /// Returns the catalog for `g`'s epoch, building it on a miss.
    pub fn get_or_build(&self, g: &Arc<Graph>) -> Arc<StatsCatalog> {
        self.0.get_or_build(g, |_| StatsCatalog::build(g))
    }

    /// Drops the catalog cached for `g` (pointer identity), returning
    /// whether one was present — see [`crate::csr::CsrCache::invalidate`].
    pub fn invalidate(&self, g: &Arc<Graph>) -> bool {
        self.0.invalidate(g)
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        self.0.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{knowledge_graph, KgParams};
    use crate::GraphBuilder;

    #[test]
    fn catalog_counts_labels_relations_and_moments() {
        let mut g = GraphBuilder::directed()
            .edge("a", "b", "knows")
            .edge("a", "c", "knows")
            .edge("b", "c", "likes")
            .build();
        g.set_node_label(crate::graph::NodeId(0), "Person").expect("live node");
        let cat = StatsCatalog::build(&g);
        assert_eq!(cat.nodes, 3);
        assert_eq!(cat.edges, 3);
        assert_eq!(cat.node_count("Person"), 1);
        assert_eq!(cat.edge_count("knows"), 2);
        assert_eq!(cat.edge_count("likes"), 1);
        assert_eq!(cat.edge_count("absent"), 0);
        // degrees (out+in): a=2, b=2, c=2 → sum 6, sum² 12, max 2.
        assert_eq!(cat.degree_sum, 6);
        assert_eq!(cat.degree_sum_sq, 12);
        assert_eq!(cat.max_degree, 2);
        assert_eq!(cat.avg_degree(), 2.0);
    }

    #[test]
    fn kg_catalog_matches_schema_counts() {
        let p = KgParams::default();
        let g = knowledge_graph(&p, 4);
        let cat = StatsCatalog::build(&g);
        assert_eq!(cat.node_count("Person"), p.persons);
        assert_eq!(cat.node_count("City"), p.cities);
        assert_eq!(cat.edge_count("lives_in"), p.persons);
        assert_eq!(cat.edge_count("nationality"), p.persons);
        assert!(cat.max_degree as f64 > cat.avg_degree(), "cities/countries are hubs");
    }

    #[test]
    fn cache_hits_same_epoch_and_rebuilds_after_cow() {
        let cache = CatalogCache::default();
        let mut g = Arc::new(GraphBuilder::undirected().edge("a", "b", "-").build());
        let first = cache.get_or_build(&g);
        let again = cache.get_or_build(&g);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(cache.stats(), (1, 1));

        Arc::make_mut(&mut g).add_node("c");
        let rebuilt = cache.get_or_build(&g);
        assert_eq!(rebuilt.nodes, 3);
        assert_eq!(cache.stats(), (1, 2));
    }
}
