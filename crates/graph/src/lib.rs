//! # chatgraph-graph
//!
//! Property-graph substrate for the ChatGraph reproduction.
//!
//! ChatGraph (ICDE 2024) lets users chat with graphs: prompts carry a graph
//! `G = (V, E)` alongside natural-language text. This crate provides the graph
//! data model every other crate builds on:
//!
//! * [`Graph`] — a labelled, attributed graph (directed or undirected) with
//!   stable node/edge ids and tombstone-based removal, so graph-edit APIs can
//!   mutate a graph without invalidating ids held by an executing API chain.
//! * [`builder::GraphBuilder`] — fluent construction.
//! * [`io`] — plain-text edge-list and JSON (de)serialisation; [`binary`] —
//!   a compact length-prefixed binary format for graph databases.
//! * [`generators`] — seeded generators for the graph families the paper's
//!   demo scenarios use: Erdős–Rényi / Barabási–Albert synthetic graphs,
//!   planted-partition *social networks*, valence-constrained *molecules*, and
//!   rule-based *knowledge graphs* with injected noise.
//! * [`algo`] — the graph algorithms backing the analysis APIs: traversal,
//!   components, shortest paths, statistics, community detection, centrality,
//!   k-core, triangles, subgraph isomorphism (VF2) and motif census.
//!
//! All randomised code takes an explicit seed and is deterministic.
//!
//! ```
//! use chatgraph_graph::prelude::*;
//!
//! let g = generators::social_network(&SocialParams::default(), 7);
//! let comms = algo::community::label_propagation(&g, 42);
//! assert!(comms.num_communities() >= 1);
//! ```

pub mod algo;
pub mod attr;
pub mod binary;
pub mod builder;
pub mod csr;
pub mod delta;
pub mod generators;
pub mod graph;
pub mod io;
pub mod kernels;
pub mod stats;
mod version_cache;

pub use attr::{AttrValue, Attrs};
pub use builder::GraphBuilder;
pub use csr::{CsrCache, CsrGraph};
pub use graph::{Direction, EdgeId, Graph, GraphError, NodeId};
pub use kernels::{ChunkStrategy, KernelPolicy};
pub use stats::{CatalogCache, StatsCatalog};

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::algo;
    pub use crate::attr::{AttrValue, Attrs};
    pub use crate::builder::GraphBuilder;
    pub use crate::csr::{CsrCache, CsrGraph};
    pub use crate::kernels::{self, ChunkStrategy, KernelPolicy};
    pub use crate::stats::{CatalogCache, StatsCatalog};
    pub use crate::generators::{
        self, BaParams, ErParams, KgParams, MoleculeParams, SocialParams,
    };
    pub use crate::graph::{Direction, EdgeId, Graph, GraphError, NodeId};
    pub use crate::io;
}
