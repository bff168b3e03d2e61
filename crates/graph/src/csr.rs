//! Compressed sparse row (CSR) snapshots of a [`Graph`].
//!
//! The mutable [`Graph`] stores adjacency as `Vec<Vec<(NodeId, EdgeId)>>`
//! with tombstoned slots — flexible for the edit APIs, but pointer-chasing
//! and tombstone-skipping on every analysis call. [`CsrGraph`] is an
//! immutable, cache-friendly snapshot of the *live* structure:
//!
//! * a dense remap of live nodes (`node_of` / `dense_of`), so kernels index
//!   flat arrays with no tombstone checks;
//! * out-adjacency as per-row `(start, len)` tables over contiguous target /
//!   edge-id slabs, sorted per node by ascending dense target (ties by edge
//!   id);
//! * for directed graphs, an in-CSR of the same shape plus a merged,
//!   deduplicated *undirected view* (the traversal algorithms in
//!   [`crate::algo`] treat directed graphs as undirected);
//! * a per-node degree array for O(1) stat scans.
//!
//! # Delta snapshots
//!
//! Each adjacency family is a row table over *two* slabs: an immutable
//! `Arc`'d **base** slab and a small owned **patch** slab. A fresh
//! [`CsrGraph::build`] puts every row in the base slab. A small edit (edge
//! add/remove, node append, relabel) goes through
//! [`CsrGraph::build_delta`], which re-splices only the touched rows into a
//! new patch while untouched rows keep pointing into the shared base slab —
//! no O(n + m) repack. Deltas chain across epochs (the patch is
//! consolidated each time); once the touched set or the accumulated patch
//! grows past a bloat threshold, `build_delta` declines and the caller
//! falls back to a full rebuild, which resets the slabs. Structural changes
//! the dense remap cannot absorb (node removal) always decline.
//!
//! A snapshot is built once per *mutation epoch* and cached in
//! [`CsrCache`], keyed by `Arc<Graph>` pointer identity under the same
//! retirement rule as the statistics catalogs (the crate-private
//! `version_cache` module). On a miss the cache first tries `build_delta`
//! against each resident entry (the cache retains each entry's
//! `Arc<Graph>`, so the pre-edit graph is still readable), and only then
//! pays for a full rebuild.

use crate::graph::{EdgeId, Graph, NodeId, StructEdit};
use crate::version_cache::VersionCache;
use std::sync::Arc;
use std::time::Instant;

/// Dense id of a live node inside a [`CsrGraph`].
pub type DenseId = u32;

const NO_DENSE: u32 = u32::MAX;

/// Declining thresholds for [`CsrGraph::build_delta`]: a delta that would
/// re-splice more than `n/8 + 64` rows, or whose consolidated patch would
/// exceed half the base slab (plus slack), is worse than a rebuild.
const DELTA_TOUCH_DIVISOR: usize = 8;
const DELTA_TOUCH_SLACK: usize = 64;
const DELTA_PATCH_SLACK: usize = 1024;

/// One adjacency family (out / in / undirected view) in row-table form:
/// row `d` occupies `start[d] .. start[d] + len[d]` of either the shared
/// base slab or the owned patch slab, selected by `in_patch[d]`.
#[derive(Debug, Clone)]
struct Adjacency {
    start: Vec<u32>,
    len: Vec<u32>,
    in_patch: Vec<bool>,
    base_targets: Arc<Vec<u32>>,
    /// Parallel to `base_targets`; empty for the undirected view (which
    /// carries no edge ids).
    base_edges: Arc<Vec<EdgeId>>,
    patch_targets: Vec<u32>,
    patch_edges: Vec<EdgeId>,
}

impl Adjacency {
    fn empty() -> Adjacency {
        Adjacency {
            start: Vec::new(),
            len: Vec::new(),
            in_patch: Vec::new(),
            base_targets: Arc::new(Vec::new()),
            base_edges: Arc::new(Vec::new()),
            patch_targets: Vec::new(),
            patch_edges: Vec::new(),
        }
    }

    /// Converts a freshly packed `offsets`/`targets`/`edges` triple into
    /// row-table form with everything in the base slab.
    fn from_packed(offsets: &[u32], targets: Vec<u32>, edges: Vec<EdgeId>) -> Adjacency {
        let n = offsets.len().saturating_sub(1);
        let mut start = Vec::with_capacity(n);
        let mut len = Vec::with_capacity(n);
        for d in 0..n {
            start.push(offsets[d]);
            len.push(offsets[d + 1] - offsets[d]);
        }
        Adjacency {
            start,
            len,
            in_patch: vec![false; n],
            base_targets: Arc::new(targets),
            base_edges: Arc::new(edges),
            patch_targets: Vec::new(),
            patch_edges: Vec::new(),
        }
    }

    fn targets(&self, d: usize) -> &[u32] {
        let (s, l) = (self.start[d] as usize, self.len[d] as usize);
        if self.in_patch[d] {
            &self.patch_targets[s..s + l]
        } else {
            &self.base_targets[s..s + l]
        }
    }

    fn edge_ids(&self, d: usize) -> &[EdgeId] {
        let (s, l) = (self.start[d] as usize, self.len[d] as usize);
        if self.in_patch[d] {
            &self.patch_edges[s..s + l]
        } else {
            &self.base_edges[s..s + l]
        }
    }

    /// Re-splices this family for a new epoch: `touched` rows (sorted dense
    /// ids under the *new* numbering) are recomputed via `row`, rows already
    /// in this family's patch are consolidated into the new patch, and
    /// every other row keeps sharing the base slab. `with_edges` is false
    /// for the undirected view.
    fn splice(
        &self,
        n_new: usize,
        touched: &[u32],
        with_edges: bool,
        mut row: impl FnMut(u32, &mut Vec<u32>, &mut Vec<EdgeId>),
    ) -> Adjacency {
        let n_old = self.start.len();
        let mut start = self.start.clone();
        let mut len = self.len.clone();
        let mut in_patch = self.in_patch.clone();
        start.resize(n_new, 0);
        len.resize(n_new, 0);
        in_patch.resize(n_new, false);
        let mut patch_targets = Vec::new();
        let mut patch_edges = Vec::new();
        let (mut tbuf, mut ebuf) = (Vec::new(), Vec::new());
        let mut ti = 0;
        for d in 0..n_new {
            let is_touched = ti < touched.len() && touched[ti] as usize == d;
            if is_touched {
                ti += 1;
                tbuf.clear();
                ebuf.clear();
                row(d as u32, &mut tbuf, &mut ebuf);
                start[d] = patch_targets.len() as u32;
                len[d] = tbuf.len() as u32;
                in_patch[d] = true;
                patch_targets.extend_from_slice(&tbuf);
                if with_edges {
                    patch_edges.extend_from_slice(&ebuf);
                }
            } else if d < n_old && self.in_patch[d] {
                // Carried over from the previous epoch's patch: re-home so
                // the old patch slab can be dropped with the old snapshot.
                let (s, l) = (self.start[d] as usize, self.len[d] as usize);
                start[d] = patch_targets.len() as u32;
                patch_targets.extend_from_slice(&self.patch_targets[s..s + l]);
                if with_edges {
                    patch_edges.extend_from_slice(&self.patch_edges[s..s + l]);
                }
            }
            // Untouched base row: cloned start/len already point into the
            // shared base slab.
        }
        Adjacency {
            start,
            len,
            in_patch,
            base_targets: Arc::clone(&self.base_targets),
            base_edges: Arc::clone(&self.base_edges),
            patch_targets,
            patch_edges,
        }
    }

    /// Whether the consolidated patch has outgrown its keep: past this the
    /// per-epoch splice copies rival a rebuild and memory creeps.
    fn patch_bloated(&self) -> bool {
        self.patch_targets.len() * 2 > self.base_targets.len() + DELTA_PATCH_SLACK
    }
}

/// An immutable CSR snapshot of a graph's live structure.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    directed: bool,
    node_bound: usize,
    edge_bound: usize,
    /// Dense id → original node id, ascending.
    node_of: Vec<NodeId>,
    /// Original slot index → dense id (`u32::MAX` for removed slots).
    dense_of: Vec<u32>,
    out: Adjacency,
    /// Directed only; zero rows for undirected graphs (the out-CSR already
    /// stores each edge under both endpoints).
    inn: Adjacency,
    /// Undirected view: merged out ∪ in targets, sorted and deduplicated.
    /// For undirected graphs this aliases the out-CSR (no copy is kept).
    undv: Adjacency,
    live_edges: usize,
    /// True when this snapshot was produced by [`CsrGraph::build_delta`]
    /// (some rows live in a patch slab). Representation detail — excluded
    /// from equality.
    patched: bool,
}

/// Logical equality: two snapshots are equal when every accessor agrees,
/// regardless of how rows are split between base and patch slabs.
impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        if self.directed != other.directed
            || self.node_bound != other.node_bound
            || self.edge_bound != other.edge_bound
            || self.live_edges != other.live_edges
            || self.node_of != other.node_of
            || self.dense_of != other.dense_of
        {
            return false;
        }
        (0..self.n() as u32).all(|d| {
            self.out(d) == other.out(d)
                && self.out_edge_ids(d) == other.out_edge_ids(d)
                && self.incoming(d) == other.incoming(d)
                && self.incoming_edge_ids(d) == other.incoming_edge_ids(d)
                && self.und(d) == other.und(d)
        })
    }
}

impl Eq for CsrGraph {}

impl CsrGraph {
    /// Builds a snapshot of `g`'s live nodes and edges.
    pub fn build(g: &Graph) -> CsrGraph {
        let node_of: Vec<NodeId> = g.node_ids().collect();
        let n = node_of.len();
        let mut dense_of = vec![NO_DENSE; g.node_bound()];
        for (d, v) in node_of.iter().enumerate() {
            dense_of[v.index()] = d as u32;
        }

        let mut scratch: Vec<(u32, EdgeId)> = Vec::new();
        let pack = |iter: &mut dyn Iterator<Item = (NodeId, EdgeId)>,
                    scratch: &mut Vec<(u32, EdgeId)>,
                    offsets: &mut Vec<u32>,
                    targets: &mut Vec<u32>,
                    edges: &mut Vec<EdgeId>,
                    dense_of: &[u32]| {
            scratch.clear();
            for (w, e) in iter {
                scratch.push((dense_of[w.index()], e));
            }
            scratch.sort_unstable_by_key(|&(t, e)| (t, e.0));
            for &(t, e) in scratch.iter() {
                targets.push(t);
                edges.push(e);
            }
            offsets.push(targets.len() as u32);
        };

        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_targets = Vec::new();
        let mut out_edges = Vec::new();
        out_offsets.push(0);
        for &v in &node_of {
            pack(
                &mut g.neighbors(v),
                &mut scratch,
                &mut out_offsets,
                &mut out_targets,
                &mut out_edges,
                &dense_of,
            );
        }
        let out = Adjacency::from_packed(&out_offsets, out_targets, out_edges);

        let (mut inn, mut undv) = (Adjacency::empty(), Adjacency::empty());
        if g.is_directed() {
            let mut in_offsets = Vec::with_capacity(n + 1);
            let mut in_targets = Vec::new();
            let mut in_edges = Vec::new();
            in_offsets.push(0);
            for &v in &node_of {
                pack(
                    &mut g.in_neighbors(v),
                    &mut scratch,
                    &mut in_offsets,
                    &mut in_targets,
                    &mut in_edges,
                    &dense_of,
                );
            }
            // Undirected view: merge the two sorted target runs and drop
            // duplicates (an a→b plus b→a pair is one undirected neighbour).
            let mut und_offsets = Vec::with_capacity(n + 1);
            let mut und_targets = Vec::new();
            und_offsets.push(0);
            let mut merged: Vec<u32> = Vec::new();
            for d in 0..n {
                merged.clear();
                let ob = out.targets(d);
                let ib = &in_targets[in_offsets[d] as usize..in_offsets[d + 1] as usize];
                merged.extend_from_slice(ob);
                merged.extend_from_slice(ib);
                merged.sort_unstable();
                merged.dedup();
                und_targets.extend_from_slice(&merged);
                und_offsets.push(und_targets.len() as u32);
            }
            inn = Adjacency::from_packed(&in_offsets, in_targets, in_edges);
            undv = Adjacency::from_packed(&und_offsets, und_targets, Vec::new());
        }

        CsrGraph {
            directed: g.is_directed(),
            node_bound: g.node_bound(),
            edge_bound: g.edge_bound(),
            node_of,
            dense_of,
            out,
            inn,
            undv,
            live_edges: g.edge_count(),
            patched: false,
        }
    }

    /// Builds a snapshot of `new` by re-splicing only the rows that changed
    /// relative to `base` (the cached snapshot of `old`). Untouched rows
    /// keep sharing `base`'s `Arc`'d slabs, so the cost is O(touched + n)
    /// bookkeeping instead of the full O(n + m) repack with per-row sorts.
    ///
    /// Returns `None` — meaning "do a full rebuild instead" — when the edit
    /// cannot be expressed as a row splice or is not worth one:
    /// * directedness differs, or `new` shrank a slot bound (unrelated
    ///   graphs);
    /// * a node was removed or a slot resurrected (the dense remap would
    ///   shift every row's targets);
    /// * a surviving edge changed endpoints (id reuse — not a delta);
    /// * the touched row set exceeds `n/8`, or the consolidated patch would
    ///   exceed half the base slab (delta no longer cheaper than rebuild).
    ///
    /// The caller guarantees `base == CsrGraph::build(old)` logically; the
    /// cache satisfies this by construction since it retains each entry's
    /// `Arc<Graph>`.
    ///
    /// The touched-row set normally comes straight from the graphs' edit
    /// journals in O(edits): when `old`'s journal tip is found in `new`'s
    /// journal, the entries after it are — provably, since journal stamps
    /// are globally unique and cloning preserves the journal — exactly the
    /// structural edits separating the two graphs. Only when lineage cannot
    /// be established that way (deserialised graphs, edits beyond the
    /// journal window) does it fall back to diffing the slot tables.
    pub fn build_delta(old: &Graph, base: &CsrGraph, new: &Graph) -> Option<CsrGraph> {
        if old.is_directed() != new.is_directed()
            || new.node_bound() < old.node_bound()
            || new.edge_bound() < old.edge_bound()
            || base.node_bound != old.node_bound()
        {
            return None;
        }
        if let Some(edits) = new.journal().edits_since(old.journal().tip()) {
            return Self::journal_delta(base, new, &edits);
        }
        Self::scan_delta(old, base, new)
    }

    /// Delta via the edit journal: walks the edits separating `base`'s
    /// graph from `new`, accumulating touched rows, without ever scanning
    /// the untouched structure.
    fn journal_delta(base: &CsrGraph, new: &Graph, edits: &[StructEdit]) -> Option<CsrGraph> {
        let mut node_of = base.node_of.clone();
        let mut dense_of = base.dense_of.clone();
        let mut touched: Vec<u32> = Vec::new();
        for &edit in edits {
            match edit {
                StructEdit::AddNode(v) => {
                    // Node ids are append-only, so each journaled add lands
                    // exactly at the then-current bound.
                    if v.index() != dense_of.len() {
                        return None;
                    }
                    dense_of.push(node_of.len() as u32);
                    touched.push(node_of.len() as u32);
                    node_of.push(v);
                }
                // A removal shifts the dense remap of every later node.
                StructEdit::RemoveNode => return None,
                StructEdit::AddEdge(s, d) | StructEdit::RemoveEdge(s, d) => {
                    let (ds, dd) = (dense_of[s.index()], dense_of[d.index()]);
                    if ds == NO_DENSE || dd == NO_DENSE {
                        return None;
                    }
                    touched.push(ds);
                    touched.push(dd);
                }
            }
        }
        if dense_of.len() != new.node_bound() {
            return None;
        }
        Self::splice_delta(base, new, node_of, dense_of, touched)
    }

    /// Delta by diffing the slot tables of `old` and `new` directly — the
    /// O(n + m) fallback for graphs whose journals cannot prove lineage.
    fn scan_delta(old: &Graph, base: &CsrGraph, new: &Graph) -> Option<CsrGraph> {
        // Node liveness over the common slot prefix must be unchanged: a
        // removal shifts the dense remap of every later node, a
        // resurrection breaks the id-monotonicity invariant. Appended live
        // slots extend the remap in slot order.
        let mut node_of = base.node_of.clone();
        let mut dense_of = base.dense_of.clone();
        for i in 0..old.node_bound() {
            if old.contains_node(NodeId(i as u32)) != new.contains_node(NodeId(i as u32)) {
                return None;
            }
        }
        dense_of.resize(new.node_bound(), NO_DENSE);
        let mut touched: Vec<u32> = Vec::new();
        for i in old.node_bound()..new.node_bound() {
            if new.contains_node(NodeId(i as u32)) {
                dense_of[i] = node_of.len() as u32;
                touched.push(node_of.len() as u32);
                node_of.push(NodeId(i as u32));
            }
        }

        // Edge liveness diff: removed/added edges touch their endpoint
        // rows. Surviving edges must keep their endpoints (labels and
        // attributes don't reach the CSR).
        let mut touch_endpoints = |src: NodeId, dst: NodeId, dense_of: &[u32]| {
            touched.push(dense_of[src.index()]);
            touched.push(dense_of[dst.index()]);
        };
        for i in 0..old.edge_bound() {
            let e = EdgeId(i as u32);
            match (old.contains_edge(e), new.contains_edge(e)) {
                (true, true) => {
                    let was = old.edge_endpoints(e).ok()?;
                    let is = new.edge_endpoints(e).ok()?;
                    if was != is {
                        return None;
                    }
                }
                (true, false) => {
                    let (s, d) = old.edge_endpoints(e).ok()?;
                    touch_endpoints(s, d, &dense_of);
                }
                (false, true) => return None,
                (false, false) => {}
            }
        }
        for i in old.edge_bound()..new.edge_bound() {
            let e = EdgeId(i as u32);
            if new.contains_edge(e) {
                let (s, d) = new.edge_endpoints(e).ok()?;
                touch_endpoints(s, d, &dense_of);
            }
        }
        Self::splice_delta(base, new, node_of, dense_of, touched)
    }

    /// Common delta tail: given the new dense remap and the touched-row
    /// set, re-splices the adjacency families (shared base slabs, fresh
    /// patch) — or declines when the delta is no longer cheaper than a
    /// rebuild.
    fn splice_delta(
        base: &CsrGraph,
        new: &Graph,
        node_of: Vec<NodeId>,
        dense_of: Vec<u32>,
        mut touched: Vec<u32>,
    ) -> Option<CsrGraph> {
        let n_new = node_of.len();
        touched.sort_unstable();
        touched.dedup();
        if touched.len() * DELTA_TOUCH_DIVISOR > n_new + DELTA_TOUCH_SLACK {
            return None;
        }

        let out = base.out.splice(n_new, &touched, true, |d, tbuf, ebuf| {
            packed_row(&mut new.neighbors(node_of[d as usize]), &dense_of, tbuf, ebuf)
        });
        let (inn, undv) = if new.is_directed() {
            let inn = base.inn.splice(n_new, &touched, true, |d, tbuf, ebuf| {
                packed_row(&mut new.in_neighbors(node_of[d as usize]), &dense_of, tbuf, ebuf)
            });
            let undv = base.undv.splice(n_new, &touched, false, |d, tbuf, _ebuf| {
                let v = node_of[d as usize];
                for (w, _) in new.neighbors(v) {
                    tbuf.push(dense_of[w.index()]);
                }
                for (w, _) in new.in_neighbors(v) {
                    tbuf.push(dense_of[w.index()]);
                }
                tbuf.sort_unstable();
                tbuf.dedup();
            });
            (inn, undv)
        } else {
            (Adjacency::empty(), Adjacency::empty())
        };
        if out.patch_bloated() || inn.patch_bloated() || undv.patch_bloated() {
            return None;
        }

        Some(CsrGraph {
            directed: new.is_directed(),
            node_bound: new.node_bound(),
            edge_bound: new.edge_bound(),
            node_of,
            dense_of,
            out,
            inn,
            undv,
            live_edges: new.edge_count(),
            patched: true,
        })
    }

    /// Number of live nodes.
    pub fn n(&self) -> usize {
        self.node_of.len()
    }

    /// Number of live edges.
    pub fn m(&self) -> usize {
        self.live_edges
    }

    /// Whether the snapshotted graph was directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Whether this snapshot was spliced by [`CsrGraph::build_delta`]
    /// (representation detail; excluded from equality).
    pub fn is_patched(&self) -> bool {
        self.patched
    }

    /// Node-slot bound of the snapshotted graph (for slot-indexed outputs).
    pub fn node_bound(&self) -> usize {
        self.node_bound
    }

    /// Edge-slot bound of the snapshotted graph (for slot-indexed weights).
    pub fn edge_bound(&self) -> usize {
        self.edge_bound
    }

    /// Original id of dense node `d`.
    pub fn node_of(&self, d: DenseId) -> NodeId {
        self.node_of[d as usize]
    }

    /// All original ids, ascending (dense order).
    pub fn nodes(&self) -> &[NodeId] {
        &self.node_of
    }

    /// Dense id of a live original node, `None` for removed/unknown slots.
    pub fn dense_of(&self, v: NodeId) -> Option<DenseId> {
        match self.dense_of.get(v.index()) {
            Some(&d) if d != NO_DENSE => Some(d),
            _ => None,
        }
    }

    /// Out-neighbour dense ids of `d`, sorted ascending.
    pub fn out(&self, d: DenseId) -> &[u32] {
        self.out.targets(d as usize)
    }

    /// Edge ids parallel to [`CsrGraph::out`].
    pub fn out_edge_ids(&self, d: DenseId) -> &[EdgeId] {
        self.out.edge_ids(d as usize)
    }

    /// In-neighbour dense ids of `d` (directed; empty for undirected).
    pub fn incoming(&self, d: DenseId) -> &[u32] {
        if !self.directed {
            return &[];
        }
        self.inn.targets(d as usize)
    }

    /// Edge ids parallel to [`CsrGraph::incoming`].
    pub fn incoming_edge_ids(&self, d: DenseId) -> &[EdgeId] {
        if !self.directed {
            return &[];
        }
        self.inn.edge_ids(d as usize)
    }

    /// Sources whose edges point *at* `d` under PageRank's mass-flow view:
    /// the in-CSR for directed graphs, the (symmetric) out-CSR otherwise.
    pub fn pull_sources(&self, d: DenseId) -> &[u32] {
        if self.directed {
            self.incoming(d)
        } else {
            self.out(d)
        }
    }

    /// Undirected-view neighbour dense ids of `d`: sorted, deduplicated
    /// union of out- and in-neighbours. For undirected graphs this is the
    /// out-CSR itself.
    pub fn und(&self, d: DenseId) -> &[u32] {
        if !self.directed {
            return self.out(d);
        }
        self.undv.targets(d as usize)
    }

    /// Out-degree of `d` (matches [`Graph::degree`]).
    pub fn degree(&self, d: DenseId) -> usize {
        self.out(d).len()
    }

    /// In-degree of `d` (matches [`Graph::in_degree`]).
    pub fn in_degree(&self, d: DenseId) -> usize {
        self.incoming(d).len()
    }

    /// Total degree of `d` (matches [`Graph::total_degree`]).
    pub fn total_degree(&self, d: DenseId) -> usize {
        self.degree(d) + self.in_degree(d)
    }
}

/// Packs one adjacency row: dense-mapped, sorted by (target, edge id).
fn packed_row(
    iter: &mut dyn Iterator<Item = (NodeId, EdgeId)>,
    dense_of: &[u32],
    tbuf: &mut Vec<u32>,
    ebuf: &mut Vec<EdgeId>,
) {
    let mut pairs: Vec<(u32, EdgeId)> = iter.map(|(w, e)| (dense_of[w.index()], e)).collect();
    pairs.sort_unstable_by_key(|&(t, e)| (t, e.0));
    for (t, e) in pairs {
        tbuf.push(t);
        ebuf.push(e);
    }
}

/// One recorded snapshot build, drained by the executor for monitoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrBuild {
    /// Live nodes in the snapshot.
    pub nodes: usize,
    /// Live edges in the snapshot.
    pub edges: usize,
    /// Wall-clock build time in microseconds.
    pub micros: u64,
    /// True when the snapshot was spliced from a cached predecessor
    /// ([`CsrGraph::build_delta`]) instead of fully rebuilt.
    pub delta: bool,
}

/// An epoch cache of CSR snapshots, keyed by `Arc<Graph>` identity (see
/// the module docs). The cache is small and most-recently-used-first: one
/// entry per graph epoch alive in a chain, plus headroom for database
/// graphs. A miss first tries [`CsrGraph::build_delta`] against each
/// resident entry (most recent first) — the common "small edit, new epoch"
/// case then costs a row splice instead of a full rebuild, transparently
/// to every holder of the cache, including the cross-session shared cache.
#[derive(Debug)]
pub struct CsrCache(VersionCache<CsrGraph>);

impl Default for CsrCache {
    fn default() -> Self {
        CsrCache::new(4)
    }
}

impl CsrCache {
    /// Creates a cache holding up to `capacity` snapshots (minimum 1).
    pub fn new(capacity: usize) -> CsrCache {
        CsrCache(VersionCache::new(capacity))
    }

    /// Returns the snapshot for `g`, building it on a miss.
    pub fn get_or_build(&self, g: &Arc<Graph>) -> Arc<CsrGraph> {
        self.get_or_build_tracked(g).0
    }

    /// Like [`CsrCache::get_or_build`], but also hands back the build
    /// record when this call built the snapshot. A cache shared across
    /// sessions keeps no log of its own, so each session logs (and drains)
    /// only its own builds — monitoring events must not leak across
    /// tenants.
    pub fn get_or_build_tracked(&self, g: &Arc<Graph>) -> (Arc<CsrGraph>, Option<CsrBuild>) {
        let mut build = None;
        let csr = self.0.get_or_build(g, |resident| {
            let started = Instant::now();
            let spliced = resident
                .iter()
                .find_map(|e| CsrGraph::build_delta(&e.graph, &e.value, g));
            let delta = spliced.is_some();
            let csr = spliced.unwrap_or_else(|| CsrGraph::build(g));
            build = Some(CsrBuild {
                nodes: csr.n(),
                edges: csr.m(),
                micros: started.elapsed().as_micros() as u64,
                delta,
            });
            csr
        });
        (csr, build)
    }

    /// Drops the snapshot cached for `g` (pointer identity), returning
    /// whether one was present. Sessions call this when they *replace*
    /// their graph: the entry would never be hit again (the new graph is a
    /// new `Arc`), but without eviction it pins the dead epoch's graph and
    /// snapshot in memory until capacity pushes them out — unacceptable in
    /// a shared, long-lived cache.
    pub fn invalidate(&self, g: &Arc<Graph>) -> bool {
        self.0.invalidate(g)
    }

    /// Number of snapshots currently cached.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the cache holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        self.0.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Golden layout fixture: a small directed graph with a removed node,
    /// pinning the exact dense remap and all three adjacency families.
    #[test]
    fn golden_directed_layout_with_deletion() {
        // a→b (e0), a→c (e1), c→b (e2), b→a (e3), d→a (e4); then remove d.
        let mut g = GraphBuilder::directed()
            .edge("a", "b", "r")
            .edge("a", "c", "r")
            .edge("c", "b", "r")
            .edge("b", "a", "r")
            .edge("d", "a", "r")
            .build();
        let d = NodeId(3);
        g.remove_node(d).expect("d exists");
        let csr = CsrGraph::build(&g);

        assert!(csr.is_directed());
        assert!(!csr.is_patched());
        assert_eq!(csr.n(), 3);
        assert_eq!(csr.m(), 4);
        assert_eq!(csr.nodes(), &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(csr.dense_of(NodeId(0)), Some(0));
        assert_eq!(csr.dense_of(NodeId(3)), None, "removed slot has no dense id");

        // Out rows: a→{b,c}, b→{a}, c→{b}; targets sorted ascending.
        assert_eq!(csr.out(0), &[1, 2]);
        assert_eq!(csr.out(1), &[0]);
        assert_eq!(csr.out(2), &[1]);
        assert_eq!(csr.out_edge_ids(0), &[EdgeId(0), EdgeId(1)]);
        assert_eq!(csr.out_edge_ids(1), &[EdgeId(3)]);
        assert_eq!(csr.out_edge_ids(2), &[EdgeId(2)]);

        // In rows: a←{b}, b←{a,c}, c←{a}. (d→a died with d.)
        assert_eq!(csr.incoming(0), &[1]);
        assert_eq!(csr.incoming(1), &[0, 2]);
        assert_eq!(csr.incoming(2), &[0]);
        assert_eq!(csr.incoming_edge_ids(0), &[EdgeId(3)]);
        assert_eq!(csr.incoming_edge_ids(1), &[EdgeId(0), EdgeId(2)]);
        assert_eq!(csr.incoming_edge_ids(2), &[EdgeId(1)]);

        // Undirected view dedups the a↔b reciprocal pair.
        assert_eq!(csr.und(0), &[1, 2]);
        assert_eq!(csr.und(1), &[0, 2]);
        assert_eq!(csr.und(2), &[0, 1]);

        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.in_degree(1), 2);
        assert_eq!(csr.total_degree(1), 3);
    }

    #[test]
    fn undirected_und_view_aliases_out() {
        let g = GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .build();
        let csr = CsrGraph::build(&g);
        assert_eq!(csr.n(), 3);
        assert_eq!(csr.m(), 2);
        assert_eq!(csr.und(1), csr.out(1));
        assert_eq!(csr.und(1), &[0, 2]);
        assert!(csr.incoming(1).is_empty());
        assert_eq!(csr.total_degree(1), 2, "undirected out-CSR is total degree");
    }

    /// A one-edge edit splices into a patched snapshot that is logically
    /// identical to a from-scratch rebuild.
    #[test]
    fn delta_single_edge_add_matches_rebuild() {
        let old = GraphBuilder::directed()
            .edge("a", "b", "r")
            .edge("b", "c", "r")
            .edge("c", "a", "r")
            .build();
        let base = CsrGraph::build(&old);
        let mut new = old.clone();
        new.add_edge(NodeId(0), NodeId(2), "r").expect("nodes exist");

        let delta = CsrGraph::build_delta(&old, &base, &new).expect("spliceable edit");
        assert!(delta.is_patched());
        assert_eq!(delta, CsrGraph::build(&new));
        // Untouched rows still share the base slab.
        assert_eq!(delta.out(1), base.out(1));
    }

    /// Edge removal, node append, and a follow-up chained delta all splice;
    /// each patched epoch equals its rebuild.
    #[test]
    fn delta_chains_across_epochs() {
        let g0 = GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .edge("c", "d", "-")
            .build();
        let c0 = CsrGraph::build(&g0);

        let mut g1 = g0.clone();
        let (_, e) = (g1.node_ids().next(), EdgeId(1));
        g1.remove_edge(e).expect("edge exists");
        let c1 = CsrGraph::build_delta(&g0, &c0, &g1).expect("edge removal splices");
        assert_eq!(c1, CsrGraph::build(&g1));

        let mut g2 = g1.clone();
        let v = g2.add_node("e");
        g2.add_edge(v, NodeId(0), "-").expect("nodes exist");
        let c2 = CsrGraph::build_delta(&g1, &c1, &g2).expect("append splices on a delta base");
        assert!(c2.is_patched());
        assert_eq!(c2, CsrGraph::build(&g2));
    }

    /// Node removal shifts the dense remap — `build_delta` must decline.
    #[test]
    fn delta_declines_node_removal() {
        let old = GraphBuilder::undirected()
            .edge("a", "b", "-")
            .edge("b", "c", "-")
            .build();
        let base = CsrGraph::build(&old);
        let mut new = old.clone();
        new.remove_node(NodeId(0)).expect("node exists");
        assert!(CsrGraph::build_delta(&old, &base, &new).is_none());
    }

    /// An attribute/label-only edit touches zero rows: the delta shares
    /// every slab yet still compares equal to a rebuild.
    #[test]
    fn delta_relabel_touches_nothing() {
        let old = GraphBuilder::undirected().edge("a", "b", "-").build();
        let base = CsrGraph::build(&old);
        let mut new = old.clone();
        new.set_node_attr(NodeId(0), "k", 1i64).expect("node exists");
        let delta = CsrGraph::build_delta(&old, &base, &new).expect("attr edit splices");
        assert_eq!(delta, CsrGraph::build(&new));
        assert_eq!(delta.out(0), base.out(0));
    }

    /// The cache tries a delta before a full rebuild on each new epoch.
    #[test]
    fn cache_miss_uses_delta_when_possible() {
        let cache = CsrCache::default();
        let mut g = Arc::new(
            GraphBuilder::undirected().edge("a", "b", "-").edge("b", "c", "-").build(),
        );
        let (_, first) = cache.get_or_build_tracked(&g);
        assert_eq!(first.map(|b| b.delta), Some(false), "cold build is full");

        let m = Arc::make_mut(&mut g);
        let v = m.add_node("d");
        m.add_edge(v, NodeId(0), "-").expect("nodes exist");
        let (csr, second) = cache.get_or_build_tracked(&g);
        assert_eq!(second.map(|b| b.delta), Some(true), "edit epoch splices");
        assert!(csr.is_patched());
        assert_eq!(*csr, CsrGraph::build(&g));
    }

    #[test]
    fn cache_hits_on_same_arc_and_misses_after_cow_mutation() {
        let cache = CsrCache::default();
        let mut g = Arc::new(
            GraphBuilder::undirected().edge("a", "b", "-").build(),
        );
        let first = cache.get_or_build(&g);
        let again = cache.get_or_build(&g);
        assert!(Arc::ptr_eq(&first, &again), "same epoch: cached snapshot");
        assert_eq!(cache.stats(), (1, 1));

        // Copy-on-write mutation: the cache pins the old Arc, so make_mut
        // clones → new pointer → new epoch → rebuild (here: a delta build).
        Arc::make_mut(&mut g).add_node("c");
        let rebuilt = cache.get_or_build(&g);
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        assert_eq!(rebuilt.n(), 3);
        assert_eq!(*rebuilt, CsrGraph::build(&g));
        assert_eq!(cache.stats(), (1, 2), "one new build after the mutation");
    }

    #[test]
    fn cache_capacity_evicts_least_recently_used() {
        let cache = CsrCache::new(2);
        let graphs: Vec<Arc<Graph>> = (0..3)
            .map(|i| {
                let mut g = Graph::undirected();
                for _ in 0..=i {
                    g.add_node("x");
                }
                Arc::new(g)
            })
            .collect();
        for g in &graphs {
            cache.get_or_build(g);
        }
        // graphs[0] was evicted; re-fetch is a miss.
        cache.get_or_build(&graphs[0]);
        assert_eq!(cache.stats(), (0, 4));
        // graphs[2] is still resident.
        cache.get_or_build(&graphs[2]);
        assert_eq!(cache.stats(), (1, 4));
    }

    #[test]
    fn empty_graph_snapshot() {
        let csr = CsrGraph::build(&Graph::directed());
        assert_eq!(csr.n(), 0);
        assert_eq!(csr.m(), 0);
        assert!(csr.nodes().is_empty());
    }
}
