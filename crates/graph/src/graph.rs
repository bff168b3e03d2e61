//! The labelled property graph.
//!
//! Design notes:
//!
//! * **Stable ids with tombstones.** Graph-edit APIs (scenario 3 of the paper,
//!   "Chat-based Graph Cleaning") mutate a graph *while* an API chain is
//!   executing and holding node/edge ids. Removal therefore tombstones slots
//!   instead of shifting ids; [`Graph::compact`] rebuilds a dense graph when a
//!   caller wants one.
//! * **Directed and undirected** graphs share one type: molecules and social
//!   networks are undirected, knowledge graphs are directed. Algorithms query
//!   [`Graph::is_directed`] where it matters.
//! * **Parallel edges and self-loops are rejected** — none of the paper's
//!   graph families need them, and forbidding them keeps edit-distance costs
//!   well-defined.

use crate::attr::{AttrValue, Attrs};
use std::fmt;

/// Index of a node in a [`Graph`]. Stable across removals of other elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Index of an edge in a [`Graph`]. Stable across removals of other elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Whether edges are ordered pairs or unordered pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Edges are ordered `(src, dst)` pairs (knowledge graphs).
    Directed,
    /// Edges are unordered pairs (molecules, social networks).
    Undirected,
}

/// Errors raised by graph mutation and lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The node id does not exist or has been removed.
    NodeNotFound(NodeId),
    /// The edge id does not exist or has been removed.
    EdgeNotFound(EdgeId),
    /// An edge between the two endpoints already exists.
    DuplicateEdge(NodeId, NodeId),
    /// Self-loops are not supported.
    SelfLoop(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeNotFound(v) => write!(f, "node {v} not found"),
            GraphError::EdgeNotFound(e) => write!(f, "edge {e} not found"),
            GraphError::DuplicateEdge(u, v) => write!(f, "edge ({u}, {v}) already exists"),
            GraphError::SelfLoop(v) => write!(f, "self-loop at {v} not supported"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Capacity of the structural-edit journal. Past this many retained edits
/// the oldest are dropped; delta snapshots against ancestors older than the
/// window fall back to the scan diff (and typically a full rebuild), which
/// is the right call anyway — that many edits touch too many rows to splice.
const JOURNAL_CAP: usize = 4096;

/// Process-global stamp source for journal entries. Stamps only need to be
/// unique, not ordered or dense: ancestry is decided by *finding* a stamp
/// in a journal, never by comparing magnitudes.
// lockdoc: recover(a lone atomic counter; fetch_add cannot be torn or deadlock)
static EPOCH: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    EPOCH.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// One structural mutation, as the CSR delta-splicer needs to see it:
/// which rows it touches. Label and attribute edits are not structural —
/// the CSR carries neither.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StructEdit {
    /// A node slot was appended (ids are never reused, so the id always
    /// equals the pre-edit node bound).
    AddNode(NodeId),
    /// A node was tombstoned — an edit the delta path declines, because the
    /// dense remap of every later node shifts (which node doesn't matter).
    RemoveNode,
    /// An edge was added between the two endpoints.
    AddEdge(NodeId, NodeId),
    /// An edge between the two endpoints was tombstoned.
    RemoveEdge(NodeId, NodeId),
}

/// A capped log of recent structural edits, stamped with process-globally
/// unique ids. Cloning a graph clones its journal, so a derived graph's
/// journal contains its ancestor's tip stamp — finding that stamp proves
/// ancestry (stamps are never reissued) and the entries after it are
/// exactly the edits separating the two graphs. This is what lets
/// [`crate::csr::CsrGraph::build_delta`] compute the touched-row set in
/// O(edits) instead of re-scanning every node and edge slot.
#[derive(Debug, Clone)]
pub(crate) struct Journal {
    /// Stamp of the last structural mutation (or of creation /
    /// deserialisation — fresh graphs get a unique tip so two unrelated
    /// graphs can never look like ancestors).
    tip: u64,
    edits: std::collections::VecDeque<(u64, StructEdit)>,
}

impl Journal {
    fn fresh() -> Journal {
        Journal { tip: fresh_stamp(), edits: std::collections::VecDeque::new() }
    }

    fn record(&mut self, edit: StructEdit) {
        let stamp = fresh_stamp();
        self.tip = stamp;
        self.edits.push_back((stamp, edit));
        if self.edits.len() > JOURNAL_CAP {
            self.edits.pop_front();
        }
    }

    /// The stamp identifying this graph's current structural state.
    pub(crate) fn tip(&self) -> u64 {
        self.tip
    }

    /// The edits separating the state stamped `ancestor_tip` from this
    /// state, oldest first — or `None` when `ancestor_tip` is not in the
    /// retained window (not an ancestor, or too many edits ago).
    pub(crate) fn edits_since(&self, ancestor_tip: u64) -> Option<Vec<StructEdit>> {
        if ancestor_tip == self.tip {
            return Some(Vec::new());
        }
        let pos = self.edits.iter().position(|&(s, _)| s == ancestor_tip)?;
        Some(self.edits.iter().skip(pos + 1).map(|&(_, e)| e).collect())
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeSlot {
    pub(crate) label: String,
    pub(crate) attrs: Attrs,
    pub(crate) removed: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EdgeSlot {
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) label: String,
    pub(crate) attrs: Attrs,
    pub(crate) removed: bool,
}

/// A labelled, attributed property graph.
///
/// ```
/// use chatgraph_graph::{Graph, Direction};
///
/// let mut g = Graph::new(Direction::Undirected);
/// let a = g.add_node("C");
/// let b = g.add_node("O");
/// let e = g.add_edge(a, b, "double").unwrap();
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.edge_label(e).unwrap(), "double");
/// assert!(g.has_edge(a, b));
/// assert!(g.has_edge(b, a)); // undirected
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    direction: Direction,
    /// A free-form graph name, surfaced in chat transcripts ("G", "aspirin", …).
    name: String,
    nodes: Vec<NodeSlot>,
    edges: Vec<EdgeSlot>,
    /// Outgoing adjacency. For undirected graphs each edge appears in both
    /// endpoints' lists.
    out_adj: Vec<Vec<(NodeId, EdgeId)>>,
    /// Incoming adjacency; maintained only for directed graphs.
    in_adj: Vec<Vec<(NodeId, EdgeId)>>,
    live_nodes: usize,
    live_edges: usize,
    /// Recent structural edits (excluded from equality and serialisation —
    /// a cache acceleration, not graph content).
    journal: Journal,
}

/// Equality is over graph *content*; the journal is lineage metadata and
/// two equal graphs may well have disjoint histories.
impl PartialEq for Graph {
    fn eq(&self, other: &Graph) -> bool {
        self.direction == other.direction
            && self.name == other.name
            && self.nodes == other.nodes
            && self.edges == other.edges
            && self.out_adj == other.out_adj
            && self.in_adj == other.in_adj
            && self.live_nodes == other.live_nodes
            && self.live_edges == other.live_edges
    }
}

chatgraph_support::impl_json_newtype!(NodeId);
chatgraph_support::impl_json_newtype!(EdgeId);
chatgraph_support::impl_json_enum_unit!(Direction { Directed, Undirected });
chatgraph_support::impl_json_struct!(NodeSlot { label, attrs, removed });
chatgraph_support::impl_json_struct!(EdgeSlot { src, dst, label, attrs, removed });
// Hand-written (rather than `impl_json_struct!`) so the journal stays off
// the wire: the format is unchanged from before the journal existed, and a
// decoded graph starts with a fresh journal — its first delta snapshot
// falls back to the scan diff, exactly like any graph of unknown lineage.
impl chatgraph_support::json::ToJson for Graph {
    fn to_json(&self) -> chatgraph_support::json::Json {
        use chatgraph_support::json::Json;
        Json::Object(vec![
            ("direction".to_owned(), self.direction.to_json()),
            ("name".to_owned(), self.name.to_json()),
            ("nodes".to_owned(), self.nodes.to_json()),
            ("edges".to_owned(), self.edges.to_json()),
            ("out_adj".to_owned(), self.out_adj.to_json()),
            ("in_adj".to_owned(), self.in_adj.to_json()),
            ("live_nodes".to_owned(), self.live_nodes.to_json()),
            ("live_edges".to_owned(), self.live_edges.to_json()),
        ])
    }
}

impl chatgraph_support::json::FromJson for Graph {
    fn from_json(
        v: &chatgraph_support::json::Json,
    ) -> Result<Self, chatgraph_support::json::JsonError> {
        use chatgraph_support::json::{FromJson, JsonError};
        if v.as_object().is_none() {
            return Err(JsonError::expected("object", v));
        }
        let field = |name: &str| {
            v.get(name).ok_or_else(|| JsonError::missing_field("Graph", name))
        };
        Ok(Graph {
            direction: FromJson::from_json(field("direction")?)?,
            name: FromJson::from_json(field("name")?)?,
            nodes: FromJson::from_json(field("nodes")?)?,
            edges: FromJson::from_json(field("edges")?)?,
            out_adj: FromJson::from_json(field("out_adj")?)?,
            in_adj: FromJson::from_json(field("in_adj")?)?,
            live_nodes: FromJson::from_json(field("live_nodes")?)?,
            live_edges: FromJson::from_json(field("live_edges")?)?,
            journal: Journal::fresh(),
        })
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new(direction: Direction) -> Self {
        Graph {
            direction,
            name: "G".to_owned(),
            nodes: Vec::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
            live_nodes: 0,
            live_edges: 0,
            journal: Journal::fresh(),
        }
    }

    /// The structural-edit journal (for the CSR delta-splicer).
    pub(crate) fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Every node slot ever allocated, tombstones included (for the
    /// slot-exact delta/image codec in [`crate::delta`]).
    pub(crate) fn node_slots(&self) -> &[NodeSlot] {
        &self.nodes
    }

    /// Every edge slot ever allocated, tombstones included.
    pub(crate) fn edge_slots(&self) -> &[EdgeSlot] {
        &self.edges
    }

    /// Rebuilds a graph from raw slot arrays, tombstones and all.
    ///
    /// Adjacency is reconstructed by walking live edges in id order, which
    /// is exactly the order incremental mutation leaves the lists in: every
    /// insertion appends a strictly larger edge id and removals preserve
    /// relative order, so a mutated graph's adjacency is always the live
    /// incident edges sorted by edge id. A slot-replayed graph is therefore
    /// `==` to the incrementally mutated original, adjacency included.
    ///
    /// Callers must have validated edge endpoints against the node slots;
    /// out-of-range endpoints here are a codec bug, not user input.
    pub(crate) fn from_slots(
        direction: Direction,
        name: String,
        nodes: Vec<NodeSlot>,
        edges: Vec<EdgeSlot>,
    ) -> Graph {
        let mut out_adj: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); nodes.len()];
        let mut in_adj: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); nodes.len()];
        let mut live_edges = 0usize;
        for (i, e) in edges.iter().enumerate() {
            if e.removed {
                continue;
            }
            let id = EdgeId(i as u32);
            out_adj[e.src.index()].push((e.dst, id));
            if direction == Direction::Directed {
                in_adj[e.dst.index()].push((e.src, id));
            } else {
                out_adj[e.dst.index()].push((e.src, id));
            }
            live_edges += 1;
        }
        let live_nodes = nodes.iter().filter(|n| !n.removed).count();
        Graph {
            direction,
            name,
            nodes,
            edges,
            out_adj,
            in_adj,
            live_nodes,
            live_edges,
            journal: Journal::fresh(),
        }
    }

    /// Creates an empty undirected graph.
    pub fn undirected() -> Self {
        Graph::new(Direction::Undirected)
    }

    /// Creates an empty directed graph.
    pub fn directed() -> Self {
        Graph::new(Direction::Directed)
    }

    /// Whether edges are directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.direction == Direction::Directed
    }

    /// The graph's direction mode.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The graph's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the graph's display name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of live (non-removed) nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live (non-removed) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Upper bound (exclusive) on node ids ever allocated, including removed
    /// slots. Useful for sizing per-node scratch arrays.
    #[inline]
    pub fn node_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Upper bound (exclusive) on edge ids ever allocated, including removed
    /// slots.
    #[inline]
    pub fn edge_bound(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.live_nodes == 0
    }

    /// Adds a node with the given label and no attributes.
    pub fn add_node(&mut self, label: impl Into<String>) -> NodeId {
        self.add_node_with_attrs(label, Attrs::new())
    }

    /// Adds a node with the given label and attributes.
    pub fn add_node_with_attrs(&mut self, label: impl Into<String>, attrs: Attrs) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot {
            label: label.into(),
            attrs,
            removed: false,
        });
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        self.live_nodes += 1;
        self.journal.record(StructEdit::AddNode(id));
        id
    }

    /// True if `id` refers to a live node.
    #[inline]
    pub fn contains_node(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(|n| !n.removed)
    }

    /// True if `id` refers to a live edge.
    #[inline]
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.edges.get(id.index()).is_some_and(|e| !e.removed)
    }

    fn check_node(&self, id: NodeId) -> Result<(), GraphError> {
        if self.contains_node(id) {
            Ok(())
        } else {
            Err(GraphError::NodeNotFound(id))
        }
    }

    /// Adds an edge with the given label and no attributes.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: impl Into<String>,
    ) -> Result<EdgeId, GraphError> {
        self.add_edge_with_attrs(src, dst, label, Attrs::new())
    }

    /// Adds an edge with the given label and attributes.
    ///
    /// Returns [`GraphError::DuplicateEdge`] if an edge between the endpoints
    /// already exists (in the same direction, for directed graphs) and
    /// [`GraphError::SelfLoop`] if `src == dst`.
    pub fn add_edge_with_attrs(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: impl Into<String>,
        attrs: Attrs,
    ) -> Result<EdgeId, GraphError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        if self.find_edge(src, dst).is_some() {
            return Err(GraphError::DuplicateEdge(src, dst));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeSlot {
            src,
            dst,
            label: label.into(),
            attrs,
            removed: false,
        });
        self.out_adj[src.index()].push((dst, id));
        if self.is_directed() {
            self.in_adj[dst.index()].push((src, id));
        } else {
            self.out_adj[dst.index()].push((src, id));
        }
        self.live_edges += 1;
        self.journal.record(StructEdit::AddEdge(src, dst));
        Ok(id)
    }

    /// Finds the live edge from `src` to `dst`, if any. For undirected graphs
    /// the orientation of the query does not matter.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        let adj = self.out_adj.get(src.index())?;
        adj.iter()
            .find(|&&(v, e)| v == dst && !self.edges[e.index()].removed)
            .map(|&(_, e)| e)
    }

    /// True if a live edge runs from `src` to `dst`.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.find_edge(src, dst).is_some()
    }

    /// Removes an edge. The id is never reused.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<(), GraphError> {
        if !self.contains_edge(id) {
            return Err(GraphError::EdgeNotFound(id));
        }
        let (src, dst) = {
            let e = &mut self.edges[id.index()];
            e.removed = true;
            (e.src, e.dst)
        };
        self.out_adj[src.index()].retain(|&(_, e)| e != id);
        if self.is_directed() {
            self.in_adj[dst.index()].retain(|&(_, e)| e != id);
        } else {
            self.out_adj[dst.index()].retain(|&(_, e)| e != id);
        }
        self.live_edges -= 1;
        self.journal.record(StructEdit::RemoveEdge(src, dst));
        Ok(())
    }

    /// Removes a node and all incident edges. Ids are never reused.
    pub fn remove_node(&mut self, id: NodeId) -> Result<(), GraphError> {
        self.check_node(id)?;
        let incident: Vec<EdgeId> = self
            .out_adj[id.index()]
            .iter()
            .map(|&(_, e)| e)
            .chain(self.in_adj[id.index()].iter().map(|&(_, e)| e))
            .collect();
        for e in incident {
            if self.contains_edge(e) {
                self.remove_edge(e)?;
            }
        }
        self.nodes[id.index()].removed = true;
        self.live_nodes -= 1;
        self.journal.record(StructEdit::RemoveNode);
        Ok(())
    }

    /// The label of a live node.
    pub fn node_label(&self, id: NodeId) -> Result<&str, GraphError> {
        self.check_node(id)?;
        Ok(&self.nodes[id.index()].label)
    }

    /// Replaces a node's label.
    pub fn set_node_label(
        &mut self,
        id: NodeId,
        label: impl Into<String>,
    ) -> Result<(), GraphError> {
        self.check_node(id)?;
        self.nodes[id.index()].label = label.into();
        Ok(())
    }

    /// The attributes of a live node.
    pub fn node_attrs(&self, id: NodeId) -> Result<&Attrs, GraphError> {
        self.check_node(id)?;
        Ok(&self.nodes[id.index()].attrs)
    }

    /// Mutable attributes of a live node.
    pub fn node_attrs_mut(&mut self, id: NodeId) -> Result<&mut Attrs, GraphError> {
        self.check_node(id)?;
        Ok(&mut self.nodes[id.index()].attrs)
    }

    /// Convenience: sets one node attribute.
    pub fn set_node_attr(
        &mut self,
        id: NodeId,
        key: impl Into<String>,
        value: impl Into<AttrValue>,
    ) -> Result<(), GraphError> {
        self.node_attrs_mut(id)?.insert(key.into(), value.into());
        Ok(())
    }

    /// The label of a live edge.
    pub fn edge_label(&self, id: EdgeId) -> Result<&str, GraphError> {
        if !self.contains_edge(id) {
            return Err(GraphError::EdgeNotFound(id));
        }
        Ok(&self.edges[id.index()].label)
    }

    /// Replaces an edge's label.
    pub fn set_edge_label(
        &mut self,
        id: EdgeId,
        label: impl Into<String>,
    ) -> Result<(), GraphError> {
        if !self.contains_edge(id) {
            return Err(GraphError::EdgeNotFound(id));
        }
        self.edges[id.index()].label = label.into();
        Ok(())
    }

    /// The attributes of a live edge.
    pub fn edge_attrs(&self, id: EdgeId) -> Result<&Attrs, GraphError> {
        if !self.contains_edge(id) {
            return Err(GraphError::EdgeNotFound(id));
        }
        Ok(&self.edges[id.index()].attrs)
    }

    /// Mutable attributes of a live edge.
    pub fn edge_attrs_mut(&mut self, id: EdgeId) -> Result<&mut Attrs, GraphError> {
        if !self.contains_edge(id) {
            return Err(GraphError::EdgeNotFound(id));
        }
        Ok(&mut self.edges[id.index()].attrs)
    }

    /// The `(src, dst)` endpoints of a live edge.
    pub fn edge_endpoints(&self, id: EdgeId) -> Result<(NodeId, NodeId), GraphError> {
        if !self.contains_edge(id) {
            return Err(GraphError::EdgeNotFound(id));
        }
        let e = &self.edges[id.index()];
        Ok((e.src, e.dst))
    }

    /// Iterator over live node ids, in ascending id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.removed)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Iterator over live edge ids, in ascending id order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.removed)
            .map(|(i, _)| EdgeId(i as u32))
    }

    /// Out-neighbours of `id` as `(neighbour, edge)` pairs. For undirected
    /// graphs this is all neighbours.
    pub fn neighbors(&self, id: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.out_adj
            .get(id.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// In-neighbours of `id`. Empty for undirected graphs — use
    /// [`Graph::neighbors`] there.
    pub fn in_neighbors(&self, id: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.in_adj
            .get(id.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// All neighbours regardless of direction (union of out and in lists).
    pub fn undirected_neighbors(&self, id: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.neighbors(id).chain(self.in_neighbors(id))
    }

    /// Out-degree of a node (total degree for undirected graphs).
    pub fn degree(&self, id: NodeId) -> usize {
        self.out_adj.get(id.index()).map_or(0, |v| v.len())
    }

    /// In-degree of a node (0 for undirected graphs).
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.in_adj.get(id.index()).map_or(0, |v| v.len())
    }

    /// Total degree: out + in for directed graphs, degree for undirected.
    pub fn total_degree(&self, id: NodeId) -> usize {
        self.degree(id) + self.in_degree(id)
    }

    /// Rebuilds the graph with dense, gap-free ids.
    ///
    /// Returns the compacted graph and, for each old live node id, its new id
    /// (`mapping[old.index()] == Some(new)`).
    pub fn compact(&self) -> (Graph, Vec<Option<NodeId>>) {
        let mut mapping: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut g = Graph::new(self.direction);
        g.set_name(self.name.clone());
        for id in self.node_ids() {
            let slot = &self.nodes[id.index()];
            let new = g.add_node_with_attrs(slot.label.clone(), slot.attrs.clone());
            mapping[id.index()] = Some(new);
        }
        for eid in self.edge_ids() {
            let e = &self.edges[eid.index()];
            // Both endpoints of a live edge are live, so the mapping always
            // resolves; a compacted edge cannot collide because the source
            // graph held it without collision.
            if let (Some(src), Some(dst)) = (mapping[e.src.index()], mapping[e.dst.index()]) {
                let added = g.add_edge_with_attrs(src, dst, e.label.clone(), e.attrs.clone());
                debug_assert!(added.is_ok(), "compacted edges cannot collide");
            } else {
                debug_assert!(false, "live edge endpoint must be live");
            }
        }
        (g, mapping)
    }

    /// Builds the subgraph induced by `nodes` (live ids only).
    ///
    /// Returns the subgraph plus the mapping from old node ids to new.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<Option<NodeId>>) {
        let mut mapping: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut g = Graph::new(self.direction);
        g.set_name(format!("{}-sub", self.name));
        for &id in nodes {
            if self.contains_node(id) && mapping[id.index()].is_none() {
                let slot = &self.nodes[id.index()];
                mapping[id.index()] =
                    Some(g.add_node_with_attrs(slot.label.clone(), slot.attrs.clone()));
            }
        }
        for eid in self.edge_ids() {
            let e = &self.edges[eid.index()];
            if let (Some(src), Some(dst)) = (mapping[e.src.index()], mapping[e.dst.index()]) {
                let added = g.add_edge_with_attrs(src, dst, e.label.clone(), e.attrs.clone());
                debug_assert!(added.is_ok(), "induced edges cannot collide");
            }
        }
        (g, mapping)
    }

    /// Sorted multiset of node labels — a cheap structural fingerprint used by
    /// the classifiers and tests.
    pub fn label_histogram(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
        for id in self.node_ids() {
            *counts.entry(&self.nodes[id.index()].label).or_default() += 1;
        }
        counts
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect()
    }

    /// The graph's content fingerprint: FNV-1a 64 over its slot-exact image
    /// ([`crate::delta::image_to_bytes`]). Tombstones are part of the image,
    /// so a graph with removed nodes and its [`Graph::compact`]ion — whose
    /// ids differ — fingerprint differently. Step-memo keys and the durable
    /// store's `Commit` records both use this one definition.
    pub fn fingerprint(&self) -> u64 {
        chatgraph_support::hash::fnv1a64(&crate::delta::image_to_bytes(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::undirected();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let c = g.add_node("C");
        g.add_edge(a, b, "x").unwrap();
        g.add_edge(b, c, "y").unwrap();
        (g, a, b, c)
    }

    #[test]
    fn add_and_query_nodes_edges() {
        let (g, a, b, c) = path3();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node_label(a).unwrap(), "A");
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(b, a));
        assert!(!g.has_edge(a, c));
        assert_eq!(g.degree(b), 2);
    }

    #[test]
    fn directed_edges_are_oriented() {
        let mut g = Graph::directed();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_edge(a, b, "r").unwrap();
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        assert_eq!(g.degree(a), 1);
        assert_eq!(g.in_degree(b), 1);
        assert_eq!(g.total_degree(b), 1);
        // Reverse edge is a distinct edge, not a duplicate.
        g.add_edge(b, a, "r").unwrap();
        assert!(g.has_edge(b, a));
    }

    #[test]
    fn duplicate_and_self_loop_rejected() {
        let (mut g, a, b, _) = path3();
        assert_eq!(
            g.add_edge(a, b, "z").unwrap_err(),
            GraphError::DuplicateEdge(a, b)
        );
        assert_eq!(
            g.add_edge(b, a, "z").unwrap_err(),
            GraphError::DuplicateEdge(b, a)
        );
        assert_eq!(g.add_edge(a, a, "z").unwrap_err(), GraphError::SelfLoop(a));
    }

    #[test]
    fn remove_edge_keeps_ids_stable() {
        let (mut g, a, b, c) = path3();
        let e = g.find_edge(a, b).unwrap();
        g.remove_edge(e).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(a, b));
        assert!(g.has_edge(b, c));
        assert_eq!(g.remove_edge(e).unwrap_err(), GraphError::EdgeNotFound(e));
        // Re-adding after removal works and yields a fresh id.
        let e2 = g.add_edge(a, b, "x2").unwrap();
        assert_ne!(e, e2);
    }

    #[test]
    fn remove_node_cascades_to_incident_edges() {
        let (mut g, a, b, c) = path3();
        g.remove_node(b).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.contains_node(b));
        assert!(g.contains_node(a) && g.contains_node(c));
        assert!(g.node_label(b).is_err());
    }

    #[test]
    fn remove_node_directed_cascades_incoming() {
        let mut g = Graph::directed();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_edge(a, b, "r").unwrap();
        g.remove_node(b).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(a), 0);
    }

    #[test]
    fn attrs_roundtrip() {
        let (mut g, a, _, _) = path3();
        g.set_node_attr(a, "age", 30i64).unwrap();
        assert_eq!(g.node_attrs(a).unwrap()["age"].as_int(), Some(30));
        let e = g.edge_ids().next().unwrap();
        g.edge_attrs_mut(e)
            .unwrap()
            .insert("w".into(), AttrValue::Float(0.5));
        assert_eq!(g.edge_attrs(e).unwrap()["w"].as_float(), Some(0.5));
    }

    #[test]
    fn labels_can_be_rewritten() {
        let (mut g, a, _, _) = path3();
        g.set_node_label(a, "Z").unwrap();
        assert_eq!(g.node_label(a).unwrap(), "Z");
        let e = g.edge_ids().next().unwrap();
        g.set_edge_label(e, "zz").unwrap();
        assert_eq!(g.edge_label(e).unwrap(), "zz");
    }

    #[test]
    fn compact_renumbers_densely() {
        let (mut g, a, b, c) = path3();
        g.remove_node(a).unwrap();
        let (dense, mapping) = g.compact();
        assert_eq!(dense.node_count(), 2);
        assert_eq!(dense.edge_count(), 1);
        assert_eq!(mapping[a.index()], None);
        let nb = mapping[b.index()].unwrap();
        let nc = mapping[c.index()].unwrap();
        assert!(dense.has_edge(nb, nc));
        assert_eq!(dense.node_bound(), 2);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let (g, a, b, c) = path3();
        let (sub, mapping) = g.induced_subgraph(&[a, b]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert!(mapping[c.index()].is_none());
    }

    #[test]
    fn induced_subgraph_ignores_duplicates_and_dead_nodes() {
        let (mut g, a, b, _) = path3();
        g.remove_node(a).unwrap();
        let (sub, _) = g.induced_subgraph(&[a, b, b]);
        assert_eq!(sub.node_count(), 1);
    }

    #[test]
    fn label_histogram_sorted() {
        let mut g = Graph::undirected();
        g.add_node("C");
        g.add_node("O");
        g.add_node("C");
        assert_eq!(
            g.label_histogram(),
            vec![("C".to_owned(), 2), ("O".to_owned(), 1)]
        );
    }

    #[test]
    fn node_ids_skip_tombstones() {
        let (mut g, a, _, _) = path3();
        g.remove_node(a).unwrap();
        let ids: Vec<_> = g.node_ids().collect();
        assert_eq!(ids.len(), 2);
        assert!(!ids.contains(&a));
    }

    #[test]
    fn json_roundtrip_preserves_structure() {
        let (g, a, b, _) = path3();
        let s = chatgraph_support::json::to_string(&g);
        let back: Graph = chatgraph_support::json::from_str(&s).unwrap();
        assert_eq!(back.node_count(), 3);
        assert!(back.has_edge(a, b));
    }

    #[test]
    fn display_ids() {
        assert_eq!(NodeId(3).to_string(), "v3");
        assert_eq!(EdgeId(0).to_string(), "e0");
    }

    #[test]
    fn error_display() {
        let e = GraphError::DuplicateEdge(NodeId(1), NodeId(2));
        assert!(e.to_string().contains("already exists"));
    }
}
