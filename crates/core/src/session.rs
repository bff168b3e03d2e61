//! The chat session: ChatGraph's user-facing loop (paper Fig. 2).
//!
//! A [`ChatSession`] mirrors the three panels of the demo UI:
//!
//! * panel ① (dialog): [`ChatSession::transcript`] accumulates turns;
//! * panel ② (suggested questions): [`ChatSession::suggest_questions`];
//! * panel ③ (input): [`ChatSession::send`] takes a [`Prompt`].
//!
//! `send` proposes an API chain *without executing it* — the paper's
//! scenario 4 requires the user to confirm (and possibly edit) the chain —
//! and [`ChatSession::run_chain`] then executes a (possibly edited) chain
//! against the uploaded graph with full monitoring.
//!
//! ## Core vs. session
//!
//! The expensive, immutable parts — configuration, registry, retriever and
//! the finetuned model — live in a [`SessionCore`] shared behind `Arc`.
//! [`ChatSession::bootstrap`] builds a core and wraps one session around
//! it; [`crate::serve::SessionServer`] builds a core once and multiplexes
//! hundreds of cheap per-tenant sessions over it. Each session owns only
//! its mutable state: scheduler (with memo), graph, database, transcript.
//!
//! ## Graph identity
//!
//! The session graph lives behind a copy-on-write `Arc<Graph>`, and a
//! graph version is identified two ways, each for one job: the `Arc`
//! pointer keys the per-version caches (CSR snapshots, statistics
//! catalogs), and [`chatgraph_graph::Graph::fingerprint`] keys content —
//! the step memo and the store's commit records. Replacing the graph (a
//! new upload in [`ChatSession::send`] or [`ChatSession::set_graph`]) and
//! mutating it (an edit chain in [`ChatSession::run_chain`]) both install
//! a fresh `Arc` and *retire* the replaced one from both caches in one
//! step, so no cache — possibly shared across sessions — pins a dead
//! version's graph.

use crate::config::ChatGraphConfig;
use crate::dataset::{generate_corpus, CorpusParams};
use crate::finetune::{finetune, FinetuneMethod, FinetuneReport};
use crate::generation::{candidate_apis, ChainGenerator};
use crate::graph_aware::GraphAwareLm;
use crate::prompt::Prompt;
use crate::retrieval::ApiRetriever;
use chatgraph_analyzer::diag::Diagnostics;
use chatgraph_apis::{
    registry, ApiChain, ApiRegistry, ChainError, ChainEvent, CommitAck, CommitSink, ExecContext,
    KernelState, Monitor, Scheduler, StepMemo, Value,
};
use chatgraph_graph::csr::CsrCache;
use chatgraph_graph::stats::CatalogCache;
use chatgraph_graph::Graph;
use chatgraph_store::{GraphStore, RecoveryReport, StoreOpened};
use std::path::Path;
use std::sync::Arc;

/// Why a session could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The configuration failed [`ChatGraphConfig::validate`].
    InvalidConfig(Vec<String>),
    /// A saved model could not be parsed.
    Model(String),
    /// The durable store could not be opened or written.
    Store(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::InvalidConfig(problems) => {
                write!(f, "invalid config: {}", problems.join("; "))
            }
            SessionError::Model(e) => write!(f, "saved model is unusable: {e}"),
            SessionError::Store(e) => write!(f, "durable store error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Adapts a [`GraphStore`] to the scheduler's [`CommitSink`]: every
/// successful mutation barrier becomes one durable WAL commit, appended and
/// fsynced before the barrier's effects are published to the chain.
#[derive(Debug)]
struct StoreSink(Arc<GraphStore>);

impl CommitSink for StoreSink {
    fn commit(&self, graph: &Graph) -> Result<CommitAck, String> {
        self.0
            .commit(graph)
            .map(|r| CommitAck { epoch: r.epoch, records: r.records, bytes: r.bytes })
            .map_err(|e| e.to_string())
    }
}

/// One transcript turn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Turn {
    /// The user's message.
    User(String),
    /// The system's reply.
    System(String),
}

/// The system's answer to one prompt.
#[derive(Debug, Clone)]
pub struct ChatResponse {
    /// The proposed API chain (awaiting confirmation).
    pub chain: ApiChain,
    /// The candidate APIs that were offered to the decoder.
    pub candidates: Vec<String>,
    /// The predicted graph type, when a graph was attached.
    pub graph_type: Option<String>,
    /// Static-analysis findings on the proposed chain (scenario 4: shown to
    /// the user alongside the confirmation request, before execution).
    pub diagnostics: Diagnostics,
    /// The reply text shown in the dialog panel.
    pub message: String,
}

/// The immutable, shareable part of the stack: configuration, registry,
/// retriever, and the finetuned graph-aware model.
///
/// Building a core is expensive (it finetunes the model); wrapping a
/// [`ChatSession`] around an existing `Arc<SessionCore>` is cheap. All
/// fields are read-only after construction, so one core safely serves any
/// number of concurrent sessions.
pub struct SessionCore {
    config: ChatGraphConfig,
    registry: ApiRegistry,
    retriever: ApiRetriever,
    lm: GraphAwareLm,
    generator: ChainGenerator,
}

impl SessionCore {
    /// Builds a core: standard registry, retriever over it, and a model
    /// finetuned on the synthetic corpus (the offline stand-in for the
    /// paper's pre-finetuned checkpoints).
    pub fn bootstrap(
        config: ChatGraphConfig,
        corpus_size: usize,
    ) -> Result<(Arc<SessionCore>, FinetuneReport), SessionError> {
        config.validate().map_err(SessionError::InvalidConfig)?;
        let registry = registry::standard();
        let retriever = ApiRetriever::build(&registry, &config.retrieval);
        let mut lm = GraphAwareLm::new(&registry, &config);
        let corpus = generate_corpus(
            &CorpusParams {
                size: corpus_size,
                small_graphs: true,
            },
            config.seed,
        );
        let report = finetune(
            &mut lm,
            &registry,
            &retriever,
            &corpus,
            FinetuneMethod::Full,
            &config,
        );
        Ok((Arc::new(SessionCore::assemble(config, registry, retriever, lm)), report))
    }

    /// Builds a core around a previously finetuned model (saved with
    /// [`SessionCore::save_model`]), skipping the finetuning pass.
    pub fn from_saved_model(
        config: ChatGraphConfig,
        model_json: &str,
    ) -> Result<Arc<SessionCore>, SessionError> {
        config.validate().map_err(SessionError::InvalidConfig)?;
        let registry = registry::standard();
        let retriever = ApiRetriever::build(&registry, &config.retrieval);
        let lm = GraphAwareLm::load_json(model_json)
            .map_err(|e| SessionError::Model(e.to_string()))?;
        Ok(Arc::new(SessionCore::assemble(config, registry, retriever, lm)))
    }

    fn assemble(
        config: ChatGraphConfig,
        registry: ApiRegistry,
        retriever: ApiRetriever,
        lm: GraphAwareLm,
    ) -> SessionCore {
        let generator = ChainGenerator {
            max_len: config.finetune.max_chain_len,
        };
        SessionCore {
            config,
            registry,
            retriever,
            lm,
            generator,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ChatGraphConfig {
        &self.config
    }

    /// The API registry.
    pub fn registry(&self) -> &ApiRegistry {
        &self.registry
    }

    /// The retrieval module.
    pub fn retriever(&self) -> &ApiRetriever {
        &self.retriever
    }

    /// Serialises the finetuned model for [`SessionCore::from_saved_model`].
    pub fn save_model(&self) -> String {
        self.lm.save_json()
    }
}

/// A full ChatGraph session: one tenant's mutable state over a shared
/// [`SessionCore`].
pub struct ChatSession {
    core: Arc<SessionCore>,
    scheduler: Scheduler,
    /// CSR snapshot cache used by this session's executions. Private by
    /// default; [`ChatSession::use_shared_csr`] swaps in a server-global
    /// one.
    csr_cache: Arc<CsrCache>,
    /// Statistics catalogs per graph version, shared with executions so
    /// the planner's cost model prices steps from a cached O(n + m) pass.
    catalog_cache: Arc<CatalogCache>,
    /// The graph uploaded most recently (the session graph), shared
    /// copy-on-write with executions and caches; see the module docs.
    graph: Option<Arc<Graph>>,
    /// The molecule database for similarity search, shared with executions
    /// without copying.
    pub database: Arc<Vec<Graph>>,
    transcript: Vec<Turn>,
    /// The durable store backing this session, when one is attached.
    store: Option<Arc<GraphStore>>,
    /// A recovery performed at open, not yet surfaced: the next
    /// [`ChatSession::run_chain`] emits it as [`ChainEvent::Recovered`].
    pending_recovery: Option<RecoveryReport>,
}

impl ChatSession {
    /// Builds a session with its own private core — bootstrap finetunes a
    /// model, so this is expensive; to share the cost across sessions use
    /// [`SessionCore::bootstrap`] + [`ChatSession::from_core`] (what
    /// [`crate::serve::SessionServer`] does).
    pub fn bootstrap(
        config: ChatGraphConfig,
        corpus_size: usize,
    ) -> Result<(Self, FinetuneReport), SessionError> {
        let (core, report) = SessionCore::bootstrap(config, corpus_size)?;
        let mut session = ChatSession::from_core(core);
        session.open_configured_store()?;
        Ok((session, report))
    }

    /// Builds a session around a previously finetuned model (saved with
    /// [`ChatSession::save_model`]), skipping the finetuning pass.
    pub fn from_saved_model(
        config: ChatGraphConfig,
        model_json: &str,
    ) -> Result<Self, SessionError> {
        let core = SessionCore::from_saved_model(config, model_json)?;
        let mut session = ChatSession::from_core(core);
        session.open_configured_store()?;
        Ok(session)
    }

    /// Restores a full session from a durable store file: the finetuned
    /// model comes from the store's `Model` record, the graph from its last
    /// committed epoch. The recovery is also left pending, so the first
    /// `run_chain` surfaces it as [`ChainEvent::Recovered`].
    pub fn from_store(
        config: ChatGraphConfig,
        path: impl AsRef<Path>,
    ) -> Result<(Self, RecoveryReport), SessionError> {
        let (store, report) =
            GraphStore::open(path).map_err(|e| SessionError::Store(e.to_string()))?;
        let model = store
            .model()
            .ok_or_else(|| SessionError::Store("store holds no saved model".to_owned()))?;
        let core = SessionCore::from_saved_model(config, &model)?;
        let mut session = ChatSession::from_core(core);
        session.replace_graph(Some(Arc::new(store.graph())));
        session.pending_recovery = Some(report);
        session.attach_store(Arc::new(store));
        Ok((session, report))
    }

    /// Wraps a cheap new session around a shared core. The scheduler is
    /// built through `Scheduler::from_exec_config` — the single
    /// construction path for every exec knob.
    pub fn from_core(core: Arc<SessionCore>) -> Self {
        let scheduler = Scheduler::from_exec_config(&core.config.exec.profile());
        ChatSession {
            core,
            scheduler,
            csr_cache: Arc::new(CsrCache::default()),
            catalog_cache: Arc::new(CatalogCache::default()),
            graph: None,
            database: Arc::new(Vec::new()),
            transcript: Vec::new(),
            store: None,
            pending_recovery: None,
        }
    }

    /// The shared core this session runs on.
    pub fn core(&self) -> &Arc<SessionCore> {
        &self.core
    }

    /// Serialises the finetuned model for [`ChatSession::from_saved_model`].
    pub fn save_model(&self) -> String {
        self.core.save_model()
    }

    /// The configuration in use.
    pub fn config(&self) -> &ChatGraphConfig {
        self.core.config()
    }

    /// The API registry.
    pub fn registry(&self) -> &ApiRegistry {
        self.core.registry()
    }

    /// The retrieval module.
    pub fn retriever(&self) -> &ApiRetriever {
        self.core.retriever()
    }

    /// The dialog transcript (panel ①).
    pub fn transcript(&self) -> &[Turn] {
        &self.transcript
    }

    /// The session graph, if one was uploaded.
    pub fn graph(&self) -> Option<&Graph> {
        self.graph.as_deref()
    }

    /// The session graph behind its copy-on-write handle.
    pub fn graph_arc(&self) -> Option<&Arc<Graph>> {
        self.graph.as_ref()
    }

    /// Replaces the session graph, retiring the replaced one from the
    /// per-version caches. With a store attached the upload is durably
    /// committed as its own epoch (best-effort: a commit failure marks the
    /// store dead and surfaces as [`ChainError::CommitFailed`] on the next
    /// mutating chain).
    pub fn set_graph(&mut self, graph: Graph) {
        self.replace_graph(Some(Arc::new(graph)));
        if let (Some(store), Some(g)) = (&self.store, &self.graph) {
            let _ = store.commit(g);
        }
    }

    /// Opens (or creates) a durable store at `path` and attaches it: the
    /// current graph (or an empty one) seeds a fresh file; an existing file
    /// is recovered and its last committed graph replaces the session
    /// graph. Once attached, every mutation barrier is WAL-committed before
    /// its effects are published.
    pub fn open_store(&mut self, path: impl AsRef<Path>) -> Result<StoreOpened, SessionError> {
        let init = match &self.graph {
            Some(g) => (**g).clone(),
            None => Graph::undirected(),
        };
        let (store, opened) =
            GraphStore::open_or_create(path, &init).map_err(|e| SessionError::Store(e.to_string()))?;
        if let StoreOpened::Recovered(report) = opened {
            self.replace_graph(Some(Arc::new(store.graph())));
            self.pending_recovery = Some(report);
        }
        self.attach_store(Arc::new(store));
        Ok(opened)
    }

    /// Detaches the durable store: mutations stop being logged; the file
    /// keeps its last durable state.
    pub fn close_store(&mut self) {
        self.store = None;
        self.scheduler.set_commit_sink(None);
    }

    /// The attached durable store, if any.
    pub fn store(&self) -> Option<&Arc<GraphStore>> {
        self.store.as_ref()
    }

    /// Durably saves the finetuned model into the attached store, so
    /// [`ChatSession::from_store`] can restore the full session from the
    /// one file.
    pub fn persist_model(&self) -> Result<(), SessionError> {
        let store = self
            .store
            .as_ref()
            .ok_or_else(|| SessionError::Store("no store attached".to_owned()))?;
        store
            .put_model(&self.save_model())
            .map_err(|e| SessionError::Store(e.to_string()))
    }

    /// Compacts the attached store's WAL now (the REPL's `:checkpoint`).
    pub fn checkpoint_store(&self) -> Result<chatgraph_store::CheckpointReport, SessionError> {
        let store = self
            .store
            .as_ref()
            .ok_or_else(|| SessionError::Store("no store attached".to_owned()))?;
        store.checkpoint().map_err(|e| SessionError::Store(e.to_string()))
    }

    fn attach_store(&mut self, store: Arc<GraphStore>) {
        self.scheduler
            .set_commit_sink(Some(Arc::new(StoreSink(Arc::clone(&store)))));
        self.store = Some(store);
    }

    fn open_configured_store(&mut self) -> Result<(), SessionError> {
        if self.core.config.store.enabled() {
            let path = self.core.config.store.path.clone();
            self.open_store(path)?;
        }
        Ok(())
    }

    /// Removes and returns the session graph (cloning only if it is still
    /// shared elsewhere), retiring it from the per-version caches.
    pub fn take_graph(&mut self) -> Option<Graph> {
        let old = self.replace_graph(None)?;
        Some(Arc::try_unwrap(old).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// The one retirement rule: swaps the session graph and evicts the
    /// replaced version from every per-version cache (CSR snapshots and
    /// statistics catalogs, either possibly shared), so a dead version
    /// pins no memory. A new graph is always a fresh `Arc`, so
    /// pointer-keyed caches never serve it data derived from the old one.
    fn replace_graph(&mut self, graph: Option<Arc<Graph>>) -> Option<Arc<Graph>> {
        let old = std::mem::replace(&mut self.graph, graph)?;
        self.csr_cache.invalidate(&old);
        self.catalog_cache.invalidate(&old);
        Some(old)
    }

    /// Attaches a molecule database for similarity search.
    pub fn set_database(&mut self, database: Vec<Graph>) {
        self.database = Arc::new(database);
    }

    /// Routes this session's pure-step memoization through a shared
    /// (server-global) cache. Sound across tenants: keys fingerprint api,
    /// params, seed, graph and inputs, and only `Ok` results are stored.
    pub fn use_shared_memo(&mut self, memo: Arc<StepMemo>) {
        self.scheduler.set_shared_memo(memo);
    }

    /// Routes this session's CSR snapshots through a shared
    /// (server-global) cache. Entries are keyed by `Arc` pointer identity,
    /// and every replacement/mutation allocates a fresh `Arc` and retires
    /// the replaced one, so tenants cannot observe each other's snapshots
    /// as their own.
    pub fn use_shared_csr(&mut self, cache: Arc<CsrCache>) {
        self.csr_cache = cache;
    }

    /// Arms (or clears) deterministic fault injection on the chain
    /// scheduler — the REPL's `:faults` command and the test harness.
    pub fn set_fault_plan(&mut self, faults: Option<chatgraph_apis::FaultPlan>) {
        self.scheduler.set_fault_plan(faults);
    }

    /// Overrides the supervisor failure policy for this session only.
    pub fn set_failure_policy(&mut self, policy: chatgraph_apis::FailurePolicy) {
        self.scheduler.supervisor_mut().failure_policy = policy;
    }

    /// The chain scheduler's supervisor configuration.
    pub fn supervisor(&self) -> &chatgraph_apis::SupervisorConfig {
        self.scheduler.supervisor()
    }

    /// A handle to this session's step memo (shared or private).
    pub fn memo_handle(&self) -> Arc<StepMemo> {
        self.scheduler.memo_handle()
    }

    /// Suggested questions for the current graph (panel ②), driven by the
    /// predicted graph type.
    pub fn suggest_questions(&self) -> Vec<String> {
        let kind = self
            .graph
            .as_deref()
            .map(chatgraph_apis::impls::structure::predict_type)
            .unwrap_or("generic");
        let suggestions: &[&str] = match kind {
            "social" => &[
                "Write a brief report for G",
                "What communities exist in G?",
                "Who are the most influential users?",
                "Is the network connected?",
            ],
            "molecule" => &[
                "Write a brief report for G",
                "How toxic is this molecule?",
                "What molecules are similar to G?",
                "What is the chemical formula of G?",
            ],
            "knowledge" => &[
                "Clean G",
                "Are there schema violations in G?",
                "What facts does G contain?",
            ],
            _ => &[
                "How big is this graph?",
                "Is the graph connected?",
            ],
        };
        suggestions.iter().map(|s| s.to_string()).collect()
    }

    /// Handles one prompt: stores the uploaded graph, retrieves candidates,
    /// generates a chain, and proposes it for confirmation.
    pub fn send(&mut self, prompt: Prompt) -> ChatResponse {
        self.transcript.push(Turn::User(prompt.text.clone()));
        if let Some(g) = prompt.graph {
            // A new upload is a new graph version: fresh `Arc`, replaced
            // version retired — pointer-keyed caches must not keep serving
            // (or pinning) the replaced graph.
            self.set_graph(g);
        }
        let graph_type = self
            .graph
            .as_deref()
            .map(|g| chatgraph_apis::impls::structure::predict_type(g).to_owned());
        let candidates = candidate_apis(
            &self.core.registry,
            &self.core.retriever,
            &prompt.text,
            self.graph.as_deref(),
        );
        let chain = self.core.generator.generate_greedy_checked(
            &self.core.lm,
            &self.core.registry,
            &prompt.text,
            self.graph.as_deref(),
            &candidates,
        );
        // Scenario 4: analyse the proposal before the user confirms, so the
        // warnings (bad parameters, discarded outputs, confirmation-gated
        // steps) are visible while the chain can still be edited.
        let diagnostics = if chain.is_empty() {
            Diagnostics::new()
        } else {
            chatgraph_apis::analysis::analyze(&chain, &self.core.registry, self.graph.is_some())
        };
        let mut message = match (&graph_type, chain.is_empty()) {
            (_, true) => "I could not find a suitable API chain; please rephrase.".to_owned(),
            (Some(t), false) => format!(
                "G looks like a {t} graph. I propose the API chain: {chain}. Confirm to execute."
            ),
            (None, false) => format!(
                "I propose the API chain: {chain}. Confirm to execute."
            ),
        };
        if !diagnostics.is_empty() {
            message.push_str("\nAnalysis notes:\n");
            message.push_str(&diagnostics.render_text());
        }
        self.transcript.push(Turn::System(message.clone()));
        ChatResponse {
            chain,
            candidates,
            graph_type,
            diagnostics,
            message,
        }
    }

    /// Executes a (confirmed, possibly user-edited) chain against the
    /// session graph, streaming progress through `monitor`. The session
    /// graph is updated in place by edit APIs.
    ///
    /// Execution goes through the plan [`Scheduler`] configured by
    /// [`crate::config::ExecConfig`]: with `workers: 1` this is exactly the
    /// sequential executor; with more workers, independent read-only steps
    /// run concurrently over a shared graph snapshot, with identical
    /// results.
    pub fn run_chain(
        &mut self,
        chain: &ApiChain,
        monitor: &mut dyn Monitor,
    ) -> Result<Value, ChainError> {
        // Surface a recovery performed at open on the first chain after it,
        // in-stream with the execution events.
        if let Some(r) = self.pending_recovery.take() {
            monitor.on_event(&ChainEvent::Recovered {
                epoch: r.epoch,
                records_replayed: r.records_replayed,
                tail_dropped: r.tail_dropped,
            });
        }
        let before = match &self.graph {
            Some(g) => Arc::clone(g),
            None => Arc::new(Graph::undirected()),
        };
        let mut ctx = ExecContext::new(Arc::clone(&before))
            .with_database(Arc::clone(&self.database))
            .with_seed(self.core.config.seed)
            .with_kernels(
                KernelState::with_cache(Arc::clone(&self.csr_cache))
                    .with_catalogs(Arc::clone(&self.catalog_cache)),
            );
        let result = self
            .scheduler
            .execute(&self.core.registry, chain, &mut ctx, monitor);
        // Persist mutations (scenario 3 cleans the session graph in place),
        // even when the chain failed part-way: completed edits happened.
        // Copy-on-write means a mutated graph is a new `Arc` — a new version.
        let after = Arc::clone(&ctx.graph);
        drop(ctx);
        if Arc::ptr_eq(&before, &after) {
            self.graph = Some(after);
        } else {
            self.replace_graph(Some(after));
        }
        if let Ok(value) = &result {
            self.transcript
                .push(Turn::System(format!("Executed {chain}: {}", value.summary())));
            // Periodic WAL compaction: after a clean chain, once enough
            // commits accumulated since the last checkpoint.
            let every = self.core.config.store.checkpoint_every;
            if let Some(store) = &self.store {
                if every > 0 && store.commits_since_checkpoint() >= every {
                    if let Ok(r) = store.checkpoint() {
                        monitor.on_event(&ChainEvent::Checkpointed {
                            epoch: r.epoch,
                            bytes: r.file_bytes,
                            reclaimed: r.reclaimed,
                        });
                    }
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatgraph_apis::CollectingMonitor;
    use chatgraph_graph::generators::{
        molecule, social_network, MoleculeParams, SocialParams,
    };

    use crate::scenarios::test_support::with_session;

    #[test]
    fn bootstrap_trains_a_usable_model() {
        with_session(|s| {
        let g = social_network(&SocialParams::default(), 9);
        let resp = s.send(Prompt::with_graph("detect the communities of this social network", g));
        assert_eq!(resp.graph_type.as_deref(), Some("social"));
        assert!(
            resp.chain.api_names().contains(&"detect_communities"),
            "chain: {}",
            resp.chain
        );
        });
    }

    #[test]
    fn proposed_chains_carry_no_error_diagnostics() {
        with_session(|s| {
            let g = social_network(&SocialParams::default(), 5);
            let resp = s.send(Prompt::with_graph("write a brief report for G", g));
            // Checked decoding prunes type-flow errors, so whatever the model
            // proposes analyses clean at the Error level; warnings may remain.
            assert!(
                resp.diagnostics.first_error().is_none(),
                "{}",
                resp.diagnostics.render_text()
            );
        });
    }

    #[test]
    fn suggestions_track_graph_type() {
        with_session(|s| {
        assert!(s.suggest_questions()[0].contains("big"));
        s.set_graph(molecule(&MoleculeParams::default(), 1));
        assert!(s.suggest_questions().iter().any(|q| q.contains("toxic")));
        s.set_graph(social_network(&SocialParams::default(), 1));
        assert!(s.suggest_questions().iter().any(|q| q.contains("communities")));
        });
    }

    #[test]
    fn send_then_run_chain_executes_and_logs() {
        with_session(|s| {
        let g = social_network(&SocialParams::default(), 4);
        let resp = s.send(Prompt::with_graph("how many communities does G have?", g));
        assert!(!resp.chain.is_empty(), "{resp:?}");
        let mut mon = CollectingMonitor::new();
        let out = s.run_chain(&resp.chain, &mut mon).unwrap();
        assert!(out.value_type() != chatgraph_apis::ValueType::Unit);
        assert!(s.transcript().len() >= 3);
        assert!(!mon.events.is_empty());
        });
    }

    #[test]
    fn text_only_prompt_is_answered_without_a_graph() {
        with_session(|s| {
            let before = s.transcript().len();
            let resp = s.send(Prompt::text("how many nodes does the graph have?"));
            // No graph uploaded: no type prediction, but a proposal is made
            // from retrieval candidates alone.
            assert_eq!(resp.graph_type, None);
            assert!(!resp.message.is_empty());
            // Transcript grew by the user turn and the system reply, in order.
            let t = s.transcript();
            assert_eq!(t.len(), before + 2);
            assert!(matches!(t[t.len() - 2], Turn::User(_)));
            assert!(matches!(t[t.len() - 1], Turn::System(_)));
        });
    }

    #[test]
    fn saved_model_session_answers_identically() {
        with_session(|s| {
            let saved = s.save_model();
            let mut restored =
                ChatSession::from_saved_model(s.config().clone(), &saved).unwrap();
            let g = social_network(&SocialParams::default(), 6);
            let q = "detect the communities of this social network";
            let original = s.send(Prompt::with_graph(q, g.clone()));
            let reloaded = restored.send(Prompt::with_graph(q, g));
            assert_eq!(original.chain, reloaded.chain);
        });
    }

    #[test]
    fn run_chain_persists_graph_edits() {
        use chatgraph_graph::generators::{corrupt_kg, knowledge_graph, KgParams};
        with_session(|s| {
        let mut g = knowledge_graph(&KgParams::default(), 8);
        corrupt_kg(&mut g, 0.1, 0.05, 8);
        let before_edges = g.edge_count();
        s.set_graph(g);
        let chain = ApiChain::from_names(["detect_missing_edges", "add_edges"]);
        let mut mon = CollectingMonitor::new();
        let added = s.run_chain(&chain, &mut mon).unwrap().as_number().unwrap();
        assert!(added > 0.0);
        assert_eq!(
            s.graph().unwrap().edge_count(),
            before_edges + added as usize
        );
        });
    }

    #[test]
    fn store_backed_session_replays_bit_identical_chain_results() {
        use chatgraph_graph::generators::{corrupt_kg, knowledge_graph, KgParams};

        let path = std::env::temp_dir().join(format!(
            "chatgraph-session-diff-{}.cgdb",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        let mut g0 = knowledge_graph(&KgParams::default(), 21);
        corrupt_kg(&mut g0, 0.1, 0.05, 21);
        let mutating = ApiChain::from_names(["detect_missing_edges", "add_edges"]);
        let readonly = ApiChain::from_names(["node_count"]);

        // In-memory reference: mutate, then query.
        let (mem_v1, mem_v2, mem_fp) = with_session(|s| {
            s.set_graph(g0.clone());
            let v1 = s.run_chain(&mutating, &mut CollectingMonitor::new()).unwrap();
            let v2 = s.run_chain(&readonly, &mut CollectingMonitor::new()).unwrap();
            (v1, v2, s.graph().unwrap().fingerprint())
        });

        // Store-backed run of the identical mutating chain, checkpointed
        // and persisted, then abandoned (simulating a process exit).
        let (store_v1, store_fp, config) = with_session(|s| {
            s.open_store(&path).unwrap();
            s.set_graph(g0.clone());
            let v1 = s.run_chain(&mutating, &mut CollectingMonitor::new()).unwrap();
            s.persist_model().unwrap();
            s.checkpoint_store().unwrap();
            (v1, s.graph().unwrap().fingerprint(), s.config().clone())
        });
        assert_eq!(mem_v1, store_v1, "store-backed chain diverged from in-memory");
        assert_eq!(mem_fp, store_fp, "graphs diverged after the mutating chain");

        // Reopen from the file alone: the recovered session answers the
        // follow-up chain bit-identically to the in-memory one.
        let (mut restored, report) = ChatSession::from_store(config, &path).unwrap();
        assert_eq!(report.tail_dropped, 0);
        assert_eq!(restored.graph().unwrap().fingerprint(), mem_fp);
        let v2 = restored
            .run_chain(&readonly, &mut CollectingMonitor::new())
            .unwrap();
        assert_eq!(mem_v2, v2, "recovered session diverged on the follow-up chain");
        let _ = std::fs::remove_file(&path);
    }

    /// A replaced graph version — by upload or by a mutating chain — is
    /// retired from every per-version cache: nothing but the caller's own
    /// handle may keep it alive afterwards.
    #[test]
    fn replaced_graphs_are_retired_from_every_cache() {
        use chatgraph_graph::generators::{corrupt_kg, knowledge_graph, KgParams};
        with_session(|s| {
            let analytics = ApiChain::from_names(["largest_component", "node_count"]);
            s.set_graph(social_network(&SocialParams::default(), 3));
            // Warm the CSR snapshot and the statistics catalog of this version.
            s.run_chain(&analytics, &mut CollectingMonitor::new()).unwrap();
            let old = Arc::clone(s.graph_arc().unwrap());
            let mut kg = knowledge_graph(&KgParams::default(), 8);
            corrupt_kg(&mut kg, 0.1, 0.05, 8);
            s.set_graph(kg);
            assert_eq!(Arc::strong_count(&old), 1, "a cache still holds the uploaded-over graph");

            s.run_chain(&analytics, &mut CollectingMonitor::new()).unwrap();
            let old = Arc::clone(s.graph_arc().unwrap());
            let edit = ApiChain::from_names(["detect_missing_edges", "add_edges"]);
            s.run_chain(&edit, &mut CollectingMonitor::new()).unwrap();
            assert!(!Arc::ptr_eq(&old, s.graph_arc().unwrap()), "the chain must mutate");
            assert_eq!(Arc::strong_count(&old), 1, "a cache still holds the pre-edit graph");
        });
    }

    /// Regression test for the shared-CSR staleness hazard: after a tenant
    /// replaces its graph mid-session, kernels must run against the new
    /// epoch's snapshot, never the pointer-keyed snapshot of the old one.
    #[test]
    fn replaced_graph_is_never_served_from_stale_csr() {
        with_session(|s| {
            let small = social_network(&SocialParams::default(), 3);
            let small_nodes = small.node_count();
            s.set_graph(small);
            let chain = ApiChain::from_names(["largest_component", "node_count"]);
            let mut mon = CollectingMonitor::new();
            // Warm the CSR cache on the small graph's epoch.
            s.run_chain(&chain, &mut mon).unwrap();
            let big = social_network(
                &SocialParams {
                    communities: 4,
                    community_size: 40,
                    p_intra: 0.3,
                    p_inter: 0.02,
                },
                5,
            );
            let big_nodes = big.node_count();
            assert_ne!(small_nodes, big_nodes);
            s.set_graph(big);
            let mut mon = CollectingMonitor::new();
            let n = s.run_chain(&ApiChain::from_names(["node_count"]), &mut mon)
                .unwrap()
                .as_number()
                .unwrap();
            assert_eq!(n as usize, big_nodes, "kernel served a stale snapshot");
            // The component kernel (CSR-backed) must also see the new epoch.
            let mut mon = CollectingMonitor::new();
            let comp = s
                .run_chain(
                    &ApiChain::from_names(["largest_component", "node_count"]),
                    &mut mon,
                )
                .unwrap()
                .as_number()
                .unwrap() as usize;
            assert!(comp <= big_nodes);
            assert!(comp > small_nodes, "component came from the old graph");
        });
    }
}
