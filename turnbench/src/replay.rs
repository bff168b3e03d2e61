//! The traced replay: the served requests again, one thread, through each
//! layer's public functions, with a span around every call.
//!
//! `ChatSession::send` is re-composed from `predict_type`,
//! `candidate_apis`, `ChainGenerator::generate_greedy_checked` (over a
//! model copy loaded via `save_model` → `GraphAwareLm::load_json`) and
//! `analysis::analyze`; `ChatSession::run_chain` from `Scheduler::execute`
//! with a timing `CommitSink` around `GraphStore::commit`. These spans sit
//! under one root per request. Calls nested inside another public function
//! (graph context, path cover, sequentialisation, retrieval search, plan,
//! audit, fingerprint, statistics catalog, delta diff, upload) are timed
//! again as standalone calls on the same input, under a separate
//! `standalone.*` root, so they never inflate the request's own time.

use crate::load::{Outcome, Record};
use crate::trace::{self_times, Tracer};
use crate::workload::{Inputs, Sent};
use chatgraph_ann::eval::SearchStats;
use chatgraph_apis::{
    analysis, ApiChain, ChainEvent, CollectingMonitor, CommitAck, CommitSink, ExecContext,
    KernelState, Plan, Scheduler,
};
use chatgraph_core::generation::candidate_apis;
use chatgraph_core::session::{ChatSession, SessionCore};
use chatgraph_core::{ChainGenerator, GraphAwareLm};
use chatgraph_graph::delta::GraphDelta;
use chatgraph_graph::{CatalogCache, CsrCache, Graph, StatsCatalog};
use chatgraph_sequencer::{path_cover, sequentialize, CoverParams};
use chatgraph_store::GraphStore;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Commit sink that times each `GraphStore::commit` on the tracer's clock.
#[derive(Debug)]
struct TimedSink {
    store: Arc<GraphStore>,
    origin: Instant,
    /// `(start_ns, end_ns, bytes)` of commits not yet folded into spans.
    log: Mutex<Vec<(u64, u64, u64)>>,
}

impl CommitSink for TimedSink {
    fn commit(&self, graph: &Graph) -> Result<CommitAck, String> {
        let start = self.origin.elapsed().as_nanos() as u64;
        let receipt = self.store.commit(graph).map_err(|e| e.to_string())?;
        let end = self.origin.elapsed().as_nanos() as u64;
        self.log
            .lock()
            .map_err(|_| "commit log poisoned".to_owned())?
            .push((start, end, receipt.bytes));
        Ok(CommitAck {
            epoch: receipt.epoch,
            records: receipt.records,
            bytes: receipt.bytes,
        })
    }
}

/// One tenant's state, mirroring what a `ChatSession` holds.
struct Tenant {
    graph: Option<Arc<Graph>>,
    /// Bumped whenever the graph is replaced or mutated.
    version: u64,
    /// The graph version the last context extraction featurised.
    featurised: Option<u64>,
    database: Arc<Vec<Graph>>,
    scheduler: Scheduler,
    csr: Arc<CsrCache>,
    catalogs: Arc<CatalogCache>,
    store: Option<Arc<GraphStore>>,
    sink: Option<Arc<TimedSink>>,
}

impl Tenant {
    fn install(&mut self, graph: Arc<Graph>) {
        if let Some(old) = self.graph.take() {
            self.csr.invalidate(&old);
        }
        self.version += 1;
        self.graph = Some(graph);
    }
}

/// Per-layer samples gathered by the replay.
#[derive(Debug, Default)]
pub struct Samples {
    /// Millisecond samples per metric name.
    pub ms: BTreeMap<&'static str, Vec<f64>>,
    /// Count samples per metric name.
    pub counts: BTreeMap<&'static str, Vec<f64>>,
    /// Chat turns replayed / those whose graph version was already featurised.
    pub contexts: (u64, u64),
    /// Replayed chats' context time and root time, ms (for the share).
    pub propose_context: (f64, f64),
    /// Fingerprint ÷ execute time of replayed requests the memo answered fully.
    pub warm_fingerprint_share: Vec<f64>,
    /// Unattributed time of each request root, ms.
    pub unattributed_ms: Vec<f64>,
    /// Traced root time of each replayed request, ms, keyed by record.
    pub root_ms: BTreeMap<usize, f64>,
    /// Replies differing from the served ones.
    pub mismatched: u64,
    /// Requests replayed.
    pub replayed: u64,
}

impl Samples {
    fn ms(&mut self, name: &'static str, nanos: u64) {
        self.ms.entry(name).or_default().push(nanos as f64 / 1e6);
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }
}

/// Replays the records at `indices` (per tenant, in order), recording
/// spans into `tracer`. Store files for `edit_durable` go in `scratch`.
pub fn traced_replay(
    core: &Arc<SessionCore>,
    inputs: &Inputs,
    records: &[Record],
    indices: &[Vec<usize>],
    scratch: &Path,
    tracer: &mut Tracer,
) -> Result<Samples, String> {
    let config = core.config();
    let registry = core.registry();
    let retriever = core.retriever();
    let lm = GraphAwareLm::load_json(&core.save_model()).map_err(|e| e.to_string())?;
    let generator = ChainGenerator {
        max_len: config.finetune.max_chain_len,
    };
    let cover = CoverParams {
        max_length: config.cover.max_length,
        dedup_singletons: true,
    };
    let mut samples = Samples::default();
    let mut request_id = 0u64;
    for (t, idx) in indices.iter().enumerate() {
        let mut tenant = Tenant {
            graph: None,
            version: 0,
            featurised: None,
            database: Arc::new(inputs.databases[t].clone()),
            scheduler: Scheduler::from_exec_config(&config.exec.profile()),
            csr: Arc::new(CsrCache::default()),
            catalogs: Arc::new(CatalogCache::default()),
            store: None,
            sink: None,
        };
        if let Some(g) = &inputs.initial_graphs[t] {
            tenant.install(Arc::new(g.clone()));
            if inputs.workload.durable() {
                let path = scratch.join(format!("replay-tenant{t}.cgdb"));
                let _ = std::fs::remove_file(&path);
                let store = Arc::new(GraphStore::create(&path, g).map_err(|e| e.to_string())?);
                let sink = Arc::new(TimedSink {
                    store: Arc::clone(&store),
                    origin: tracer.origin(),
                    log: Mutex::new(Vec::new()),
                });
                tenant
                    .scheduler
                    .set_commit_sink(Some(Arc::clone(&sink) as Arc<dyn CommitSink>));
                tenant.store = Some(store);
                tenant.sink = Some(sink);
            }
        }
        for &i in idx {
            let r = &records[i];
            if matches!(r.outcome, Outcome::Rejected(_)) {
                continue;
            }
            request_id += 1;
            tracer.set_request(request_id);
            let first_span = tracer.spans().len();
            let (outcome, root) = match &r.sent {
                Sent::Chat { conv, q } => {
                    let c = &inputs.conversations[t][*conv];
                    let text = c.questions[*q].text.as_str();
                    let upload = (*q == 0).then(|| c.graph.clone());
                    let uploaded = upload.clone();
                    let (chain, root) = tracer.span("request.chat", |tr| {
                        if let Some(g) = upload {
                            tr.span("session.install", |_| tenant.install(Arc::new(g)));
                        }
                        let g = tenant.graph.clone();
                        let g = g.as_deref();
                        tr.span("apis.predict_type", |_| {
                            g.map(chatgraph_apis::impls::structure::predict_type)
                        });
                        let (cands, _) = tr.span("retrieval.candidates", |_| {
                            candidate_apis(registry, retriever, text, g)
                        });
                        let (chain, _) = tr.span("generation.decode", |_| {
                            generator.generate_greedy_checked(&lm, registry, text, g, &cands)
                        });
                        if !chain.is_empty() {
                            tr.span("analysis.analyze", |_| {
                                analysis::analyze(&chain, registry, g.is_some())
                            });
                        }
                        chain
                    });
                    samples.contexts.0 += 1;
                    if tenant.featurised == Some(tenant.version) {
                        samples.contexts.1 += 1;
                    }
                    tenant.featurised = Some(tenant.version);
                    let g = tenant.graph.clone();
                    tracer.span("standalone.chat", |tr| {
                        let g = g.as_deref();
                        let (ctx, _) = tr.span("llm.context", |_| lm.context(text, g));
                        samples.count("llm.context_nnz", ctx.nnz() as f64);
                        if let Some(g) = g {
                            let (pc, _) =
                                tr.span("sequencer.path_cover", |_| path_cover(g, &cover));
                            samples.count("sequencer.paths", pc.len() as f64);
                            let (seqs, _) = tr.span("sequencer.sequentialize", |_| {
                                sequentialize(g, &cover, config.cover.multi_level)
                            });
                            samples.count("sequencer.tokens", seqs.token_count() as f64);
                        }
                        let mut stats = SearchStats::default();
                        tr.span("ann.retrieve_k", |_| {
                            retriever.retrieve_k(text, retriever.top_k(), &mut stats)
                        });
                        samples.count("ann.distance_evals", stats.distance_computations as f64);
                        if let Some(g) = uploaded {
                            let mut scratch_session = ChatSession::from_core(Arc::clone(core));
                            tr.span("session.set_graph", |_| scratch_session.set_graph(g));
                        }
                    });
                    (Outcome::Proposed(chain), root)
                }
                Sent::Execute(chain) | Sent::Confirm(chain) => {
                    replay_execute(core, &mut tenant, chain, tracer, &mut samples)
                }
            };
            if outcome != r.outcome {
                samples.mismatched += 1;
            }
            samples.replayed += 1;
            fold(tracer, first_span, root, i, &mut samples);
        }
        // Checkpoint cost, timed standalone once the tenant's writes are in.
        if let Some(store) = &tenant.store {
            request_id += 1;
            tracer.set_request(request_id);
            let (_, idx) = tracer.span("store.checkpoint", |_| store.checkpoint());
            samples.ms("store.checkpoint", tracer.spans()[idx].nanos());
        }
    }
    Ok(samples)
}

fn replay_execute(
    core: &Arc<SessionCore>,
    tenant: &mut Tenant,
    chain: &ApiChain,
    tracer: &mut Tracer,
    samples: &mut Samples,
) -> (Outcome, usize) {
    let config = core.config();
    let registry = core.registry();
    let before = tenant
        .graph
        .clone()
        .unwrap_or_else(|| Arc::new(Graph::undirected()));
    let mut ctx = ExecContext::new(Arc::clone(&before))
        .with_database(Arc::clone(&tenant.database))
        .with_seed(config.seed)
        .with_kernels(
            KernelState::with_cache(Arc::clone(&tenant.csr))
                .with_catalogs(Arc::clone(&tenant.catalogs)),
        );
    let mut monitor = CollectingMonitor::new();
    let ((result, exec), root) = tracer.span("request.execute", |tr| {
        let (result, exec) = tr.span("sched.execute", |_| {
            tenant
                .scheduler
                .execute(registry, chain, &mut ctx, &mut monitor)
        });
        if let Some(sink) = &tenant.sink {
            let log: Vec<_> = sink
                .log
                .lock()
                .map(|mut l| l.drain(..).collect())
                .unwrap_or_default();
            for (start, end, bytes) in log {
                tr.record("store.commit", start, end, exec);
                samples.count("store.commit_bytes", bytes as f64);
            }
        }
        let after = Arc::clone(&ctx.graph);
        if !Arc::ptr_eq(&before, &after) {
            tr.span("session.install", |_| tenant.install(Arc::clone(&after)));
        }
        if result.is_ok() {
            let every = config.store.checkpoint_every;
            if let Some(store) = &tenant.store {
                if every > 0 && store.commits_since_checkpoint() >= every {
                    let _ = tr.span("store.checkpoint", |_| store.checkpoint());
                }
            }
        }
        (result, exec)
    });
    let after = Arc::clone(&ctx.graph);
    drop(ctx);
    let warm = monitor
        .events
        .iter()
        .any(|e| matches!(e, ChainEvent::MemoLookup { .. }))
        && monitor
            .events
            .iter()
            .all(|e| !matches!(e, ChainEvent::MemoLookup { hit: false, .. }));
    tracer.span("standalone.execute", |tr| {
        let (_, fp) = tr.span("sched.fingerprint", |_| {
            chatgraph_apis::sched::graph_fingerprint(&before)
        });
        let (catalog, _) = tr.span("graph.stats_catalog", |_| StatsCatalog::build(&before));
        let (plan, _) = tr.span("plan.build", |_| {
            Plan::build_with_stats(chain, registry, Some(&catalog))
        });
        if let Ok(plan) = plan {
            tr.span("analysis.audit", |_| analysis::audit_plan(&plan));
        }
        if !Arc::ptr_eq(&before, &after) {
            tr.span("graph.delta_diff", |_| GraphDelta::diff(&before, &after));
        }
        let exec_ns = tr.spans()[exec].nanos();
        if warm && exec_ns > 0 {
            let share = tr.spans()[fp].nanos() as f64 / exec_ns as f64;
            samples.warm_fingerprint_share.push(share);
        }
    });
    (Outcome::of_chain(&result), root)
}

/// Folds the spans of one replayed request into samples: per-name
/// durations (self time for `generation.decode`, which also covers one
/// context extraction), the root's time and its unattributed remainder.
fn fold(tracer: &Tracer, first: usize, root: usize, record: usize, samples: &mut Samples) {
    let spans = &tracer.spans()[first..];
    let selfs = self_times(&rebase(spans, first));
    let root_ns = tracer.spans()[root].nanos();
    samples.root_ms.insert(record, root_ns as f64 / 1e6);
    samples
        .unattributed_ms
        .push(selfs[root - first] as f64 / 1e6);
    let context_ns = spans
        .iter()
        .find(|s| s.name == "llm.context")
        .map(|s| s.nanos());
    if tracer.spans()[root].name == "request.chat" {
        samples.propose_context.0 += context_ns.unwrap_or(0) as f64 / 1e6;
        samples.propose_context.1 += root_ns as f64 / 1e6;
    }
    for s in spans {
        let name = match s.name {
            "generation.decode" => {
                // Signed: the two timings are separate runs of the same
                // work, so noise can make the difference negative.
                let self_ns = s.nanos() as f64 - context_ns.unwrap_or(0) as f64;
                samples
                    .ms
                    .entry("generation.decode")
                    .or_default()
                    .push(self_ns / 1e6);
                continue;
            }
            "request.chat" | "request.execute" | "standalone.chat" | "standalone.execute"
            | "session.install" => continue,
            other => other,
        };
        samples.ms(name, s.nanos());
    }
}

/// Copies spans with parent indices made relative to the first one.
fn rebase(spans: &[crate::trace::Span], first: usize) -> Vec<crate::trace::Span> {
    spans
        .iter()
        .map(|s| crate::trace::Span {
            parent: s.parent.and_then(|p| p.checked_sub(first)),
            ..s.clone()
        })
        .collect()
}
