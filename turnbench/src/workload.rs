//! Seeded workload generation: the inputs each workload serves and the
//! per-tenant clients that turn them into a request stream.
//!
//! Everything here is a pure function of `(workload, seed)`: graphs,
//! databases, questions and the request scripts. The program under test
//! only ever sees the generated requests.

use chatgraph_apis::{ApiCall, ApiChain, ApiRegistry};
use chatgraph_core::{generate_corpus, CorpusParams, Prompt, Reply, Request};
use chatgraph_graph::generators::{
    corrupt_kg, knowledge_graph, molecule, molecule_database, social_network, KgParams,
    MoleculeParams, SocialParams,
};
use chatgraph_graph::Graph;
use chatgraph_support::rng::{ChaCha12Rng, RngExt, SeedableRng};

/// Closed-loop clients, one tenant each, one request outstanding each.
pub const TENANTS: usize = 4;
/// Questions per `chat_turns` conversation (the first one uploads).
pub const QUESTIONS_PER_CONVERSATION: usize = 4;
/// Conversations generated per `chat_turns` tenant; a tenant that runs out
/// starts over at its first one.
const CONVERSATIONS_PER_TENANT: usize = 16;
/// Requests generated per `exec_analytics` / `edit_durable` tenant; the
/// script repeats from the start if a run outlasts it.
const SCRIPT_LEN: usize = 4096;
/// Molecules in each `chat_turns` tenant's similarity-search database.
const DATABASE_MOLECULES: usize = 64;
/// Social graph size for `chat_turns` conversations.
const CHAT_SOCIAL_NODES: usize = 1000;
/// Knowledge-graph size for `chat_turns` conversations.
const CHAT_KG_NODES: usize = 300;
/// Size of the two shared `exec_analytics` graphs.
const ANALYTICS_NODES: usize = 30_000;
/// Size of each `edit_durable` tenant's knowledge graph.
const DURABLE_KG_NODES: usize = 10_000;
/// Share of `exec_analytics` requests drawn from the fixed hot set.
const HOT_SHARE: f64 = 0.75;

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Propose → confirm → execute conversations over small chat graphs.
    ChatTurns,
    /// Read-only analytics chains on two large shared social graphs.
    ExecAnalytics,
    /// Writes beside reads on store-backed knowledge graphs.
    EditDurable,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "chat_turns" => Some(Workload::ChatTurns),
            "exec_analytics" => Some(Workload::ExecAnalytics),
            "edit_durable" => Some(Workload::EditDurable),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChatTurns => "chat_turns",
            Workload::ExecAnalytics => "exec_analytics",
            Workload::EditDurable => "edit_durable",
        }
    }

    /// Whether tenants get a durable store.
    pub fn durable(self) -> bool {
        self == Workload::EditDurable
    }
}

/// One question with its equivalent ground-truth API sequences.
#[derive(Debug, Clone)]
pub struct Question {
    /// The prompt text.
    pub text: String,
    /// Ground-truth API name sequences from the corpus.
    pub truths: Vec<Vec<String>>,
}

/// One `chat_turns` conversation: an uploaded graph and its questions.
#[derive(Debug, Clone)]
pub struct Conversation {
    /// Graph family (`social`, `knowledge` or `molecule`).
    pub family: &'static str,
    /// The graph the first question uploads.
    pub graph: Graph,
    /// The questions, in order.
    pub questions: Vec<Question>,
}

/// Everything a workload serves, generated from the seed.
pub struct Inputs {
    /// Which workload these inputs belong to.
    pub workload: Workload,
    /// The seed they were generated from.
    pub seed: u64,
    /// Graph each tenant holds after set-up (`None`: uploaded by a chat).
    pub initial_graphs: Vec<Option<Graph>>,
    /// Molecule database each tenant has attached after set-up.
    pub databases: Vec<Vec<Graph>>,
    /// `chat_turns` conversations, per tenant.
    pub conversations: Vec<Vec<Conversation>>,
    /// `exec_analytics` / `edit_durable` request scripts, per tenant.
    pub scripts: Vec<Vec<ApiChain>>,
}

fn rng_for(seed: u64, stream: u64) -> ChaCha12Rng {
    ChaCha12Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn chain(calls: &[(&str, &[(&str, String)])]) -> ApiChain {
    let mut out = ApiChain::new();
    for (api, params) in calls {
        let mut call = ApiCall::new(*api);
        for (k, v) in *params {
            call = call.with_param(*k, v.clone());
        }
        out.push(call);
    }
    out
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut inputs = Inputs {
            workload,
            seed,
            initial_graphs: vec![None; TENANTS],
            databases: vec![Vec::new(); TENANTS],
            conversations: (0..TENANTS).map(|_| Vec::new()).collect(),
            scripts: vec![Vec::new(); TENANTS],
        };
        match workload {
            Workload::ChatTurns => inputs.generate_chat(),
            Workload::ExecAnalytics => inputs.generate_analytics(),
            Workload::EditDurable => inputs.generate_durable(),
        }
        inputs
    }

    fn generate_chat(&mut self) {
        // Questions come from the finetuning corpus generator, grouped by
        // the family of the graph each example carries, so every proposal
        // has ground truth for `chain_accuracy`.
        let corpus = generate_corpus(
            &CorpusParams {
                size: chatgraph_core::dataset::intent_count() * 8,
                small_graphs: true,
            },
            self.seed,
        );
        let families = ["social", "knowledge", "molecule"];
        let pools: Vec<Vec<Question>> = families
            .iter()
            .map(|fam| {
                corpus
                    .iter()
                    .filter(|ex| chatgraph_apis::impls::structure::predict_type(&ex.graph) == *fam)
                    .map(|ex| Question {
                        text: ex.question.clone(),
                        truths: ex
                            .truths
                            .iter()
                            .map(|t| t.api_names().iter().map(|s| s.to_string()).collect())
                            .collect(),
                    })
                    .collect()
            })
            .collect();
        for t in 0..TENANTS {
            let mut rng = rng_for(self.seed, 100 + t as u64);
            self.databases[t] = molecule_database(
                DATABASE_MOLECULES,
                &MoleculeParams::default(),
                rng.random::<u64>(),
            );
            // Each family's questions are taken in corpus order, tenant `t`
            // starting at the `t`-th. The corpus cycles through the intents,
            // so every run asks the same intents in the same order whatever
            // the seed, which picks only their wording and the graphs: the
            // confirmed chains' cost does not depend on which intents a
            // seed happens to draw.
            let mut cursors = vec![t; pools.len()];
            for c in 0..CONVERSATIONS_PER_TENANT {
                // Families rotate, offset per tenant so one wave mixes them.
                let f = (t + c) % families.len();
                let gseed = rng.random::<u64>();
                let graph = match families[f] {
                    "social" => social_network(&SocialParams::sized(CHAT_SOCIAL_NODES), gseed),
                    "knowledge" => knowledge_graph(&KgParams::sized(CHAT_KG_NODES), gseed),
                    _ => molecule(&MoleculeParams::default(), gseed),
                };
                let pool = &pools[f];
                let questions = (0..QUESTIONS_PER_CONVERSATION)
                    .map(|_| {
                        cursors[f] += 1;
                        pool[(cursors[f] - 1) % pool.len()].clone()
                    })
                    .collect();
                self.conversations[t].push(Conversation {
                    family: families[f],
                    graph,
                    questions,
                });
            }
        }
    }

    fn generate_analytics(&mut self) {
        let mut rng = rng_for(self.seed, 200);
        let graphs: Vec<Graph> = (0..2)
            .map(|_| social_network(&SocialParams::sized(ANALYTICS_NODES), rng.random::<u64>()))
            .collect();
        let hot: Vec<ApiChain> = vec![
            chain(&[("top_pagerank", &[("k", "10".into())])]),
            chain(&[("detect_communities", &[])]),
            chain(&[("triangle_count", &[])]),
            chain(&[("connected_components", &[])]),
            chain(&[("graph_stats", &[])]),
        ];
        for t in 0..TENANTS {
            // Tenants 0,1 share graph 0 and tenants 2,3 graph 1: the
            // cross-tenant memo and coalescing case.
            self.initial_graphs[t] = Some(graphs[t / 2].clone());
            let mut rng = rng_for(self.seed, 300 + t as u64);
            self.scripts[t] = (0..SCRIPT_LEN)
                .map(|_| {
                    if rng.random_bool(HOT_SHARE) {
                        hot[rng.random_range(0..hot.len())].clone()
                    } else {
                        // Fresh parameters: a memo miss that reruns the kernel.
                        let api = ["top_pagerank", "find_influencers", "top_degree"]
                            [rng.random_range(0..3usize)];
                        let k = rng.random_range(11..=100u64).to_string();
                        chain(&[(api, &[("k", k)])])
                    }
                })
                .collect();
        }
    }

    fn generate_durable(&mut self) {
        let relabel = |from: &str, to: &str| {
            chain(&[("relabel_nodes", &[("from", from.into()), ("to", to.into())])])
        };
        // Cities ping-pong between `City` and `Town`, so every relabel
        // changes the graph; the detect pairs run while they are `City`.
        let write = |round: usize| match round % 4 {
            0 => relabel("City", "Town"),
            1 => relabel("Town", "City"),
            2 => chain(&[("detect_incorrect_edges", &[]), ("remove_edges", &[])]),
            _ => chain(&[("detect_missing_edges", &[]), ("add_edges", &[])]),
        };
        let reads = [
            chain(&[("kg_statistics", &[])]),
            chain(&[("validate_schema", &[])]),
            chain(&[("graph_stats", &[])]),
        ];
        for t in 0..TENANTS {
            let mut rng = rng_for(self.seed, 400 + t as u64);
            let mut g = knowledge_graph(&KgParams::sized(DURABLE_KG_NODES), rng.random::<u64>());
            corrupt_kg(&mut g, 0.05, 0.05, rng.random::<u64>());
            self.initial_graphs[t] = Some(g);
            let mut next_write = 0;
            self.scripts[t] = (0..SCRIPT_LEN)
                .map(|i| {
                    // Every third request writes, phase-shifted per tenant
                    // so each wave mixes writes and reads.
                    if (i + t) % 3 == 0 {
                        next_write += 1;
                        write(next_write - 1)
                    } else {
                        reads[rng.random_range(0..reads.len())].clone()
                    }
                })
                .collect();
        }
    }

    /// Node and edge counts of each tenant's initial graph and first
    /// conversation graph, for the provenance block.
    pub fn graph_sizes(&self) -> Vec<(String, usize, usize)> {
        let mut out = Vec::new();
        for (t, g) in self.initial_graphs.iter().enumerate() {
            if let Some(g) = g {
                out.push((format!("tenant{t}.initial"), g.node_count(), g.edge_count()));
            }
        }
        for (t, convs) in self.conversations.iter().enumerate() {
            if let Some(c) = convs.first() {
                out.push((
                    format!("tenant{t}.conv0.{}", c.family),
                    c.graph.node_count(),
                    c.graph.edge_count(),
                ));
            }
        }
        out
    }

    /// A digest of every generated input, so a test can show that one seed
    /// always yields the same workload.
    #[cfg(test)]
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        let push_graph = |bytes: &mut Vec<u8>, g: &Graph| {
            let fp = chatgraph_apis::sched::graph_fingerprint(g).unwrap_or(0);
            bytes.extend_from_slice(&fp.to_le_bytes());
        };
        for g in self.initial_graphs.iter().flatten() {
            push_graph(&mut bytes, g);
        }
        for db in &self.databases {
            for g in db {
                push_graph(&mut bytes, g);
            }
        }
        for convs in &self.conversations {
            for c in convs {
                push_graph(&mut bytes, &c.graph);
                for q in &c.questions {
                    bytes.extend_from_slice(q.text.as_bytes());
                }
            }
        }
        for script in &self.scripts {
            for c in script {
                bytes.extend_from_slice(c.to_string().as_bytes());
                for call in &c.steps {
                    for (k, v) in &call.params {
                        bytes.extend_from_slice(k.as_bytes());
                        bytes.extend_from_slice(v.as_bytes());
                    }
                }
            }
        }
        chatgraph_support::hash::fnv1a64(&bytes)
    }
}

/// Request classes the end-to-end latencies are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `Request::Chat`: time to a proposed chain.
    Propose,
    /// `Request::Execute` of a chain without mutating APIs.
    Read,
    /// `Request::Execute` of a chain with a mutating API.
    Write,
}

/// What a request was, kept for checking and for the traced replay.
#[derive(Debug, Clone)]
pub enum Sent {
    /// A chat turn: conversation `conv`, question `q`; uploads when `q == 0`.
    Chat { conv: usize, q: usize },
    /// An execution of `chain`.
    Execute(ApiChain),
    /// The confirmation of the previous chat's proposal: an execution
    /// that belongs to that chat's turn.
    Confirm(ApiChain),
}

impl Sent {
    /// The request's latency class.
    pub fn class(&self, registry: &ApiRegistry) -> Class {
        match self {
            Sent::Chat { .. } => Class::Propose,
            Sent::Execute(chain) | Sent::Confirm(chain) => {
                let mutates = chain
                    .steps
                    .iter()
                    .any(|c| registry.descriptor(&c.api).is_some_and(|d| d.mutates_graph));
                if mutates {
                    Class::Write
                } else {
                    Class::Read
                }
            }
        }
    }

    /// The server request for this entry.
    pub fn request(&self, inputs: &Inputs, tenant: usize) -> Request {
        match self {
            Sent::Chat { conv, q } => {
                let c = &inputs.conversations[tenant][*conv];
                let text = c.questions[*q].text.clone();
                if *q == 0 {
                    Request::Chat(Prompt::with_graph(text, c.graph.clone()))
                } else {
                    Request::Chat(Prompt::text(text))
                }
            }
            Sent::Execute(chain) | Sent::Confirm(chain) => Request::Execute(chain.clone()),
        }
    }
}

/// One closed-loop client: decides a tenant's next request from its
/// script and, for chat conversations, from the previous reply.
#[derive(Debug, Clone)]
pub struct Client {
    tenant: usize,
    pos: usize,
    /// `chat_turns`: the proposal awaiting confirmation.
    confirm: Option<ApiChain>,
}

impl Client {
    /// A client for `tenant`, at the start of its script.
    pub fn new(tenant: usize) -> Client {
        Client {
            tenant,
            pos: 0,
            confirm: None,
        }
    }

    /// The tenant this client drives.
    pub fn tenant(&self) -> usize {
        self.tenant
    }

    /// The next request to send.
    pub fn next(&mut self, inputs: &Inputs) -> Sent {
        if let Some(chain) = self.confirm.take() {
            return Sent::Confirm(chain);
        }
        let pos = self.pos;
        self.pos += 1;
        match inputs.workload {
            Workload::ChatTurns => {
                let n = inputs.conversations[self.tenant].len();
                Sent::Chat {
                    conv: (pos / QUESTIONS_PER_CONVERSATION) % n,
                    q: pos % QUESTIONS_PER_CONVERSATION,
                }
            }
            _ => {
                let script = &inputs.scripts[self.tenant];
                Sent::Execute(script[pos % script.len()].clone())
            }
        }
    }

    /// Feeds back the reply to the last request: a chat proposal is
    /// confirmed as the next request unless it is empty.
    pub fn observe(&mut self, reply: Option<&Reply>) {
        if let Some(Reply::Chat(resp)) = reply {
            if !resp.chain.is_empty() {
                self.confirm = Some(resp.chain.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for w in [Workload::ChatTurns, Workload::EditDurable] {
            let a = Inputs::generate(w, 7);
            let b = Inputs::generate(w, 7);
            assert_eq!(a.digest(), b.digest(), "{}", w.name());
            let c = Inputs::generate(w, 8);
            assert_ne!(a.digest(), c.digest(), "{}", w.name());
        }
    }

    #[test]
    fn clients_follow_the_script() {
        let inputs = Inputs::generate(Workload::EditDurable, 3);
        let mut client = Client::new(1);
        let sent: Vec<String> = (0..6)
            .map(|_| match client.next(&inputs) {
                Sent::Execute(c) => c.to_string(),
                other => unreachable!("edit_durable sends only executions: {other:?}"),
            })
            .collect();
        let script: Vec<String> = inputs.scripts[1][..6]
            .iter()
            .map(|c| c.to_string())
            .collect();
        assert_eq!(sent, script);
        let writes = inputs.scripts[1]
            .iter()
            .filter(|c| {
                Sent::Execute((*c).clone()).class(&chatgraph_apis::registry::standard())
                    == Class::Write
            })
            .count();
        assert_eq!(writes, SCRIPT_LEN / 3 + usize::from(SCRIPT_LEN % 3 > 1));
    }

    #[test]
    fn chat_questions_carry_ground_truth() {
        let inputs = Inputs::generate(Workload::ChatTurns, 5);
        for convs in &inputs.conversations {
            for c in convs {
                assert_eq!(c.questions.len(), QUESTIONS_PER_CONVERSATION);
                assert!(c.questions.iter().all(|q| !q.truths.is_empty()));
            }
        }
    }
}
