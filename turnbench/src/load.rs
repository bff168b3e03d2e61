//! Set-up and the closed-loop load through `SessionServer`.
//!
//! Load model: `TENANTS` clients, one tenant each, each with exactly one
//! request outstanding. A wave submits one request per tenant and then
//! calls `drain`, which returns only when the whole wave has completed, so
//! a client's next request is sent after its previous reply, as a chat
//! user confirms a proposal only after reading it.

use crate::workload::{Class, Client, Inputs, Sent, TENANTS};
use chatgraph_apis::{ApiChain, ChainEvent, MemoStats};
use chatgraph_core::session::SessionCore;
use chatgraph_core::{ChatGraphConfig, Reply, ServeConfig, ServeError, SessionServer, TenantId};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Drain-pool threads (the machine this benchmark was shaped on has 2 CPUs).
pub const POOL_WORKERS: usize = 2;
/// Scheduler workers inside one chain.
pub const EXEC_WORKERS: usize = 1;
/// Finetuning corpus size for `SessionCore::bootstrap`.
const CORPUS_SIZE: usize = 192;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Warm-up before the measured phase, in seconds (at least two waves).
const WARMUP_SECS: f64 = 2.0;

/// The configuration every set-up bootstraps with.
pub fn config() -> ChatGraphConfig {
    let mut config = ChatGraphConfig::default();
    config.exec.workers = EXEC_WORKERS;
    config
}

/// A served set-up: the server, its tenants and how long set-up took.
pub struct Served {
    /// The server the load runs against.
    pub server: SessionServer,
    /// Tenant handles, indexed like the workload's tenants.
    pub tenants: Vec<TenantId>,
    /// Wall seconds of each set-up repetition.
    pub setup_secs: Vec<f64>,
    /// Milliseconds of `SessionCore::bootstrap` in each repetition.
    pub bootstrap_ms: Vec<f64>,
}

/// Sets up `SETUP_REPS` times (bootstrap, open sessions, upload graphs
/// and databases) and keeps the last server. Store files go under
/// `store_root`.
pub fn set_up(inputs: &Inputs, store_root: &Path) -> Result<Served, String> {
    let mut setup_secs = Vec::new();
    let mut bootstrap_ms = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        // Copies of the inputs are made before the clock starts: producing
        // them is the benchmark's work, receiving them is the server's.
        let graphs: Vec<_> = inputs.initial_graphs.clone();
        let databases = inputs.databases.clone();
        let store_dir = store_dir(store_root, rep);
        let _ = std::fs::remove_dir_all(&store_dir);
        drop(last.take());
        let start = Instant::now();
        let (core, _) = SessionCore::bootstrap(config(), CORPUS_SIZE).map_err(|e| e.to_string())?;
        bootstrap_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let serve = ServeConfig {
            pool_workers: POOL_WORKERS,
            store_dir: if inputs.workload.durable() {
                store_dir.to_string_lossy().into_owned()
            } else {
                String::new()
            },
            ..ServeConfig::default()
        };
        let server = SessionServer::from_core(core, serve).map_err(|e| e.to_string())?;
        let mut tenants = Vec::new();
        for (graph, database) in graphs.into_iter().zip(databases) {
            let id = server.open_session().map_err(|e| e.to_string())?;
            server
                .with_session(id, |s| {
                    s.set_database(database);
                    if let Some(g) = graph {
                        s.set_graph(g);
                    }
                })
                .map_err(|e| e.to_string())?;
            tenants.push(id);
        }
        setup_secs.push(start.elapsed().as_secs_f64());
        last = Some((server, tenants));
        if rep + 1 < SETUP_REPS {
            let _ = std::fs::remove_dir_all(&store_dir);
        }
    }
    let (server, tenants) = last.ok_or("no set-up repetition ran")?;
    Ok(Served {
        server,
        tenants,
        setup_secs,
        bootstrap_ms,
    })
}

/// Directory of set-up repetition `rep`'s store files.
pub fn store_dir(store_root: &Path, rep: usize) -> PathBuf {
    store_root.join(format!("rep{rep}"))
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// `submit` refused it (`QueueFull`, unknown tenant, ...).
    Rejected(String),
    /// The server or the chain returned an error.
    Failed(String),
    /// A chat turn proposed `chain`.
    Proposed(ApiChain),
    /// A chain ran; the value's fingerprint.
    Executed(Option<u64>),
}

impl Outcome {
    /// Whether the request failed or was refused.
    pub fn is_failure(&self) -> bool {
        matches!(self, Outcome::Rejected(_) | Outcome::Failed(_))
    }

    /// The outcome of a served reply.
    pub fn of(reply: &Result<Reply, ServeError>) -> Outcome {
        match reply {
            Err(e) => Outcome::Failed(e.to_string()),
            Ok(Reply::Chat(resp)) => Outcome::Proposed(resp.chain.clone()),
            Ok(Reply::Execution(exec)) => Outcome::of_chain(&exec.result),
            Ok(Reply::ChatAndRun(..)) => Outcome::Failed("unexpected ChatAndRun reply".into()),
        }
    }

    /// The outcome of one chain execution.
    pub fn of_chain(result: &Result<chatgraph_apis::Value, chatgraph_apis::ChainError>) -> Outcome {
        match result {
            Ok(v) => Outcome::Executed(chatgraph_apis::sched::value_fingerprint(v)),
            Err(e) => Outcome::Failed(e.to_string()),
        }
    }
}

/// One request as sent and answered.
#[derive(Debug, Clone)]
pub struct Record {
    /// Tenant index.
    pub tenant: usize,
    /// What was sent.
    pub sent: Sent,
    /// Latency class.
    pub class: Class,
    /// Whether it belongs to the measured phase (not warm-up).
    pub measured: bool,
    /// Submit → completion, including queue wait, in milliseconds.
    pub latency_ms: f64,
    /// How it ended.
    pub outcome: Outcome,
}

/// Latency of every successful measured turn, in ms. A turn is one user
/// action: a chat question together with the confirmation of its
/// proposal, or one standalone execution. Its latency is the sum of its
/// requests' latencies; it counts as measured when its first request
/// was, and is left out when any of its requests failed.
pub fn turn_latencies(records: &[Record]) -> Vec<f64> {
    // Per tenant, the open turn: (latency so far, measured, failed).
    let mut open: Vec<Option<(f64, bool, bool)>> = vec![None; TENANTS];
    let mut out = Vec::new();
    let mut close = |turn: Option<(f64, bool, bool)>| {
        if let Some((latency, true, false)) = turn {
            out.push(latency);
        }
    };
    for r in records {
        let failed = r.outcome.is_failure();
        match (&r.sent, open[r.tenant].as_mut()) {
            (Sent::Confirm(_), Some(turn)) => {
                turn.0 += r.latency_ms;
                turn.2 |= failed;
            }
            _ => {
                close(open[r.tenant].take());
                open[r.tenant] = Some((r.latency_ms, r.measured, failed));
            }
        }
    }
    open.into_iter().for_each(close);
    out
}

/// Counts and timings read from the `ChainEvent`s of every reply of the
/// run, warm-up included: a memoised step runs its kernels only once, and
/// in the workloads with a hot set that once is during warm-up.
#[derive(Debug, Default)]
pub struct EventTally {
    /// `StepTimed` of uncached steps, ms.
    pub step_ms: Vec<f64>,
    /// `StepTimed` of uncached steps per API, ms.
    pub step_ms_by_api: BTreeMap<String, Vec<f64>>,
    /// `KernelTimed` per kernel, ms.
    pub kernel_ms: BTreeMap<String, Vec<f64>>,
    /// `CsrBuilt` events.
    pub csr_builds: u64,
    /// `CsrBuilt` events that patched the previous epoch.
    pub csr_delta_patches: u64,
    /// `CsrBuilt` build times, ms.
    pub csr_build_ms: Vec<f64>,
    /// `StepRetried` events.
    pub retries: u64,
    /// `StepTimedOut` events.
    pub timeouts: u64,
    /// `StepPanicked` events.
    pub panics: u64,
    /// `DegradedResult` events.
    pub degraded: u64,
    /// `Checkpointed` events.
    pub checkpoints: u64,
}

impl EventTally {
    fn add(&mut self, events: &[ChainEvent]) {
        for e in events {
            match e {
                ChainEvent::StepTimed {
                    api,
                    micros,
                    cached: false,
                    ..
                } => {
                    let ms = *micros as f64 / 1e3;
                    self.step_ms.push(ms);
                    self.step_ms_by_api.entry(api.clone()).or_default().push(ms);
                }
                ChainEvent::KernelTimed { kernel, micros, .. } => {
                    self.kernel_ms
                        .entry(kernel.clone())
                        .or_default()
                        .push(*micros as f64 / 1e3);
                }
                ChainEvent::CsrBuilt { micros, delta, .. } => {
                    self.csr_builds += 1;
                    self.csr_delta_patches += u64::from(*delta);
                    self.csr_build_ms.push(*micros as f64 / 1e3);
                }
                ChainEvent::StepRetried { .. } => self.retries += 1,
                ChainEvent::StepTimedOut { .. } => self.timeouts += 1,
                ChainEvent::StepPanicked { .. } => self.panics += 1,
                ChainEvent::DegradedResult { .. } => self.degraded += 1,
                ChainEvent::Checkpointed { .. } => self.checkpoints += 1,
                _ => {}
            }
        }
    }
}

/// What the load phase produced.
pub struct LoadResult {
    /// Every request of the run, warm-up included, in wave order.
    pub records: Vec<Record>,
    /// Wall seconds of the measured phase.
    pub measured_secs: f64,
    /// Wall milliseconds of each measured `drain`.
    pub drain_ms: Vec<f64>,
    /// Completions returned by each measured `drain`.
    pub per_drain: Vec<f64>,
    /// Each measured wave: (end, seconds after the measured phase began;
    /// wall seconds from first submit to last completion; successful
    /// completions).
    pub waves: Vec<(f64, f64, usize)>,
    /// Event counts and timings of every reply.
    pub events: EventTally,
    /// Shared-memo counters accumulated over the measured phase.
    pub memo: MemoStats,
}

fn memo_delta(after: MemoStats, before: MemoStats) -> MemoStats {
    MemoStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        coalesced: after.coalesced - before.coalesced,
    }
}

/// Runs warm-up waves for [`WARMUP_SECS`] (at least two), then measured
/// waves until `seconds` of measured wall time have passed.
pub fn run(served: &Served, inputs: &Inputs, seconds: f64) -> LoadResult {
    let registry = served.server.core().registry();
    let mut clients: Vec<Client> = (0..TENANTS).map(Client::new).collect();
    let mut out = LoadResult {
        records: Vec::new(),
        measured_secs: 0.0,
        drain_ms: Vec::new(),
        per_drain: Vec::new(),
        waves: Vec::new(),
        events: EventTally::default(),
        memo: MemoStats::default(),
    };
    let start = Instant::now();
    let mut waves = 0usize;
    let mut measure_start: Option<(Instant, MemoStats)> = None;
    loop {
        let measured = measure_start.is_some();
        let wave_start = Instant::now();
        let mut ok = 0;
        let mut sent: Vec<Option<Sent>> = vec![None; TENANTS];
        for client in clients.iter_mut() {
            let t = client.tenant();
            let s = client.next(inputs);
            match served
                .server
                .submit(served.tenants[t], s.request(inputs, t))
            {
                Ok(_) => sent[t] = Some(s),
                Err(e) => {
                    out.records.push(Record {
                        tenant: t,
                        class: s.class(registry),
                        sent: s,
                        measured,
                        latency_ms: 0.0,
                        outcome: Outcome::Rejected(e.to_string()),
                    });
                    client.observe(None);
                }
            }
        }
        let drain_start = Instant::now();
        let done = served.server.drain();
        let drain_ms = drain_start.elapsed().as_secs_f64() * 1e3;
        if measured {
            out.drain_ms.push(drain_ms);
            out.per_drain.push(done.len() as f64);
        }
        for completed in done {
            let Some(t) = served.tenants.iter().position(|id| *id == completed.tenant) else {
                continue;
            };
            let Some(s) = sent[t].take() else { continue };
            if let Ok(Reply::Execution(exec)) = &completed.reply {
                out.events.add(&exec.events);
            }
            let outcome = Outcome::of(&completed.reply);
            ok += usize::from(!outcome.is_failure());
            out.records.push(Record {
                tenant: t,
                class: s.class(registry),
                sent: s,
                measured,
                latency_ms: completed.latency_micros as f64 / 1e3,
                outcome,
            });
            clients[t].observe(completed.reply.as_ref().ok());
        }
        // A submitted request that never came back is a failure too.
        for (t, s) in sent.into_iter().enumerate() {
            if let Some(s) = s {
                out.records.push(Record {
                    tenant: t,
                    class: s.class(registry),
                    sent: s,
                    measured,
                    latency_ms: 0.0,
                    outcome: Outcome::Failed("no completion returned by drain".into()),
                });
                clients[t].observe(None);
            }
        }
        waves += 1;
        if let Some((at, _)) = measure_start {
            out.waves.push((
                at.elapsed().as_secs_f64(),
                wave_start.elapsed().as_secs_f64(),
                ok,
            ));
        }
        match measure_start {
            None if waves >= 2 && start.elapsed().as_secs_f64() >= WARMUP_SECS => {
                measure_start = Some((Instant::now(), served.server.memo_stats()));
            }
            Some((at, memo)) if at.elapsed().as_secs_f64() >= seconds => {
                out.measured_secs = at.elapsed().as_secs_f64();
                out.memo = memo_delta(served.server.memo_stats(), memo);
                break;
            }
            _ => {}
        }
    }
    out
}

/// Throughput windows per measured phase.
const THROUGHPUT_WINDOWS: usize = 4;

/// Successful completions per wall second: the median over
/// [`THROUGHPUT_WINDOWS`] equal parts of the measured phase, each part's
/// rate taken over the waves that ended in it. The median keeps a
/// transient stall of the machine in one part from moving the result.
pub fn windowed_throughput(waves: &[(f64, f64, usize)], measured_secs: f64) -> f64 {
    let mut parts = [(0.0f64, 0usize); THROUGHPUT_WINDOWS];
    for &(end, secs, ok) in waves {
        let k = ((end / measured_secs * THROUGHPUT_WINDOWS as f64) as usize)
            .min(THROUGHPUT_WINDOWS - 1);
        parts[k].0 += secs;
        parts[k].1 += ok;
    }
    let rates: Vec<f64> = parts
        .iter()
        .filter(|(secs, _)| *secs > 0.0)
        .map(|(secs, ok)| *ok as f64 / secs)
        .collect();
    crate::stats::median(&rates).unwrap_or(0.0)
}

/// Reads the process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tenant: usize, sent: Sent, measured: bool, latency_ms: f64, ok: bool) -> Record {
        Record {
            tenant,
            sent,
            class: Class::Read,
            measured,
            latency_ms,
            outcome: if ok {
                Outcome::Executed(None)
            } else {
                Outcome::Failed("x".into())
            },
        }
    }

    #[test]
    fn throughput_is_the_median_window_rate() {
        // Four 1-second parts; the third stalls at half rate.
        let waves: Vec<(f64, f64, usize)> = (0..4)
            .flat_map(|part| {
                (0..10).map(move |j| {
                    (
                        part as f64 + (j as f64 + 0.5) * 0.1,
                        0.1,
                        if part == 2 { 2 } else { 4 },
                    )
                })
            })
            .collect();
        assert!((windowed_throughput(&waves, 4.0) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn turns_join_a_chat_with_its_confirmation() {
        let chat = |q| Sent::Chat { conv: 0, q };
        let confirm = || Sent::Confirm(ApiChain::from_names(["node_count"]));
        let exec = || Sent::Execute(ApiChain::from_names(["node_count"]));
        let records = vec![
            record(0, chat(0), false, 100.0, true), // warm-up turn: left out
            record(0, confirm(), true, 5.0, true),
            record(1, chat(0), true, 300.0, true),
            record(0, chat(1), true, 200.0, true),
            record(1, confirm(), true, 7.0, true),
            record(0, confirm(), true, 1.0, false), // failed turn: left out
            record(2, exec(), true, 40.0, true),
            record(2, exec(), true, 50.0, true),
            record(1, chat(1), true, 250.0, true), // no confirmation
        ];
        let mut turns = turn_latencies(&records);
        turns.sort_by(f64::total_cmp);
        assert_eq!(turns, vec![40.0, 50.0, 250.0, 307.0]);
    }
}
