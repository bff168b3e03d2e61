//! Chat-turn benchmark for the ChatGraph reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path turnbench/Cargo.toml -- \
//!     --workload chat_turns --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Drives one seeded workload through `SessionServer` and prints a report,
//! then one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the run also replays a prefix of the served requests through each
//! layer's public functions with spans, and the metrics are the per-layer
//! ones. See `turnbench/README.md` for the metric glossary and the load
//! model.

mod check;
mod load;
mod replay;
mod stats;
mod trace;
mod workload;

use check::Tally;
use load::{LoadResult, Outcome, Record};
use stats::{mean, median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use workload::{Class, Inputs, Sent, Workload, TENANTS};

/// End-to-end metrics, reported with `--trace 0` on every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`. A layer a workload does
/// not exercise reads 0. The first block is per request class: those
/// classes exist on one or two workloads only, so they cannot be
/// end-to-end metrics, which must be measured on every workload.
const PER_LAYER: [(&str, &str); 61] = [
    ("propose_p50_ms", "ms"),
    ("propose_p90_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("chain_accuracy", "ratio"),
    ("recovery_ms", "ms"),
    ("failed_frac", "ratio"),
    ("llm.context_ms", "ms"),
    ("llm.context_nnz", "count"),
    ("llm.context_repeat_ratio", "ratio"),
    ("sequencer.path_cover_ms", "ms"),
    ("sequencer.paths", "count"),
    ("sequencer.sequentialize_ms", "ms"),
    ("sequencer.tokens", "count"),
    ("generation.decode_ms", "ms"),
    ("retrieval.candidates_ms", "ms"),
    ("ann.distance_evals", "count"),
    ("apis.predict_type_ms", "ms"),
    ("analysis.analyze_ms", "ms"),
    ("analysis.audit_ms", "ms"),
    ("plan.build_ms", "ms"),
    ("sched.fingerprint_ms", "ms"),
    ("sched.fingerprint_warm_share", "ratio"),
    ("sched.execute_ms", "ms"),
    ("sched.step_ms", "ms"),
    ("sched.memo_hit_ratio", "ratio"),
    ("sched.executed_ratio", "ratio"),
    ("sched.coalesced", "count"),
    ("sched.retries", "count"),
    ("sched.timeouts", "count"),
    ("sched.panics", "count"),
    ("sched.degraded", "count"),
    ("graph.kernel_ms.pagerank", "ms"),
    ("graph.kernel_ms.communities", "ms"),
    ("graph.kernel_ms.triangle_count", "ms"),
    ("graph.kernel_ms.components", "ms"),
    ("graph.kernel_ms.graph_stats", "ms"),
    ("graph.kernel_ms.connectivity", "ms"),
    ("graph.csr_builds", "count"),
    ("graph.csr_delta_patches", "count"),
    ("graph.csr_build_ms", "ms"),
    ("graph.stats_catalog_ms", "ms"),
    ("graph.delta_diff_ms", "ms"),
    ("ged.similarity_ms", "ms"),
    ("store.commit_ms", "ms"),
    ("store.commit_bytes", "bytes"),
    ("store.commits", "count"),
    ("store.checkpoint_ms", "ms"),
    ("store.checkpoints", "count"),
    ("store.recover_ms", "ms"),
    ("store.records_replayed", "count"),
    ("store.wal_bytes", "bytes"),
    ("serve.drain_ms", "ms"),
    ("serve.requests_per_drain", "count"),
    ("serve.rejected", "count"),
    ("session.set_graph_ms", "ms"),
    ("setup.bootstrap_ms", "ms"),
    ("trace.propose_context_share", "ratio"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.replayed", "count"),
];

/// Per-tenant requests replayed through the reference session.
fn reference_prefix(workload: Workload, traced: bool) -> usize {
    match (workload, traced) {
        // One conversation: four chats and their confirmations.
        (Workload::ChatTurns, _) => 2 * workload::QUESTIONS_PER_CONVERSATION,
        (_, false) => 12,
        (_, true) => 16,
    }
}

/// A second seed, derived from the first, for confirming a later claim on
/// inputs not used while the change was written.
fn heldout_seed(seed: u64) -> u64 {
    seed ^ 0x5EED_5EED_5EED_5EED
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<&str, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value"))
        };
        let workload = Workload::parse(get("--workload")?).ok_or("unknown --workload")?;
        let seed = get("--seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?;
        let seconds: u64 = get("--seconds")?
            .parse()
            .map_err(|_| "--seconds must be an integer")?;
        let trace = match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        };
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload,
            seed,
            seconds: seconds as f64,
            trace,
        })
    }
}

/// Everything measured in one run, before selecting what to print.
struct Measured {
    metrics: BTreeMap<&'static str, f64>,
    tally: Tally,
    provenance: String,
    spans: Option<String>,
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("turnbench: {e}");
            eprintln!("usage: turnbench --workload <chat_turns|exec_analytics|edit_durable> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    let result = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))
        .and_then(|_| measure(&args, &scratch));
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(m) => {
            if let Err(e) = report(&args, &out_dir, &m) {
                eprintln!("turnbench: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("turnbench: {e}");
            std::process::exit(1);
        }
    }
}

fn class_latencies(records: &[Record], class: Class) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.measured && !r.outcome.is_failure() && r.class == class)
        .map(|r| r.latency_ms)
        .collect()
}

/// Share of measured proposals whose API sequence equals a ground truth.
fn chain_accuracy(inputs: &Inputs, records: &[Record]) -> f64 {
    let (mut hits, mut total) = (0u64, 0u64);
    for r in records.iter().filter(|r| r.measured) {
        if let (Sent::Chat { conv, q }, Outcome::Proposed(chain)) = (&r.sent, &r.outcome) {
            let truths = &inputs.conversations[r.tenant][*conv].questions[*q].truths;
            let names: Vec<String> = chain.api_names().iter().map(|s| s.to_string()).collect();
            total += 1;
            hits += u64::from(truths.contains(&names));
        }
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// One tenant store reopened after the run.
struct Reopened {
    ms: f64,
    records_replayed: f64,
    wal_bytes: f64,
}

/// Reopens every tenant store; returns each reopen and how many stores
/// recovered a graph other than the one their tenant last served.
fn recover(stores: &[(PathBuf, Option<u64>)]) -> Result<(Vec<Reopened>, u64), String> {
    let mut out = Vec::new();
    let mut bad = 0;
    for (path, served_fp) in stores {
        let start = Instant::now();
        let (store, report) = chatgraph_store::GraphStore::open(path).map_err(|e| e.to_string())?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let recovered = chatgraph_apis::sched::graph_fingerprint(&store.graph());
        if recovered.is_none() || recovered != *served_fp {
            bad += 1;
        }
        out.push(Reopened {
            ms,
            records_replayed: report.records_replayed as f64,
            wal_bytes: store.wal_bytes() as f64,
        });
    }
    Ok((out, bad))
}

fn measure(args: &Args, scratch: &Path) -> Result<Measured, String> {
    let inputs = Inputs::generate(args.workload, args.seed);
    let served = load::set_up(&inputs, &scratch.join("stores"))?;
    let load = load::run(&served, &inputs, args.seconds);
    let rss = load::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let core = Arc::clone(served.server.core());
    let records = &load.records;
    let mut tally = Tally::of(records);
    if args.workload == Workload::ExecAnalytics {
        // Tenants 0,1 and 2,3 each serve one unchanging graph.
        tally.mismatched += check::agreement_mismatches(records, |t| t / 2);
    }

    // Recovery: the last served graph of each tenant against its store,
    // reopened after the server (and with it every store handle) is gone.
    let mut stores = Vec::new();
    if args.workload.durable() {
        for &id in &served.tenants {
            let entry = served
                .server
                .with_session(id, |s| {
                    let path = s.store().map(|st| st.path());
                    let fp = s.graph().and_then(chatgraph_apis::sched::graph_fingerprint);
                    path.map(|p| (p, fp))
                })
                .map_err(|e| e.to_string())?;
            stores.push(entry.ok_or("durable tenant without a store")?);
        }
    }
    let setup_secs = served.setup_secs.clone();
    let bootstrap_ms = served.bootstrap_ms.clone();
    drop(served);
    let (recovered, bad_recoveries) = recover(&stores)?;
    tally.bad_recoveries = bad_recoveries;

    let prefix = check::tenant_prefixes(records, reference_prefix(args.workload, args.trace));
    let reference = check::reference_replay(&core, &inputs, records, &prefix);
    tally.mismatched += reference.mismatched;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let turns = load::turn_latencies(records);
    m.insert("setup_s", median(&setup_secs).unwrap_or(0.0));
    m.insert(
        "throughput_rps",
        load::windowed_throughput(&load.waves, load.measured_secs),
    );
    m.insert("latency_p50_ms", percentile(&turns, 50.0).unwrap_or(0.0));
    m.insert("latency_p90_ms", percentile(&turns, 90.0).unwrap_or(0.0));
    m.insert("peak_rss_mb", rss);
    let propose = class_latencies(records, Class::Propose);
    let writes = class_latencies(records, Class::Write);
    m.insert("propose_p50_ms", percentile(&propose, 50.0).unwrap_or(0.0));
    m.insert("propose_p90_ms", percentile(&propose, 90.0).unwrap_or(0.0));
    m.insert("write_p50_ms", percentile(&writes, 50.0).unwrap_or(0.0));
    m.insert("write_p90_ms", percentile(&writes, 90.0).unwrap_or(0.0));
    m.insert("chain_accuracy", chain_accuracy(&inputs, records));
    m.insert(
        "recovery_ms",
        recovered.iter().fold(0.0, |acc, r| acc + r.ms),
    );
    m.insert("setup.bootstrap_ms", median(&bootstrap_ms).unwrap_or(0.0));
    served_layers(&load, &recovered, &mut m);

    let mut spans = None;
    if args.trace {
        let mut tracer = trace::Tracer::default();
        let samples =
            replay::traced_replay(&core, &inputs, records, &prefix, scratch, &mut tracer)?;
        tally.mismatched += samples.mismatched;
        traced_layers(&samples, &reference, &mut m);
        spans = Some(trace::to_json(tracer.spans()));
    }
    m.insert("failed_frac", tally.failed_frac());

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sizes: Vec<String> = inputs
        .graph_sizes()
        .iter()
        .map(|(name, n, e)| format!("{{\"graph\":\"{name}\",\"nodes\":{n},\"edges\":{e}}}"))
        .collect();
    let provenance = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"heldout_seed\":{},\"cpus\":{},\"pool_workers\":{},\"exec_workers\":{},\"oversubscribed\":{},\"tenants\":{},\"setup_reps\":{},\"measured_s\":{:.3},\"measured_turns\":{},\"latency_tail_percentile\":{},\"reference_checked\":{},\"graph_sizes\":[{}]}}",
        args.workload.name(),
        args.seed,
        heldout_seed(args.seed),
        cpus,
        load::POOL_WORKERS,
        load::EXEC_WORKERS,
        load::POOL_WORKERS * load::EXEC_WORKERS > cpus,
        TENANTS,
        load::SETUP_REPS,
        load.measured_secs,
        turns.len(),
        stats::tail_percentile(turns.len()).map_or("null".to_owned(), |p| p.to_string()),
        reference.checked,
        sizes.join(","),
    );
    Ok(Measured {
        metrics: m,
        tally,
        provenance,
        spans,
    })
}

/// Per-layer metrics read from the served phase: reply events, the shared
/// memo's counters, drain timings and the store reopen.
fn served_layers(load: &LoadResult, recovered: &[Reopened], m: &mut BTreeMap<&'static str, f64>) {
    let ev = &load.events;
    let med = |v: Option<&Vec<f64>>| v.and_then(|v| median(v)).unwrap_or(0.0);
    m.insert("sched.step_ms", median(&ev.step_ms).unwrap_or(0.0));
    let requested = load.memo.requested().max(1) as f64;
    m.insert("sched.memo_hit_ratio", load.memo.hits as f64 / requested);
    m.insert(
        "sched.executed_ratio",
        load.memo.executed() as f64 / requested,
    );
    m.insert("sched.coalesced", load.memo.coalesced as f64);
    m.insert("sched.retries", ev.retries as f64);
    m.insert("sched.timeouts", ev.timeouts as f64);
    m.insert("sched.panics", ev.panics as f64);
    m.insert("sched.degraded", ev.degraded as f64);
    for (metric, kernel) in [
        ("graph.kernel_ms.pagerank", "pagerank"),
        ("graph.kernel_ms.triangle_count", "triangle_count"),
        ("graph.kernel_ms.components", "components"),
        ("graph.kernel_ms.graph_stats", "graph_stats"),
        ("graph.kernel_ms.connectivity", "connectivity"),
    ] {
        m.insert(metric, med(ev.kernel_ms.get(kernel)));
    }
    // Label propagation emits no kernel event; its uncached step time is
    // the closest public measurement.
    m.insert(
        "graph.kernel_ms.communities",
        med(ev.step_ms_by_api.get("detect_communities")),
    );
    m.insert(
        "ged.similarity_ms",
        med(ev.step_ms_by_api.get("similarity_search")),
    );
    m.insert("graph.csr_builds", ev.csr_builds as f64);
    m.insert("graph.csr_delta_patches", ev.csr_delta_patches as f64);
    m.insert(
        "graph.csr_build_ms",
        median(&ev.csr_build_ms).unwrap_or(0.0),
    );
    m.insert("store.checkpoints", ev.checkpoints as f64);
    let col = |f: fn(&Reopened) -> f64| -> f64 {
        median(&recovered.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    m.insert("store.recover_ms", col(|r| r.ms));
    m.insert("store.records_replayed", col(|r| r.records_replayed));
    m.insert("store.wal_bytes", col(|r| r.wal_bytes));
    m.insert("serve.drain_ms", median(&load.drain_ms).unwrap_or(0.0));
    m.insert(
        "serve.requests_per_drain",
        mean(&load.per_drain).unwrap_or(0.0),
    );
    m.insert(
        "serve.rejected",
        load.records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Rejected(_)))
            .count() as f64,
    );
}

/// Per-layer metrics read from the traced replay's spans and return values.
fn traced_layers(
    s: &replay::Samples,
    reference: &check::ReferenceRun,
    m: &mut BTreeMap<&'static str, f64>,
) {
    // Span names are the per-layer metric names without `_ms`; counts
    // carry their metric names already.
    for (name, _) in PER_LAYER {
        let samples = match name.strip_suffix("_ms") {
            Some(span) => s.ms.get(span),
            None => s.counts.get(name),
        };
        if let Some(v) = samples.and_then(|v| median(v)) {
            m.insert(name, v);
        }
    }
    m.insert(
        "store.commits",
        s.ms.get("store.commit").map_or(0, Vec::len) as f64,
    );
    let (contexts, repeats) = s.contexts;
    m.insert(
        "llm.context_repeat_ratio",
        if contexts == 0 {
            0.0
        } else {
            repeats as f64 / contexts as f64
        },
    );
    let (ctx_ms, root_ms) = s.propose_context;
    m.insert(
        "trace.propose_context_share",
        if root_ms > 0.0 { ctx_ms / root_ms } else { 0.0 },
    );
    m.insert(
        "sched.fingerprint_warm_share",
        median(&s.warm_fingerprint_share).unwrap_or(0.0),
    );
    m.insert(
        "trace.unattributed_ms",
        median(&s.unattributed_ms).unwrap_or(0.0),
    );
    // Traced minus untraced: the same requests, replayed once through the
    // reference session without spans and once through the traced path.
    let pairs: Vec<(f64, f64)> = s
        .root_ms
        .iter()
        .filter_map(|(i, traced)| reference.millis.get(i).map(|plain| (*traced, *plain)))
        .collect();
    let overhead = if pairs.is_empty() {
        0.0
    } else {
        pairs.iter().map(|(t, p)| t - p).sum::<f64>() / pairs.len() as f64
    };
    m.insert("trace.overhead_ms", overhead);
    m.insert("trace.replayed", s.replayed as f64);
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn report(args: &Args, out_dir: &Path, m: &Measured) -> Result<(), String> {
    let selected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let all_named: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    println!(
        "# turnbench {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for (name, unit) in &all_named {
        if let Some(v) = m.metrics.get(name) {
            println!("{name:<34} {v:>14.4} {unit}");
        }
    }
    println!(
        "# attempted {} rejected {} errors {} mismatched {} bad_recoveries {}",
        m.tally.attempted,
        m.tally.rejected,
        m.tally.errors,
        m.tally.mismatched,
        m.tally.bad_recoveries
    );
    println!("provenance {}", m.provenance);

    let metrics_json = |names: &[(&str, &str)]| -> String {
        names
            .iter()
            .map(|(name, unit)| {
                let v = m.metrics.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let full = format!(
        "{{\"provenance\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}\n",
        m.provenance,
        m.tally.attempted,
        m.tally.failed(),
        metrics_json(&all_named)
    );
    std::fs::write(out_dir.join(format!("result-{stem}.json")), full).map_err(|e| e.to_string())?;
    if let Some(spans) = &m.spans {
        std::fs::write(out_dir.join(format!("spans-{stem}.json")), spans)
            .map_err(|e| e.to_string())?;
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        m.tally.failed() == 0,
        m.tally.attempted.max(1),
        m.tally.failed(),
        metrics_json(selected)
    );
    Ok(())
}
