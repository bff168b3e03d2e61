//! The plan scheduler: executes a [`Plan`] with a scoped-thread worker
//! pool, shared `Arc` graph snapshots, and a bounded step-memo cache.
//!
//! ## Execution model
//!
//! The plan decomposes into [`Segment`]s: barrier steps run alone on the
//! scheduler thread against the real [`ExecContext`] (mutations,
//! confirmations, findings reads); barrier-free segments split into
//! independent sub-chains that workers execute against immutable snapshots
//! (`Arc<Graph>`, `Arc<Vec<Graph>>`, the seed) with **empty local
//! findings** — sound because non-barrier steps never read findings.
//!
//! ## Determinism contract
//!
//! For any chain and any worker count, the scheduler produces the same
//! final value, the same `findings` in the same order, and the same *core*
//! event sequence (the seed executor's seven [`ChainEvent`] variants, in
//! the same order with the same payloads) as the sequential reference
//! executor. Mechanism: workers only compute; all observable effects —
//! events, findings, the failure index — are committed on the scheduler
//! thread in step-index order, stopping at the smallest failing index. The
//! extra plan events (`PlanBuilt`, `StepTimed`, `MemoLookup`) are
//! non-core ([`ChainEvent::is_core`]) and may differ across worker counts.
//!
//! ## Memoization
//!
//! Pure steps (non-barriers) are cached in a bounded LRU keyed by an
//! FNV-1a fingerprint of `(api, params, seed, graph-fingerprint, input
//! fingerprint[, database fingerprint for similarity APIs])`. The graph
//! fingerprint is [`Graph::fingerprint`] — the slot-exact content hash the
//! durable store seals commits with, so a graph with tombstones and its
//! compaction never share a key — and is recomputed only after a mutation
//! barrier; steps whose inputs cannot be fingerprinted are executed
//! uncached. Only `Ok` results are stored.
//!
//! ## Coalescing
//!
//! The memo only captures *warm* redundancy; under concurrent duplicate
//! load (many tenants asking the same question of the same graph) identical
//! steps would still each execute once, cold. [`StepMemo::claim`] closes
//! that window with singleflight coalescing: the first claimant of a key
//! becomes the *leader* of an in-flight slot and executes; concurrent
//! claimants park on the slot's condvar and receive the published outcome —
//! `Ok` or the step-attributed failure — without running the handler.
//! Coalescing is bypassed whenever a fault plan is armed: injected faults
//! are per-tenant decisions and must never leak through a shared flight.

use crate::chain::{ApiCall, ApiChain, ChainError};
use crate::descriptor::ApiCategory;
use crate::executor::ExecContext;
use crate::monitor::{ChainEvent, Monitor};
use crate::plan::{InputSource, Plan, Segment};
use crate::registry::ApiRegistry;
use crate::executor::KernelState;
use crate::supervisor::{self, FailurePolicy, FaultPlan, StepFailure, SupervisorConfig};
use crate::value::Value;
use chatgraph_graph::kernels::{ChunkStrategy, KernelPolicy, DEFAULT_KERNEL_CHUNK};
use chatgraph_graph::Graph;
use chatgraph_support::cancel::CancelToken;
use chatgraph_support::hash::Fnv64;
use chatgraph_support::lru::Lru;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default capacity of the step-memo cache.
pub const DEFAULT_MEMO_CAPACITY: usize = 64;

/// Upper bound a coalesced waiter parks on an in-flight slot before giving
/// up and executing solo. This is a hang backstop, not a tuning knob: a
/// leader that dies publishes an abandonment error through its lease's
/// `Drop` long before this fires.
const COALESCE_WAIT: Duration = Duration::from_secs(10);

/// Hit/miss counters of a [`StepMemo`], read without locking the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed (the step then ran uncached or was stored).
    pub misses: u64,
    /// Misses that never executed: the claimant joined an identical
    /// in-flight execution and received its published outcome.
    pub coalesced: u64,
}

impl MemoStats {
    /// Hit fraction of all lookups (0.0 when no lookup happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Keyed lookups requested (hits + misses).
    pub fn requested(&self) -> u64 {
        self.hits + self.misses
    }

    /// Handler executions actually performed: every miss runs except the
    /// coalesced ones, which ride an in-flight leader instead.
    pub fn executed(&self) -> u64 {
        self.misses.saturating_sub(self.coalesced)
    }
}

/// A shareable bounded step-memo cache with hit/miss counters.
///
/// One private `StepMemo` per [`Scheduler`] is the classic per-session
/// cache. The serving layer promotes a single instance to a *global*
/// cross-session cache by handing the same `Arc<StepMemo>` to every
/// tenant's scheduler ([`Scheduler::with_shared_memo`]). Sharing is sound
/// because the key already fingerprints everything a result depends on —
/// api, params, seed, graph fingerprint (per mutation epoch), input
/// fingerprint, and the database fingerprint for similarity APIs — so a
/// cross-tenant hit proves byte-identical inputs, and only `Ok` values are
/// ever stored (a degraded or faulted step can never leak across tenants).
#[derive(Debug)]
pub struct StepMemo {
    inner: Mutex<MemoInner>,
    /// Whether concurrent identical claims collapse onto one in-flight
    /// execution. Construction-time: flipping it mid-flight would strand
    /// waiters.
    coalesce: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

/// The memo's guarded state: the result cache plus the in-flight slots.
/// One mutex for both makes lookup-or-join-or-lead a single atomic
/// decision, which is what guarantees each unique key executes exactly
/// once under concurrent duplicate load.
#[derive(Debug)]
struct MemoInner {
    lru: Lru<u64, Value>,
    flights: HashMap<u64, Arc<FlightSlot>>,
}

/// One in-flight execution other claimants can park on.
// The two memo-side lock classes never nest the other way: `claim` drops
// `inner` before touching a slot, and a lease publishes to `inner` first,
// then to its slot.
// lockdoc: order(inner < slot)
#[derive(Debug, Default)]
struct FlightSlot {
    /// The published outcome; `None` while the leader is still computing.
    slot: Mutex<Option<Result<Value, StepFailure>>>,
    cv: Condvar,
}

impl FlightSlot {
    /// Parks until the leader publishes, up to `backstop`. `None` on
    /// expiry — the caller then executes solo rather than hang.
    // lockdoc: acquires(slot)
    fn wait(&self, backstop: Duration) -> Option<Result<Value, StepFailure>> {
        // The slot holds one plain published outcome; a publisher panicking
        // mid-store cannot tear an `Option` swap, so recovery is safe.
        // lockdoc: recover(the slot holds a plain whole outcome; poison cannot tear it)
        let mut guard = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        let deadline = Instant::now() + backstop;
        while guard.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (g, _) = self
                .cv
                .wait_timeout(guard, left)
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
        guard.clone()
    }

    /// Publishes the outcome and wakes every waiter.
    // lockdoc: acquires(slot)
    fn publish(&self, outcome: Result<Value, StepFailure>) {
        // lockdoc: recover(the slot holds a plain whole outcome; poison cannot tear it)
        let mut guard = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(outcome);
        drop(guard);
        self.cv.notify_all();
    }
}

/// What [`StepMemo::claim`] tells its caller to do.
pub enum Claim {
    /// Served from the memo; nothing runs.
    Hit(Value),
    /// The caller executes the step. With a lease it *leads* an in-flight
    /// slot concurrent claimants may join, and must publish its outcome
    /// through the lease. Without one (coalescing off, or a waiter whose
    /// backstop expired) it runs solo and stores any `Ok` itself.
    Run(Option<FlightLease>),
    /// An identical in-flight execution published its outcome while this
    /// caller waited: the shared value, or the shared failure.
    Coalesced(Result<Value, StepFailure>),
}

/// Leadership of one in-flight slot. The leader executes the step and
/// publishes through [`FlightLease::publish`]; if the lease is dropped
/// unpublished (a scheduler-internal death), an abandonment error is
/// published instead so waiters fail immediately rather than hang until
/// their backstop.
pub struct FlightLease {
    memo: Arc<StepMemo>,
    key: u64,
    flight: Arc<FlightSlot>,
    published: bool,
}

impl FlightLease {
    /// Publishes the leader's outcome: an `Ok` is stored in the memo
    /// (failures are shared with waiters but never cached), the in-flight
    /// entry is removed, and every waiter wakes with a clone.
    pub fn publish(mut self, outcome: Result<Value, StepFailure>) {
        self.complete(outcome);
    }

    fn complete(&mut self, outcome: Result<Value, StepFailure>) {
        if self.published {
            return;
        }
        self.published = true;
        {
            let mut inner = self.memo.lock();
            if let Ok(v) = &outcome {
                inner.lru.insert(self.key, v.clone());
            }
            inner.flights.remove(&self.key);
        }
        self.flight.publish(outcome);
    }
}

impl Drop for FlightLease {
    fn drop(&mut self) {
        self.complete(Err(StepFailure::Error(
            "coalesced step leader abandoned the flight".to_owned(),
        )));
    }
}

impl Default for StepMemo {
    fn default() -> Self {
        StepMemo::new(DEFAULT_MEMO_CAPACITY)
    }
}

impl StepMemo {
    /// A memo holding at most `capacity` results (0 disables storage),
    /// with coalescing on.
    pub fn new(capacity: usize) -> Self {
        StepMemo {
            inner: Mutex::new(MemoInner {
                lru: Lru::new(capacity),
                flights: HashMap::new(),
            }),
            coalesce: true,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// The same memo with coalescing disabled: every claim that misses
    /// runs solo (the coalescing-off bench baseline).
    pub fn without_coalescing(mut self) -> Self {
        self.coalesce = false;
        self
    }

    /// Whether concurrent identical claims coalesce.
    pub fn coalescing(&self) -> bool {
        self.coalesce
    }

    // lockdoc: acquires(inner)
    fn lock(&self) -> MutexGuard<'_, MemoInner> {
        // A holder can only poison this lock by panicking mid-`get`/`insert`;
        // the cache itself stays structurally valid, so keep using it.
        // lockdoc: recover(memo holders only get/insert; the LRU and flight map stay structurally valid through a panic)
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a fingerprint, counting the hit or miss. This is the plain
    /// (non-coalescing) read used on the fault-armed path.
    pub fn lookup(&self, key: u64) -> Option<Value> {
        let found = self.lock().lru.get(&key).cloned();
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Atomically looks up `key`, joins its in-flight execution, or takes
    /// leadership of a new one — the coalescing entry point. The decision
    /// happens under one lock, so of all concurrent claimants of a missing
    /// key exactly one receives a lease; the rest park on the slot (with a
    /// backstop) and return [`Claim::Coalesced`] once the leader publishes.
    pub fn claim(self: &Arc<Self>, key: u64) -> Claim {
        let flight = {
            let mut inner = self.lock();
            if let Some(v) = inner.lru.get(&key) {
                let v = v.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Claim::Hit(v);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            if !self.coalesce {
                return Claim::Run(None);
            }
            match inner.flights.get(&key) {
                Some(flight) => Arc::clone(flight),
                None => {
                    let flight = Arc::new(FlightSlot::default());
                    inner.flights.insert(key, Arc::clone(&flight));
                    return Claim::Run(Some(FlightLease {
                        memo: Arc::clone(self),
                        key,
                        flight,
                        published: false,
                    }));
                }
            }
        };
        // Follower: the `inner` guard is released; park on the slot alone.
        match flight.wait(COALESCE_WAIT) {
            Some(outcome) => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                Claim::Coalesced(outcome)
            }
            None => Claim::Run(None),
        }
    }

    /// Stores one `Ok` step result under its fingerprint.
    pub fn store(&self, key: u64, value: Value) {
        self.lock().lru.insert(key, value);
    }

    /// Current number of memoized results.
    pub fn len(&self) -> usize {
        self.lock().lru.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().lru.is_empty()
    }

    /// Drops every memoized result (counters and in-flight slots are kept).
    pub fn clear(&self) {
        self.lock().lru.clear();
    }

    /// Hit/miss/coalesced counters since construction.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }
}

/// The scheduler-relevant slice of a session's execution configuration —
/// the single source of truth for building a [`Scheduler`], so every
/// construction site picks up every knob
/// ([`Scheduler::from_exec_config`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecProfile {
    /// Worker threads for parallel plan segments (clamped to ≥ 1).
    pub workers: usize,
    /// Capacity of the pure-step memo cache (0 disables caching).
    pub memo_capacity: usize,
    /// Work-chunk size for the parallel CSR kernels.
    pub kernel_chunk: usize,
    /// Deadline / retry / failure-policy configuration.
    pub supervisor: SupervisorConfig,
}

impl Default for ExecProfile {
    fn default() -> Self {
        ExecProfile {
            workers: 1,
            memo_capacity: DEFAULT_MEMO_CAPACITY,
            kernel_chunk: DEFAULT_KERNEL_CHUNK,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// Acknowledgement from a [`CommitSink`] for one durable mutation barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitAck {
    /// The durable epoch the commit produced.
    pub epoch: u64,
    /// WAL records the commit appended.
    pub records: usize,
    /// Bytes the commit appended.
    pub bytes: u64,
}

/// A durability hook on the scheduler's mutation barriers.
///
/// When installed ([`Scheduler::set_commit_sink`]), the scheduler calls
/// [`CommitSink::commit`] once per successful graph-mutating barrier step,
/// **before** the step's effects are published to the chain (finding pushed,
/// `StepFinished` emitted, output forwarded). A failed commit aborts the
/// chain with [`ChainError::CommitFailed`] so no later step builds on
/// unlogged state; the in-memory mutation itself stands (the session layer
/// installs the graph even on chain failure).
pub trait CommitSink: Send + Sync + std::fmt::Debug {
    /// Durably records `graph` as the next epoch.
    fn commit(&self, graph: &Graph) -> Result<CommitAck, String>;
}

/// Executes plans with a fixed worker count and a step-memo cache.
///
/// The scheduler is long-lived: a session keeps one and the memo cache
/// carries across chains, so re-running an edited chain re-executes only
/// the steps whose inputs changed.
#[derive(Debug)]
pub struct Scheduler {
    workers: usize,
    kernel_chunk: usize,
    supervisor: SupervisorConfig,
    memo: Arc<StepMemo>,
    commit_sink: Option<Arc<dyn CommitSink>>,
}

impl Scheduler {
    /// A scheduler with `workers` worker threads (clamped to ≥ 1) and the
    /// default memo capacity.
    pub fn new(workers: usize) -> Self {
        Scheduler {
            workers: workers.max(1),
            kernel_chunk: DEFAULT_KERNEL_CHUNK,
            supervisor: SupervisorConfig::default(),
            memo: Arc::new(StepMemo::default()),
            commit_sink: None,
        }
    }

    /// Builds a scheduler from an execution profile — the one construction
    /// path every session goes through, so a new exec knob added here is
    /// picked up everywhere at once.
    pub fn from_exec_config(profile: &ExecProfile) -> Self {
        Scheduler {
            workers: profile.workers.max(1),
            kernel_chunk: profile.kernel_chunk.max(1),
            supervisor: profile.supervisor.clone(),
            memo: Arc::new(StepMemo::new(profile.memo_capacity)),
            commit_sink: None,
        }
    }

    /// Overrides the memo capacity (0 disables memoization) with a fresh
    /// private cache.
    pub fn with_memo_capacity(mut self, capacity: usize) -> Self {
        self.memo = Arc::new(StepMemo::new(capacity));
        self
    }

    /// Replaces the private memo with a shared (possibly global,
    /// cross-session) one.
    pub fn with_shared_memo(mut self, memo: Arc<StepMemo>) -> Self {
        self.memo = memo;
        self
    }

    /// Installs a shared memo on an existing scheduler (the serving layer
    /// does this when a session joins a server's global cache).
    pub fn set_shared_memo(&mut self, memo: Arc<StepMemo>) {
        self.memo = memo;
    }

    /// A handle to the memo cache (for sharing or for reading stats).
    pub fn memo_handle(&self) -> Arc<StepMemo> {
        Arc::clone(&self.memo)
    }

    /// Overrides the CSR kernel chunk size (`exec.kernel_chunk`).
    pub fn with_kernel_chunk(mut self, chunk: usize) -> Self {
        self.kernel_chunk = chunk.max(1);
        self
    }

    /// Overrides the supervisor configuration (`exec.step_deadline_ms`,
    /// `exec.max_retries`, `exec.failure_policy`).
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Arms (or clears) deterministic fault injection for subsequent
    /// chains — the REPL's `:faults` command and the test harness.
    pub fn set_fault_plan(&mut self, faults: Option<FaultPlan>) {
        self.supervisor.faults = faults;
    }

    /// The current supervisor configuration.
    pub fn supervisor(&self) -> &SupervisorConfig {
        &self.supervisor
    }

    /// Mutable access to the supervisor configuration (per-tenant failure
    /// policy overrides in the serving layer and the test harness).
    pub fn supervisor_mut(&mut self) -> &mut SupervisorConfig {
        &mut self.supervisor
    }

    /// Installs (or clears) the durable commit sink called on every
    /// successful mutation barrier.
    pub fn set_commit_sink(&mut self, sink: Option<Arc<dyn CommitSink>>) {
        self.commit_sink = sink;
    }

    /// Whether a durable commit sink is installed.
    pub fn has_commit_sink(&self) -> bool {
        self.commit_sink.is_some()
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Current number of memoized step results.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Drops all memoized step results (e.g. after replacing the session
    /// graph, although stale entries are harmless — the graph fingerprint
    /// in the key already separates them).
    pub fn clear_memo(&self) {
        self.memo.clear();
    }

    /// Plans and executes `chain` — same contract as
    /// [`crate::execute_chain`], which is this with one worker.
    pub fn execute(
        &self,
        registry: &ApiRegistry,
        chain: &ApiChain,
        ctx: &mut ExecContext,
        monitor: &mut dyn Monitor,
    ) -> Result<Value, ChainError> {
        chain.validate(registry, true)?;
        let diagnostics = crate::analysis::analyze(chain, registry, true);
        if !diagnostics.is_empty() {
            monitor.on_event(&ChainEvent::Diagnostics {
                diagnostics: diagnostics.clone(),
            });
        }
        if let Some(err) = diagnostics.first_error() {
            return Err(ChainError::AnalysisRejected(err.render()));
        }
        // Price the plan against the current epoch's statistics catalog
        // (one cached O(n + m) pass): per-step work estimates order
        // sub-chain dispatch, and steps under the parallelism bar run their
        // CSR kernels sequentially.
        let catalog = ctx.kernels.catalog(&ctx.graph);
        let plan = Plan::build_with_stats(chain, registry, Some(&catalog))?;
        // Interference audit (CG016/CG017): independently re-prove that no
        // parallel segment hides a conflicting effect before running any of
        // it. Plans from `Plan::build` are clean by construction, so this
        // only fires if planning and scheduling ever drift apart.
        let audit = crate::analysis::audit_plan(&plan);
        if !audit.is_empty() {
            monitor.on_event(&ChainEvent::Diagnostics {
                diagnostics: audit.clone(),
            });
        }
        if let Some(err) = audit.first_error() {
            return Err(ChainError::AnalysisRejected(err.render()));
        }
        monitor.on_event(&ChainEvent::ChainStarted { total: chain.len() });
        monitor.on_event(&ChainEvent::PlanBuilt {
            steps: plan.len(),
            deps: plan.dep_count(),
            barriers: plan.barrier_count(),
            par_kernels: plan.par_kernel_count(),
            est_cost: plan.total_cost(),
        });

        // Rebuild the policy for this chain but keep the session's scratch
        // pool: kernel working memory warmed by earlier chains stays warm.
        ctx.kernels.policy = KernelPolicy::new(self.workers, self.kernel_chunk)
            .with_strategy(ChunkStrategy::DegreeWeighted)
            .with_scratch(ctx.kernels.policy.scratch.clone());
        let mut prev = Value::Unit;
        // The graph fingerprint is stable between mutation barriers; cache
        // it per epoch. `None` = not yet computed for the current graph.
        let mut graph_fp: Option<u64> = None;
        let mut db_fp: Option<u64> = None;
        for segment in plan.segments() {
            match segment {
                Segment::Barrier(i) => {
                    let step = &chain.steps[i];
                    let pstep = &plan.steps[i];
                    monitor.on_event(&ChainEvent::StepStarted {
                        step: i,
                        api: step.api.clone(),
                    });
                    let input = resolve_input(pstep.input, &prev, ctx);
                    if registry
                        .descriptor(&step.api)
                        .is_some_and(|d| d.requires_confirmation)
                    {
                        monitor.on_event(&ChainEvent::ConfirmationRequested {
                            step: i,
                            api: step.api.clone(),
                        });
                        if !monitor.confirm(i, &step.api, &input.summary()) {
                            return Err(ChainError::Rejected(i, step.api.clone()));
                        }
                    }
                    let start = Instant::now();
                    let retryable = registry
                        .descriptor(&step.api)
                        .is_some_and(|d| d.transient_retryable);
                    // The cost model's call: a barrier under the parallelism
                    // bar runs its CSR kernels sequentially — the pool costs
                    // more than the kernel at that scale.
                    ctx.kernels.policy.workers =
                        if pstep.par_kernel { self.workers } else { 1 };
                    // Barriers run on the scheduler thread against the real
                    // context; the supervisor threads its per-attempt token
                    // into the kernel policy so CSR kernels observe the
                    // deadline at chunk boundaries.
                    let attempted = supervisor::run_step(
                        &self.supervisor,
                        ctx.seed,
                        i,
                        retryable,
                        |token, chunk_delay| {
                            ctx.kernels.policy.cancel = token.clone();
                            ctx.kernels.policy.chunk_delay = chunk_delay;
                            registry.call(&step.api, ctx, input.clone(), step)
                        },
                    );
                    ctx.kernels.policy.cancel = CancelToken::new();
                    ctx.kernels.policy.chunk_delay = Duration::ZERO;
                    for note in &attempted.retries {
                        monitor.on_event(&ChainEvent::StepRetried {
                            step: i,
                            api: step.api.clone(),
                            attempt: note.attempt,
                            backoff_ms: note.backoff_ms,
                            error: note.error.clone(),
                        });
                    }
                    match attempted.result {
                        Ok(output) => {
                            // Durability point: the mutation barrier's epoch
                            // goes to the WAL before any effect of the step
                            // is published to the chain.
                            if pstep.mutates_graph {
                                if let Some(sink) = &self.commit_sink {
                                    match sink.commit(&ctx.graph) {
                                        Ok(ack) => {
                                            monitor.on_event(&ChainEvent::WalAppended {
                                                step: i,
                                                epoch: ack.epoch,
                                                records: ack.records,
                                                bytes: ack.bytes,
                                            });
                                        }
                                        Err(error) => {
                                            monitor.on_event(&ChainEvent::StepFailed {
                                                step: i,
                                                api: step.api.clone(),
                                                error: format!(
                                                    "durable commit failed: {error}"
                                                ),
                                            });
                                            return Err(ChainError::CommitFailed(i, error));
                                        }
                                    }
                                }
                            }
                            ctx.push_finding(&step.api, &output);
                            monitor.on_event(&ChainEvent::StepFinished {
                                step: i,
                                api: step.api.clone(),
                                output: output.value_type(),
                                summary: output.summary(),
                            });
                            monitor.on_event(&ChainEvent::StepTimed {
                                step: i,
                                api: step.api.clone(),
                                micros: start.elapsed().as_micros() as u64,
                                cached: false,
                            });
                            prev = output;
                        }
                        Err(failure) => {
                            emit_failure_detail(monitor, i, &step.api, &failure);
                            // Barriers are never dead-output (their effect
                            // *is* the barrier), so no policy check: abort.
                            monitor.on_event(&ChainEvent::StepFailed {
                                step: i,
                                api: step.api.clone(),
                                error: failure.render(),
                            });
                            return Err(failure.into_chain_error(i));
                        }
                    }
                    if pstep.mutates_graph {
                        graph_fp = None;
                    }
                    drain_kernel_events(ctx, monitor);
                }
                Segment::Parallel(chains) => {
                    let gfp = *graph_fp.get_or_insert_with(|| ctx.graph.fingerprint());
                    let needs_db = chains.iter().flatten().any(|&j| {
                        registry
                            .descriptor(&chain.steps[j].api)
                            .is_some_and(|d| d.category == ApiCategory::Similarity)
                    });
                    let dfp = if needs_db {
                        Some(*db_fp.get_or_insert_with(|| database_fingerprint(&ctx.database)))
                    } else {
                        None
                    };
                    let seg = SegmentRun {
                        scheduler: self,
                        registry,
                        chain,
                        plan: &plan,
                        snapshot: Arc::clone(&ctx.graph),
                        database: Arc::clone(&ctx.database),
                        seed: ctx.seed,
                        graph_fp: gfp,
                        db_fp: dfp,
                        kernels: ctx.kernels.clone(),
                    };
                    let out = seg.run(chains, prev, ctx, monitor);
                    drain_kernel_events(ctx, monitor);
                    prev = out?;
                }
            }
        }
        monitor.on_event(&ChainEvent::ChainFinished);
        Ok(prev)
    }
}

/// Flushes CSR build and kernel timing records accumulated in the context's
/// shared kernel state out to the monitor as plan events.
fn drain_kernel_events(ctx: &ExecContext, monitor: &mut dyn Monitor) {
    for b in ctx.kernels.drain_builds() {
        monitor.on_event(&ChainEvent::CsrBuilt {
            nodes: b.nodes,
            edges: b.edges,
            micros: b.micros,
            delta: b.delta,
        });
    }
    for (kernel, micros, workers) in ctx.kernels.drain_timings() {
        monitor.on_event(&ChainEvent::KernelTimed { kernel, micros, workers });
    }
}

/// Emits the non-core detail event for a supervised failure (timeout /
/// panic); plain errors carry no extra detail beyond `StepFailed`.
fn emit_failure_detail(monitor: &mut dyn Monitor, step: usize, api: &str, failure: &StepFailure) {
    match failure {
        StepFailure::TimedOut(ms) => monitor.on_event(&ChainEvent::StepTimedOut {
            step,
            api: api.to_owned(),
            deadline_ms: *ms,
        }),
        StepFailure::Panicked(msg) => monitor.on_event(&ChainEvent::StepPanicked {
            step,
            api: api.to_owned(),
            message: msg.clone(),
        }),
        StepFailure::Error(_) => {}
    }
}

/// Resolves a statically planned input against the live context.
fn resolve_input(source: InputSource, prev: &Value, ctx: &ExecContext) -> Value {
    match source {
        InputSource::PrevOutput(_) => prev.clone(),
        InputSource::SessionGraph => Value::Graph(Arc::clone(&ctx.graph)),
        InputSource::Unit => Value::Unit,
    }
}

/// What happened when one pure step ran (or was served from cache).
struct StepOutcome {
    result: Result<Value, StepFailure>,
    /// Supervisor retries performed before the final result, in order.
    retries: Vec<supervisor::RetryNote>,
    micros: u64,
    cached: bool,
    /// Whether the result was received from a coalesced in-flight
    /// execution instead of running the handler.
    coalesced: bool,
    memo_checked: bool,
}

impl StepOutcome {
    /// The outcome recorded for a step whose worker thread died without
    /// reporting (a scheduler-internal panic caught at `join`).
    fn pool_panic(msg: String) -> StepOutcome {
        StepOutcome {
            result: Err(StepFailure::Panicked(msg)),
            retries: Vec::new(),
            micros: 0,
            cached: false,
            coalesced: false,
            memo_checked: false,
        }
    }
}

/// Everything a barrier-free segment needs, shareable across workers.
struct SegmentRun<'a> {
    scheduler: &'a Scheduler,
    registry: &'a ApiRegistry,
    chain: &'a ApiChain,
    plan: &'a Plan,
    snapshot: Arc<Graph>,
    database: Arc<Vec<Graph>>,
    seed: u64,
    graph_fp: u64,
    db_fp: Option<u64>,
    kernels: KernelState,
}

impl SegmentRun<'_> {
    /// Executes the segment's sub-chains and commits results in step-index
    /// order. Returns the output of the segment's last step.
    fn run(
        &self,
        chains: Vec<Vec<usize>>,
        prev: Value,
        ctx: &mut ExecContext,
        monitor: &mut dyn Monitor,
    ) -> Result<Value, ChainError> {
        let threads = self.scheduler.workers.min(chains.len());
        if threads <= 1 {
            return self.run_inline(&chains, prev, ctx, monitor);
        }
        let indices: Vec<usize> = chains.iter().flatten().copied().collect();
        // Pool-internal locks: a worker takes the job queue, drops it, and
        // only then writes an outcome slot — never both at once.
        // lockdoc: order(jobs < outcomes)
        // Handler panics are caught inside `exec_pure`, so these locks can
        // only be poisoned by a scheduler-internal bug; the slots hold
        // plain `Option<StepOutcome>` data that a panic cannot tear.
        // lockdoc: recover(job queue and outcome slots hold plain data; commit re-validates per step)
        // One slot per step in the segment, filled by whichever worker runs
        // that step's sub-chain.
        let outcomes: Vec<Mutex<Option<StepOutcome>>> = indices
            .iter()
            .map(|_| Mutex::new(None))
            .collect();
        let slot_of = |j: usize| indices.iter().position(|&k| k == j);
        // Dispatch sub-chains most-expensive-first (LPT): with estimates in
        // hand, the long analysis starts immediately instead of queueing
        // behind cheap counts. Stable sort, so without statistics (all
        // zero) the historical first-index order is preserved; commit order
        // below is by step index either way, so observable behaviour is
        // identical.
        let mut ordered: Vec<Vec<usize>> = chains.clone();
        ordered.sort_by_key(|sub| {
            std::cmp::Reverse(sub.iter().map(|&j| self.plan.steps[j].est_cost).sum::<u64>())
        });
        let jobs: Mutex<VecDeque<Vec<usize>>> = Mutex::new(ordered.into_iter().collect());
        // Which step each worker is currently executing, for panic
        // attribution at `join`. Handler panics are already caught inside
        // `exec_pure` by the supervisor, so a worker can only die from a
        // scheduler-internal bug — but even then the payload must not be
        // lost or resumed into the caller.
        let current: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let mut pool_panics: Vec<(usize, String)> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for w in 0..threads {
                let cur = &current[w];
                let prev = &prev;
                let jobs = &jobs;
                let outcomes = &outcomes;
                let slot_of = &slot_of;
                handles.push(scope.spawn(move || loop {
                    let job = {
                        let mut q = jobs.lock().unwrap_or_else(|e| e.into_inner());
                        q.pop_front()
                    };
                    let Some(sub) = job else { break };
                    let mut local_prev = match self.plan.steps[sub[0]].input {
                        InputSource::PrevOutput(_) => prev.clone(),
                        _ => Value::Unit,
                    };
                    for &j in &sub {
                        cur.store(j, Ordering::Relaxed);
                        let input = self.worker_input(j, &local_prev);
                        let outcome = self.exec_pure(j, input, true);
                        let ok = outcome.result.as_ref().ok().cloned();
                        if let Some(slot) = slot_of(j) {
                            let mut guard =
                                outcomes[slot].lock().unwrap_or_else(|e| e.into_inner());
                            *guard = Some(outcome);
                        }
                        cur.store(usize::MAX, Ordering::Relaxed);
                        // A failure ends this sub-chain; later steps in it
                        // would never have run sequentially either.
                        match ok {
                            Some(v) => local_prev = v,
                            None => break,
                        }
                    }
                }));
            }
            for (w, h) in handles.into_iter().enumerate() {
                if let Err(payload) = h.join() {
                    // Attribute the payload to the step the worker was on
                    // (fall back to the segment's first step if it died
                    // between steps) instead of unwinding into the caller.
                    let at = current[w].load(Ordering::Relaxed);
                    let step = if at == usize::MAX {
                        indices.iter().copied().min().unwrap_or(0)
                    } else {
                        at
                    };
                    pool_panics.push((step, supervisor::panic_message(payload)));
                }
            }
        });
        // Route pool panics through the normal commit path: fill the dead
        // step's slot so the smallest failing index still wins.
        for (step, msg) in pool_panics {
            if let Some(slot) = slot_of(step) {
                let mut guard = outcomes[slot].lock().unwrap_or_else(|e| e.into_inner());
                if guard.is_none() {
                    *guard = Some(StepOutcome::pool_panic(msg));
                }
            }
        }
        // Commit on the scheduler thread in step-index order; the smallest
        // failing index wins, exactly as in sequential execution.
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        let mut last = prev;
        for j in sorted {
            let outcome = slot_of(j).and_then(|s| {
                outcomes[s].lock().unwrap_or_else(|e| e.into_inner()).take()
            });
            let Some(outcome) = outcome else {
                // An empty slot means the step's sub-chain aborted at a
                // smaller failing index, and commit returns at that index
                // first — so this is unreachable; skip defensively.
                continue;
            };
            if let Some(err) = self.commit(j, outcome, ctx, monitor, &mut last) {
                return Err(err);
            }
        }
        Ok(last)
    }

    /// Single-threaded segment execution: interleaved execute-and-commit in
    /// step-index order — byte-for-byte the sequential executor's behaviour
    /// (plus memoization).
    fn run_inline(
        &self,
        chains: &[Vec<usize>],
        prev: Value,
        ctx: &mut ExecContext,
        monitor: &mut dyn Monitor,
    ) -> Result<Value, ChainError> {
        let mut indices: Vec<usize> = chains.iter().flatten().copied().collect();
        indices.sort_unstable();
        let mut last = prev;
        for j in indices {
            let input = self.worker_input(j, &last);
            let outcome = self.exec_pure(j, input, false);
            if let Some(err) = self.commit(j, outcome, ctx, monitor, &mut last) {
                return Err(err);
            }
        }
        Ok(last)
    }

    /// Resolves step `j`'s input inside a worker: the running sub-chain
    /// value for `PrevOutput`, a graph snapshot, or `Unit`.
    fn worker_input(&self, j: usize, local_prev: &Value) -> Value {
        match self.plan.steps[j].input {
            InputSource::PrevOutput(_) => local_prev.clone(),
            InputSource::SessionGraph => Value::Graph(Arc::clone(&self.snapshot)),
            InputSource::Unit => Value::Unit,
        }
    }

    /// Runs one pure step against an isolated context, consulting and
    /// feeding the memo cache. When the segment itself is running across
    /// worker threads (`parallel`), kernel-level parallelism is disabled so
    /// the pool is never oversubscribed — the worker threads *are* the
    /// kernel chunk workers in that regime.
    fn exec_pure(&self, j: usize, input: Value, parallel: bool) -> StepOutcome {
        let call = &self.chain.steps[j];
        let key = self.memo_key(call, &input);
        let retryable = self
            .registry
            .descriptor(&call.api)
            .is_some_and(|d| d.transient_retryable);
        let start = Instant::now();

        // Fault-free path (production serving): there are no fault
        // decisions to order the memo consult against, so the claim happens
        // up front and concurrent identical executions coalesce onto one
        // flight. Identical keys imply identical outcomes — sharing the
        // leader's value *or failure* is observationally identical to
        // running solo.
        if self.scheduler.supervisor.faults.is_none() {
            let outcome = |result, retries, cached, coalesced, memo_checked| StepOutcome {
                result,
                retries,
                micros: start.elapsed().as_micros() as u64,
                cached,
                coalesced,
                memo_checked,
            };
            return match key.map(|k| self.scheduler.memo.claim(k)) {
                Some(Claim::Hit(v)) => outcome(Ok(v), Vec::new(), true, false, true),
                Some(Claim::Coalesced(shared)) => {
                    outcome(shared, Vec::new(), false, true, true)
                }
                Some(Claim::Run(lease)) => {
                    let attempted = self.attempt(j, input, parallel, retryable);
                    match lease {
                        Some(lease) => lease.publish(attempted.result.clone()),
                        None => {
                            if let (Some(k), Ok(v)) = (key, &attempted.result) {
                                self.scheduler.memo.store(k, v.clone());
                            }
                        }
                    }
                    outcome(attempted.result, attempted.retries, false, false, true)
                }
                None => {
                    let attempted = self.attempt(j, input, parallel, retryable);
                    outcome(attempted.result, attempted.retries, false, false, false)
                }
            };
        }

        // Fault-armed path (tests, the REPL's `:faults`): the supervisor
        // decides fault injection *before* this closure runs, so the memo
        // cache (consulted inside) cannot mask injected faults on warm
        // runs. Coalescing is bypassed entirely — injected faults are
        // per-tenant decisions that must never leak through a shared
        // flight.
        let mut cached = false;
        let mut memo_checked = false;
        let attempted = supervisor::run_step(
            &self.scheduler.supervisor,
            self.seed,
            j,
            retryable,
            |token, chunk_delay| {
                memo_checked = key.is_some();
                if let Some(k) = key {
                    if let Some(hit) = self.scheduler.memo.lookup(k) {
                        cached = true;
                        return Ok(hit);
                    }
                }
                self.attempt_once(j, &input, parallel, token, chunk_delay)
            },
        );
        let micros = start.elapsed().as_micros() as u64;
        if !cached {
            if let (Some(k), Ok(v)) = (key, &attempted.result) {
                self.scheduler.memo.store(k, v.clone());
            }
        }
        StepOutcome {
            result: attempted.result,
            retries: attempted.retries,
            micros,
            cached,
            coalesced: false,
            memo_checked,
        }
    }

    /// One supervised execution of step `j` (no memo involvement).
    fn attempt(
        &self,
        j: usize,
        input: Value,
        parallel: bool,
        retryable: bool,
    ) -> supervisor::Attempted {
        supervisor::run_step(
            &self.scheduler.supervisor,
            self.seed,
            j,
            retryable,
            |token, chunk_delay| self.attempt_once(j, &input, parallel, token, chunk_delay),
        )
    }

    /// A single attempt of step `j` against an isolated context. Kernel
    /// parallelism is off when the segment itself spans worker threads
    /// (the pool must not oversubscribe — the worker threads *are* the
    /// kernel chunk workers in that regime) and when the cost model says
    /// the step is too small to pay for the pool.
    fn attempt_once(
        &self,
        j: usize,
        input: &Value,
        parallel: bool,
        token: &CancelToken,
        chunk_delay: Duration,
    ) -> Result<Value, String> {
        let call = &self.chain.steps[j];
        let mut kernels = self.kernels.clone();
        kernels.policy.cancel = token.clone();
        kernels.policy.chunk_delay = chunk_delay;
        kernels.policy.workers = if parallel || !self.plan.steps[j].par_kernel {
            1
        } else {
            self.scheduler.workers
        };
        let mut local = ExecContext {
            graph: Arc::clone(&self.snapshot),
            database: Arc::clone(&self.database),
            findings: Vec::new(),
            seed: self.seed,
            kernels,
        };
        self.registry.call(&call.api, &mut local, input.clone(), call)
    }

    /// The memo key for one call, or `None` when any component cannot be
    /// fingerprinted (then the step simply runs uncached).
    fn memo_key(&self, call: &ApiCall, input: &Value) -> Option<u64> {
        let ifp = value_fingerprint(input)?;
        let mut h = Fnv64::new();
        h.write_str(&call.api);
        for (k, v) in &call.params {
            h.write_str(k);
            h.write_str(v);
        }
        h.write_u64(self.seed);
        h.write_u64(self.graph_fp);
        h.write_u64(ifp);
        if self
            .registry
            .descriptor(&call.api)
            .is_some_and(|d| d.category == ApiCategory::Similarity)
        {
            h.write_u64(self.db_fp?);
        }
        Some(h.finish())
    }

    /// Emits step `j`'s events, records its finding, and advances the
    /// running value — the only place segment effects become observable.
    fn commit(
        &self,
        j: usize,
        outcome: StepOutcome,
        ctx: &mut ExecContext,
        monitor: &mut dyn Monitor,
        last: &mut Value,
    ) -> Option<ChainError> {
        let api = &self.chain.steps[j].api;
        monitor.on_event(&ChainEvent::StepStarted {
            step: j,
            api: api.clone(),
        });
        for note in &outcome.retries {
            monitor.on_event(&ChainEvent::StepRetried {
                step: j,
                api: api.clone(),
                attempt: note.attempt,
                backoff_ms: note.backoff_ms,
                error: note.error.clone(),
            });
        }
        if outcome.memo_checked {
            monitor.on_event(&ChainEvent::MemoLookup {
                step: j,
                api: api.clone(),
                hit: outcome.cached,
            });
        }
        if outcome.coalesced {
            monitor.on_event(&ChainEvent::StepCoalesced {
                step: j,
                api: api.clone(),
            });
        }
        match outcome.result {
            Ok(output) => {
                ctx.push_finding(api, &output);
                monitor.on_event(&ChainEvent::StepFinished {
                    step: j,
                    api: api.clone(),
                    output: output.value_type(),
                    summary: output.summary(),
                });
                monitor.on_event(&ChainEvent::StepTimed {
                    step: j,
                    api: api.clone(),
                    micros: outcome.micros,
                    cached: outcome.cached,
                });
                *last = output;
                None
            }
            Err(failure) => {
                emit_failure_detail(monitor, j, api, &failure);
                if self.scheduler.supervisor.failure_policy == FailurePolicy::SkipDegraded
                    && self.plan.dead_output(j)
                {
                    // The step's output is provably unconsumed downstream:
                    // record a degraded finding and keep the chain alive.
                    // `last` is untouched — a degraded value is never read.
                    let error = failure.render();
                    ctx.push_finding(api, &Value::Text(format!("degraded: {error}")));
                    monitor.on_event(&ChainEvent::DegradedResult {
                        step: j,
                        api: api.clone(),
                        error,
                    });
                    None
                } else {
                    monitor.on_event(&ChainEvent::StepFailed {
                        step: j,
                        api: api.clone(),
                        error: failure.render(),
                    });
                    Some(failure.into_chain_error(j))
                }
            }
        }
    }
}

/// The memo's graph key: [`Graph::fingerprint`], the slot-exact content
/// hash the durable store also seals commits with. Always `Some`.
pub fn graph_fingerprint(g: &Graph) -> Option<u64> {
    Some(g.fingerprint())
}

fn database_fingerprint(db: &[Graph]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(db.len() as u64);
    for g in db {
        h.write_u64(g.fingerprint());
    }
    h.finish()
}

/// FNV-1a fingerprint of a value. Hand-rolled rather than JSON-based so
/// float payloads hash via `to_bits` (NaN-safe, no formatting wobble).
pub fn value_fingerprint(v: &Value) -> Option<u64> {
    let mut h = Fnv64::new();
    match v {
        Value::Unit => h.write_str("unit"),
        Value::Number(x) => {
            h.write_str("num");
            h.write_u64(x.to_bits());
        }
        Value::Text(t) => {
            h.write_str("text");
            h.write_str(t);
        }
        Value::Bool(b) => {
            h.write_str("bool");
            h.write_u64(u64::from(*b));
        }
        Value::NodeList(ns) => {
            h.write_str("nodes");
            h.write_u64(ns.len() as u64);
            for n in ns {
                h.write_u64(n.index() as u64);
            }
        }
        Value::EdgeList(es) => {
            h.write_str("edges");
            h.write_u64(es.len() as u64);
            for (a, b, l) in es {
                h.write_u64(a.index() as u64);
                h.write_u64(b.index() as u64);
                h.write_str(l);
            }
        }
        Value::Table(t) => {
            h.write_str("table");
            h.write_u64(t.headers.len() as u64);
            for c in &t.headers {
                h.write_str(c);
            }
            h.write_u64(t.rows.len() as u64);
            for row in &t.rows {
                h.write_u64(row.len() as u64);
                for c in row {
                    h.write_str(c);
                }
            }
        }
        Value::Report(r) => {
            h.write_str("report");
            h.write_str(&r.title);
            h.write_u64(r.sections.len() as u64);
            for (a, b) in &r.sections {
                h.write_str(a);
                h.write_str(b);
            }
        }
        Value::Graph(g) => {
            h.write_str("graph");
            h.write_u64(g.fingerprint());
        }
    }
    Some(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::CollectingMonitor;
    use crate::registry;
    use chatgraph_graph::generators::{
        knowledge_graph, social_network, KgParams, SocialParams,
    };

    fn social_ctx() -> ExecContext {
        ExecContext::new(social_network(&SocialParams::default(), 1))
    }

    fn core_events(events: &[ChainEvent]) -> Vec<ChainEvent> {
        events.iter().filter(|e| e.is_core()).cloned().collect()
    }

    #[test]
    fn four_workers_match_reference_on_branchy_chain() {
        let reg = registry::standard();
        let chain = ApiChain::from_names([
            "node_count",
            "edge_count",
            "graph_density",
            "largest_component",
            "node_count",
            "generate_report",
        ]);
        let mut ref_ctx = social_ctx();
        let mut ref_mon = CollectingMonitor::new();
        let ref_out =
            crate::executor::execute_chain_reference(&reg, &chain, &mut ref_ctx, &mut ref_mon)
                .unwrap();
        let mut par_ctx = social_ctx();
        let mut par_mon = CollectingMonitor::new();
        let par_out = Scheduler::new(4)
            .execute(&reg, &chain, &mut par_ctx, &mut par_mon)
            .unwrap();
        assert_eq!(par_out, ref_out);
        assert_eq!(par_ctx.findings, ref_ctx.findings);
        assert_eq!(core_events(&par_mon.events), core_events(&ref_mon.events));
    }

    #[test]
    fn plan_built_event_precedes_steps() {
        let reg = registry::standard();
        let chain = ApiChain::from_names(["node_count", "edge_count"]);
        let mut ctx = social_ctx();
        let mut mon = CollectingMonitor::new();
        Scheduler::new(2).execute(&reg, &chain, &mut ctx, &mut mon).unwrap();
        let started = mon
            .events
            .iter()
            .position(|e| matches!(e, ChainEvent::ChainStarted { total: 2 }))
            .expect("ChainStarted must be emitted");
        assert!(matches!(
            mon.events[started + 1],
            ChainEvent::PlanBuilt { steps: 2, barriers: 0, .. }
        ));
        assert!(mon.events[..started]
            .iter()
            .all(|e| matches!(e, ChainEvent::Diagnostics { .. })));
        assert!(matches!(mon.events.last(), Some(ChainEvent::ChainFinished)));
    }

    #[test]
    fn memo_serves_repeated_steps() {
        let reg = registry::standard();
        let chain = ApiChain::from_names(["node_count", "edge_count"]);
        let sched = Scheduler::new(1);
        let mut ctx = social_ctx();
        sched
            .execute(&reg, &chain, &mut ctx, &mut crate::monitor::SilentMonitor)
            .unwrap();
        assert!(sched.memo_len() >= 2);
        // Same chain, same graph: every step is a hit now.
        let mut ctx2 = social_ctx();
        let mut mon = CollectingMonitor::new();
        sched.execute(&reg, &chain, &mut ctx2, &mut mon).unwrap();
        let hits = mon
            .events
            .iter()
            .filter(|e| matches!(e, ChainEvent::MemoLookup { hit: true, .. }))
            .count();
        assert_eq!(hits, 2);
        assert_eq!(ctx2.findings, ctx.findings);
    }

    #[test]
    fn mutation_invalidates_memoized_graph_reads() {
        let reg = registry::standard();
        let sched = Scheduler::new(1);
        let mut g = knowledge_graph(&KgParams::default(), 7);
        chatgraph_graph::generators::corrupt_kg(&mut g, 0.1, 0.0, 7);
        let chain = ApiChain::from_names([
            "edge_count",
            "detect_incorrect_edges",
            "remove_edges",
            "edge_count",
        ]);
        let mut ctx = ExecContext::new(g);
        let mut mon = CollectingMonitor::new();
        let out = sched.execute(&reg, &chain, &mut ctx, &mut mon).unwrap();
        let before = ctx.findings[0].1.as_number().unwrap();
        let after = out.as_number().unwrap();
        assert!(after < before, "post-edit read must not be served stale");
        // No memo hit anywhere: the graph fingerprint changed at the barrier.
        assert!(!mon
            .events
            .iter()
            .any(|e| matches!(e, ChainEvent::MemoLookup { hit: true, .. })));
    }

    #[test]
    fn rejection_and_failure_indices_match_reference() {
        let reg = registry::standard();
        let chain = ApiChain::from_names(["detect_incorrect_edges", "remove_edges"]);
        for workers in [1, 4] {
            let mut ctx = ExecContext::new(knowledge_graph(&KgParams::default(), 3));
            let mut mon = CollectingMonitor::with_answers([false]);
            let err = Scheduler::new(workers)
                .execute(&reg, &chain, &mut ctx, &mut mon)
                .unwrap_err();
            assert_eq!(err, ChainError::Rejected(1, "remove_edges".to_owned()));
            assert_eq!(mon.confirm_log.len(), 1);
        }
    }

    /// A graph with a removed node and its compaction hold the same live
    /// structure under different node ids, so a memo shared between them
    /// must key them apart: the compacted graph's answer equals its solo run.
    #[test]
    fn tombstoned_and_compacted_graphs_never_share_memo_entries() {
        let reg = registry::standard();
        let mut chain = ApiChain::new();
        chain.push(ApiCall::new("find_influencers").with_param("k", "3"));
        let mut tombstoned = social_network(&SocialParams::default(), 1);
        tombstoned.remove_node(chatgraph_graph::NodeId(0)).unwrap();
        let (compacted, _) = tombstoned.compact();
        let run = |sched: &Scheduler, g: &Graph| {
            let mut ctx = ExecContext::new(g.clone());
            sched
                .execute(&reg, &chain, &mut ctx, &mut crate::monitor::SilentMonitor)
                .unwrap()
        };
        let solo = run(&Scheduler::new(1), &compacted);
        let memo = Arc::new(StepMemo::new(DEFAULT_MEMO_CAPACITY));
        let shared = Scheduler::new(1).with_shared_memo(memo);
        run(&shared, &tombstoned);
        assert_eq!(run(&shared, &compacted), solo, "served the tombstoned graph's answer");
    }

    #[test]
    fn value_fingerprints_separate_values() {
        let a = value_fingerprint(&Value::Number(1.0));
        let b = value_fingerprint(&Value::Number(2.0));
        assert_ne!(a, b);
        assert_eq!(a, value_fingerprint(&Value::Number(1.0)));
        assert_ne!(
            value_fingerprint(&Value::Text("1".into())),
            value_fingerprint(&Value::Number(1.0))
        );
        // NaN fingerprints consistently instead of poisoning the cache key.
        assert_eq!(
            value_fingerprint(&Value::Number(f64::NAN)),
            value_fingerprint(&Value::Number(f64::NAN))
        );
    }
}
