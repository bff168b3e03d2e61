//! Output checks and failure accounting.
//!
//! A request counts as failed when `submit` refuses it, when the server or
//! the chain returns an error, or when its reply differs from the
//! reference. The reference is a solo `ChatSession` over the same core,
//! with private caches and no pool, fed the same tenant's requests in the
//! same order: it checks that serving (shared memo, coalescing, shared CSR
//! cache, batching) changes no answer.

use crate::load::{Outcome, Record};
use crate::workload::{Inputs, Sent, TENANTS};
use chatgraph_apis::CollectingMonitor;
use chatgraph_core::session::{ChatSession, SessionCore};
use chatgraph_core::Request;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Attempted and failed requests of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Requests attempted (submitted or refused).
    pub attempted: u64,
    /// Refused by admission control.
    pub rejected: u64,
    /// Answered with an error.
    pub errors: u64,
    /// Answered, but differing from the reference.
    pub mismatched: u64,
    /// Tenant stores whose recovered graph differs from the served one.
    pub bad_recoveries: u64,
}

impl Tally {
    /// Counts refusals and errors among `records`.
    pub fn of(records: &[Record]) -> Tally {
        let mut t = Tally {
            attempted: records.len() as u64,
            ..Tally::default()
        };
        for r in records {
            match r.outcome {
                Outcome::Rejected(_) => t.rejected += 1,
                Outcome::Failed(_) => t.errors += 1,
                _ => {}
            }
        }
        t
    }

    /// Every request counted as failed. A bad recovery fails the store's
    /// tenant, counted once.
    pub fn failed(&self) -> u64 {
        (self.rejected + self.errors + self.mismatched + self.bad_recoveries).min(self.attempted)
    }

    /// Failed share of attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// Indices of each tenant's first `prefix` records, in order.
pub fn tenant_prefixes(records: &[Record], prefix: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); TENANTS];
    for (i, r) in records.iter().enumerate() {
        if out[r.tenant].len() < prefix {
            out[r.tenant].push(i);
        }
    }
    out
}

/// Result of replaying requests through the reference session.
#[derive(Debug, Default)]
pub struct ReferenceRun {
    /// Replies compared.
    pub checked: u64,
    /// Replies that differed.
    pub mismatched: u64,
    /// Untraced wall time of each replayed request, ms, keyed by record.
    pub millis: HashMap<usize, f64>,
}

/// Replays the records at `indices` (per tenant, in order) on fresh solo
/// sessions and compares every answered reply.
pub fn reference_replay(
    core: &Arc<SessionCore>,
    inputs: &Inputs,
    records: &[Record],
    indices: &[Vec<usize>],
) -> ReferenceRun {
    let mut run = ReferenceRun::default();
    for (t, idx) in indices.iter().enumerate() {
        let mut session = ChatSession::from_core(Arc::clone(core));
        session.set_database(inputs.databases[t].clone());
        if let Some(g) = &inputs.initial_graphs[t] {
            session.set_graph(g.clone());
        }
        for &i in idx {
            let r = &records[i];
            if matches!(r.outcome, Outcome::Rejected(_)) {
                continue;
            }
            let request = r.sent.request(inputs, t);
            let start = Instant::now();
            let outcome = match request {
                Request::Chat(prompt) => Outcome::Proposed(session.send(prompt).chain),
                Request::Execute(chain) => {
                    let mut monitor = CollectingMonitor::new();
                    Outcome::of_chain(&session.run_chain(&chain, &mut monitor))
                }
                Request::ChatAndRun(_) => Outcome::Failed("not generated".into()),
            };
            run.millis.insert(i, start.elapsed().as_secs_f64() * 1e3);
            run.checked += 1;
            if outcome != r.outcome {
                run.mismatched += 1;
            }
        }
    }
    run
}

/// Replies to the same chain on the same unchanged graph must agree,
/// whichever tenant asked and whether or not the memo answered. Applies to
/// workloads whose graphs never change; returns the disagreeing replies.
pub fn agreement_mismatches(records: &[Record], graph_of_tenant: impl Fn(usize) -> usize) -> u64 {
    let mut first: HashMap<(usize, String), &Outcome> = HashMap::new();
    let mut bad = 0;
    for r in records {
        let Sent::Execute(chain) = &r.sent else {
            continue;
        };
        if r.outcome.is_failure() {
            continue;
        }
        let key = (graph_of_tenant(r.tenant), format!("{chain:?}"));
        let seen = first.entry(key).or_insert(&r.outcome);
        if **seen != r.outcome {
            bad += 1;
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Class;
    use chatgraph_apis::ApiChain;

    fn record(tenant: usize, chain: &str, outcome: Outcome) -> Record {
        Record {
            tenant,
            sent: Sent::Execute(ApiChain::from_names([chain])),
            class: Class::Read,
            measured: true,
            latency_ms: 1.0,
            outcome,
        }
    }

    #[test]
    fn rejections_errors_and_mismatches_all_fail() {
        let records = vec![
            record(0, "graph_stats", Outcome::Executed(Some(1))),
            record(1, "graph_stats", Outcome::Rejected("queue full".into())),
            record(2, "graph_stats", Outcome::Failed("boom".into())),
            record(3, "graph_stats", Outcome::Executed(Some(2))),
        ];
        let mut t = Tally::of(&records);
        assert_eq!((t.attempted, t.rejected, t.errors), (4, 1, 1));
        assert_eq!(t.failed(), 2);
        t.mismatched = 1;
        t.bad_recoveries = 1;
        assert_eq!(t.failed(), 4);
        assert_eq!(t.failed_frac(), 1.0);
        t.bad_recoveries = 5;
        assert_eq!(t.failed(), 4, "failures never exceed attempts");
    }

    #[test]
    fn disagreeing_replies_on_one_graph_are_mismatches() {
        let records = vec![
            record(0, "graph_stats", Outcome::Executed(Some(1))),
            record(1, "graph_stats", Outcome::Executed(Some(1))),
            record(2, "graph_stats", Outcome::Executed(Some(9))),
            record(3, "graph_stats", Outcome::Executed(Some(7))),
            record(1, "graph_stats", Outcome::Executed(Some(2))),
        ];
        // Tenants 0,1 share graph 0; tenants 2,3 share graph 1.
        assert_eq!(agreement_mismatches(&records, |t| t / 2), 2);
    }

    #[test]
    fn prefixes_keep_per_tenant_order() {
        let records: Vec<Record> = (0..12)
            .map(|i| record(i % TENANTS, "graph_stats", Outcome::Executed(None)))
            .collect();
        let p = tenant_prefixes(&records, 2);
        assert_eq!(p[0], vec![0, 4]);
        assert_eq!(p[3], vec![3, 7]);
    }
}
