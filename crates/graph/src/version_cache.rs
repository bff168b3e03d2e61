//! The one retirement rule for data derived from a graph version.
//!
//! Executions hold graphs behind copy-on-write `Arc<Graph>`: a mutation
//! goes through `Arc::make_mut`, which clones into a fresh allocation
//! whenever anything else — a cache included — still holds the `Arc`. A
//! cache that keys by `Arc` pointer identity *and retains the `Arc`*
//! therefore never mistakes a new version for an old one: a pointer match
//! proves the content is unchanged since the value was derived.
//!
//! [`VersionCache`] is that rule, shared by [`crate::csr::CsrCache`] and
//! [`crate::stats::CatalogCache`]: a small most-recently-used-first list of
//! `(graph, derived value)` entries. A version leaves the list in one of
//! two ways — capacity pushes it out, or its owner retires it with
//! [`VersionCache::invalidate`] when the version is replaced, so a dead
//! version never pins its graph and derived data in a long-lived cache.

use crate::graph::Graph;
use std::fmt;
use std::sync::{Arc, Mutex};

/// One resident graph version and the value derived from it.
pub(crate) struct Entry<V> {
    pub(crate) graph: Arc<Graph>,
    pub(crate) value: Arc<V>,
}

struct Inner<V> {
    /// Most recently used first.
    entries: Vec<Entry<V>>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

/// A pointer-keyed, most-recently-used-first cache of per-version values.
pub(crate) struct VersionCache<V> {
    inner: Mutex<Inner<V>>,
}

impl<V> VersionCache<V> {
    /// A cache holding up to `capacity` versions (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        VersionCache {
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                capacity: capacity.max(1),
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// The value derived from `g`, or — on a miss — `build`'s, which then
    /// enters the cache as most recently used. `build` sees the resident
    /// entries (most recent first), so it may derive from a predecessor.
    pub(crate) fn get_or_build(
        &self,
        g: &Arc<Graph>,
        build: impl FnOnce(&[Entry<V>]) -> V,
    ) -> Arc<V> {
        // lockdoc: recover(entries are whole values inserted in one call; a panicked holder cannot leave one torn, and counters are advisory)
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pos) = inner.entries.iter().position(|e| Arc::ptr_eq(&e.graph, g)) {
            inner.hits += 1;
            let entry = inner.entries.remove(pos);
            let value = Arc::clone(&entry.value);
            inner.entries.insert(0, entry);
            return value;
        }
        inner.misses += 1;
        let value = Arc::new(build(&inner.entries));
        inner.entries.insert(
            0,
            Entry {
                graph: Arc::clone(g),
                value: Arc::clone(&value),
            },
        );
        let cap = inner.capacity;
        inner.entries.truncate(cap);
        value
    }

    /// Retires `g` (pointer identity), returning whether it was resident.
    pub(crate) fn invalidate(&self, g: &Arc<Graph>) -> bool {
        // lockdoc: recover(removing a retired version from a structurally valid cache is safe after poison)
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let before = inner.entries.len();
        inner.entries.retain(|e| !Arc::ptr_eq(&e.graph, g));
        inner.entries.len() != before
    }

    /// Number of resident versions.
    pub(crate) fn len(&self) -> usize {
        // lockdoc: recover(read-only observation of a structurally valid cache)
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    /// `(hits, misses)` counters since construction.
    pub(crate) fn stats(&self) -> (u64, u64) {
        // lockdoc: recover(read-only observation of advisory counters)
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (inner.hits, inner.misses)
    }
}

impl<V> fmt::Debug for VersionCache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (hits, misses) = self.stats();
        f.debug_struct("VersionCache")
            .field("hits", &hits)
            .field("misses", &misses)
            .finish()
    }
}
