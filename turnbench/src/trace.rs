//! In-memory span recording for the traced replay.
//!
//! A span is a name, a start and end in nanoseconds since the tracer was
//! created, the span that encloses it, and the request it belongs to.
//! Spans stay in memory until the run ends and are then written out as
//! one JSON array. Self time is a span's duration minus the part of it
//! its child spans cover.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sequencer.path_cover`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The replayed request this span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span. Returns `f`'s result and the new span's index.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, usize) {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request: self.request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        (out, idx)
    }

    /// Records an already-measured interval as a child of `parent` (used
    /// for work timed on another call path, such as a commit sink).
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, parent: usize) {
        let request = self.spans[parent].request;
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(parent),
            request,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.nanos().saturating_sub(covered)
        })
        .collect()
}

/// Renders spans as a JSON array of `[name, start_ns, end_ns, parent,
/// request]` rows (`parent` is -1 for roots).
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or(-1, |p| p as i64);
            format!(
                "[\"{}\",{},{},{},{}]",
                s.name, s.start, s.end, parent, s.request
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,70).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 10, 100, None),
            span("a", 0, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Covered: [10,50) + [90,100) = 50.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_and_stamps_requests() {
        let mut t = Tracer::default();
        t.set_request(7);
        let (_, root) = t.span("root", |t| {
            t.span("child", |_| ());
        });
        t.record("late", 1, 2, root);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[2].parent, Some(root));
        assert!(s.iter().all(|s| s.request == 7));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    }
}
