//! In-memory spans around calls into the product.
//!
//! The benchmark's own files open a span before a public call and close
//! it after; nothing inside the crates is instrumented. Spans are kept in
//! a list and written out once, when the run ends. A span's self time is
//! its duration minus the part of that interval its direct children
//! cover (children on other threads may overlap each other, so coverage
//! is the union of their intervals, not the sum).

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are seconds since the tracer was created.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Layer-qualified name (`anomaly.fit`, `federated.socket_run` …).
    pub name: &'static str,
    /// Workload the span belongs to — the identifier its spans share.
    pub workload: &'static str,
    /// Index of the enclosing span in the list, if any.
    pub parent: Option<usize>,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
}

/// Span recorder. A disabled tracer takes the same calls and records
/// nothing, so one loop body serves the untraced and the traced pass.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer for `workload`.
    pub fn on(workload: &'static str) -> Self {
        Self {
            enabled: true,
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::on("")
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            workload: self.workload,
            parent: self.open.iter().rev().nth(1).copied(),
            start,
            end: start,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records a span measured elsewhere (another thread, or a duration
    /// the product reports) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: f64, end: f64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            workload: self.workload,
            parent: self.open.last().copied(),
            start,
            end,
        });
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        self_times(&self.spans)
    }

    /// Seconds covered by top-level spans (the union of their intervals).
    pub fn covered(&self) -> f64 {
        let top: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start, s.end))
            .collect();
        union_length(top)
    }
}

/// Total length of the union of `intervals`.
fn union_length(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (start, end) in intervals {
        let from = start.max(reach);
        if end > from {
            total += end - from;
            reach = end;
        }
    }
    total
}

/// Self time per span name: each span's duration minus the part of it
/// its direct children cover, summed over spans sharing a name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            // Clip to the parent: only time inside it can be subtracted.
            let (ps, pe) = (spans[p].start, spans[p].end);
            children[p].push((s.start.max(ps), s.end.min(pe)));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let own = (s.end - s.start) - union_length(kids);
        *out.entry(s.name).or_insert(0.0) += own.max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            workload: "t",
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", None, 0.0, 10.0),
            span("child", Some(0), 1.0, 5.0),
            span("grandchild", Some(1), 2.0, 3.0),
            span("child", Some(0), 6.0, 8.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], 4.0);
        assert_eq!(t["child"], 5.0);
        assert_eq!(t["grandchild"], 1.0);
        // Self times of a tree sum to the root's duration.
        assert_eq!(t.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two client threads running side by side under one span.
        let spans = [
            span("run", None, 0.0, 10.0),
            span("client", Some(0), 1.0, 7.0),
            span("client", Some(0), 3.0, 9.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["run"], 2.0);
        assert_eq!(t["client"], 12.0);
    }

    #[test]
    fn child_outliving_its_parent_is_clipped() {
        let spans = [span("run", None, 0.0, 4.0), span("late", Some(0), 3.0, 6.0)];
        assert_eq!(self_times(&spans)["run"], 3.0);
    }

    #[test]
    fn tracer_nests_and_covers() {
        let mut t = Tracer::on("w");
        t.enter("a");
        t.enter("b");
        t.exit();
        t.exit();
        t.span("c", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        let total: f64 = t.self_times().values().sum();
        assert!((total - t.covered()).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.enter("a");
        t.record("b", 0.0, 1.0);
        t.exit();
        assert!(t.spans().is_empty());
    }
}
