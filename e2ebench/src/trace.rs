//! In-memory spans around the calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, batch}`; spans of one batch
//! share its index. With the tracer off, `enter`/`exit` are one branch
//! each and read no clock, which is how end-to-end metrics are measured. A
//! layer's busy time is its spans' *self* time: duration minus the part
//! covered by child spans, so the self times of a tree sum to its root.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Batch id of spans outside the record loop (set-up).
pub const NO_BATCH: u32 = u32::MAX;
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub batch: u32,
}

#[derive(Debug)]
pub struct Tracer {
    /// Toggled per unit in the timed phase of a traced run, so traced and
    /// untraced units interleave and host drift cancels out of the
    /// overhead estimate. Only flip it while no span is open.
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    batch: u32,
}

/// Per-name totals over a range of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub calls: u64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), batch: NO_BATCH }
    }

    pub fn set_batch(&mut self, batch: u32) {
        self.batch = batch;
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, batch: self.batch });
    }

    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit without enter");
        self.spans[i as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span (for calls that do not trace further).
    #[inline]
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time and call count per span name over `spans[from..to]`.
    /// Children always follow their parent, and a range boundary is only
    /// ever taken with no span open, so a range holds whole trees.
    pub fn layer_times(&self, from: usize, to: usize) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; to - from];
        for s in &self.spans[from..to] {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize - from] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans[from..to].iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_s += (s.end_ns - s.start_ns - child) as f64 * 1e-9;
        }
        out
    }

    /// Total duration of the root spans named `name` in `spans[from..to]`.
    pub fn root_seconds(&self, name: &str, from: usize, to: usize) -> f64 {
        self.spans[from..to]
            .iter()
            .filter(|s| s.parent == NO_PARENT && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// The trace file: every span, in start order.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            let batch = if s.batch == NO_BATCH { -1 } else { i64::from(s.batch) };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{batch}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut t = Tracer::new(true);
        t.set_batch(3);
        t.enter("root");
        t.scope("a", || std::hint::black_box((0..10_000u64).sum::<u64>()));
        t.enter("b");
        t.scope("a", || std::hint::black_box((0..10_000u64).sum::<u64>()));
        t.exit();
        t.exit();
        let times = t.layer_times(0, t.len());
        assert_eq!(times["a"].calls, 2);
        let total: f64 = times.values().map(|l| l.self_s).sum();
        let root = t.root_seconds("root", 0, t.len());
        assert!((total - root).abs() < 1e-9, "{total} vs {root}");
        assert!(t.to_json("w", 1).contains("\"batch\":3"));
    }

    #[test]
    fn an_idle_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("x");
        t.exit();
        assert_eq!(t.scope("y", || 7), 7);
        assert_eq!(t.len(), 0);
    }
}
