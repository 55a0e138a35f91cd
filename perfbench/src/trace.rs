//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a public layer of the
//! program in a span (name, start, end, parent, step). Spans stay in
//! memory and are written out when the run ends. A disabled tracer
//! records nothing, so untraced rounds pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifies an open span (or nothing, on a disabled tracer).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call this span wraps, e.g. `loader.refill`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Round of the run the span belongs to.
    pub round: u32,
    /// Step (within its round) the span belongs to.
    pub step: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while enabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    round: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            round: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the rounds that follow.
    pub fn set_enabled(&mut self, enabled: bool, round: u32) {
        self.enabled = enabled;
        self.round = round;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, step: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            round: self.round,
            step,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id` (and any span left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, step: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, step);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Per span name: (count, total self time in ns). A span's self time
    /// is its duration minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.dur_ns().saturating_sub(children);
        }
        out
    }

    /// The span dump: one JSON object per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{},\"step\":{}}}",
                s.name, s.start_ns, s.end_ns, s.round, s.step
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let id = t.begin("step", 0);
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_enabled(true, 0);
        let root = t.begin("step", 0);
        t.span("child", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let times = t.self_times();
        let (n_child, child_ns) = times["child"];
        let (n_root, root_ns) = times["step"];
        assert_eq!((n_child, n_root), (1, 1));
        assert!(child_ns >= 2_000_000);
        assert!(root_ns < child_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.dump().lines().count(), 2);
    }
}
