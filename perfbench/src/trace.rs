//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions, kept in memory, and written out once the
//! run ends. A span's self time is its duration minus the part of its
//! interval that its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Trace`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the trace origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span measured by the caller.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`Trace::close`] ends; children opened in
    /// between name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = Instant::now();
        self.push(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.push(name, parent, request, start, Instant::now());
        out
    }

    /// Each span's self time: its duration minus the union of its
    /// children's intervals clipped to its own.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns() - covered.min(s.duration_ns())
            })
            .collect()
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// One JSON object per line: id, name, start, end, parent, request
    /// and self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, ns: u64) -> Instant {
        origin + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_subtracts_the_union_of_nested_children() {
        let o = Instant::now();
        let mut t = Trace::new(o);
        let root = t.push("root", None, 1, at(o, 0), at(o, 100));
        let a = t.push("a", Some(root), 1, at(o, 10), at(o, 40));
        // Overlaps `a`: the overlap counts once.
        t.push("b", Some(root), 1, at(o, 30), at(o, 60));
        // A grandchild is subtracted from `a`, not again from `root`.
        t.push("a.inner", Some(a), 1, at(o, 15), at(o, 20));
        // Runs past the parent's end: clipped.
        t.push("c", Some(root), 1, at(o, 90), at(o, 120));
        assert_eq!(t.self_ns(), vec![40, 25, 30, 5, 30]);
        assert_eq!(t.durations_ms("a"), vec![30.0 / 1e6]);
    }

    #[test]
    fn open_close_and_record_nest() {
        let mut t = Trace::new(Instant::now());
        let root = t.open("req", None, 7);
        let v = t.record("child", Some(root), 7, || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        t.close(root);
        assert_eq!(v, 42);
        let selfs = t.self_ns();
        let (req, child) = (&t.spans()[0], &t.spans()[1]);
        assert_eq!(child.parent, Some(root));
        assert!(child.duration_ns() >= 2_000_000);
        assert_eq!(selfs[0], req.duration_ns() - child.duration_ns());
    }

    #[test]
    fn jsonl_keeps_parent_links() {
        let o = Instant::now();
        let mut t = Trace::new(o);
        let p = t.push("y", None, 2, at(o, 5), at(o, 50));
        t.push("z", Some(p), 2, at(o, 10), at(o, 20));
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        let last = serde_json::from_str(jsonl.lines().last().unwrap()).unwrap();
        assert_eq!(
            last.get("parent").and_then(serde_json::Value::as_u64),
            Some(0)
        );
        let first = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(
            first.get("self_ns").and_then(serde_json::Value::as_u64),
            Some(35)
        );
    }
}
