//! In-memory spans recorded by the benchmark around its own calls into
//! each layer. Nothing inside the program is instrumented here: a span
//! brackets a public call (or a loop of them) from outside.
//!
//! Spans are kept in a `Vec` for the whole traced run and written out as
//! JSON lines when it ends. Self time is a span's duration minus the part
//! of that interval its child spans cover.

use crate::stats::{json_num, json_str};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.protocol.decode`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or fix) id the span belongs to.
    pub request: Option<u64>,
}

/// Per-name aggregate of a span family.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// A single-threaded span recorder. Spans measured on other threads are
/// added afterwards with [`Tracer::record`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: Option<u64>) -> usize {
        let now = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.enter(name, request);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Adds a span timed elsewhere (another thread, or reconstructed
    /// from timestamps a phase already took). `parent` defaults to the
    /// innermost open span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let id = self.spans.len();
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.or_else(|| self.open.last().copied()),
            request,
        };
        self.spans.push(span);
        id
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let covered = covered_ns(span, children[i].iter().map(|&c| &self.spans[c]));
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += duration;
            t.self_ns += duration.saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON line, then one summary line per
    /// span name with its count, total and self time.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"span\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request.map_or("null".to_string(), |r| r.to_string()),
            )?;
        }
        for (name, t) in self.totals() {
            writeln!(
                w,
                "{{\"summary\":{},\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
                json_str(name),
                t.count,
                json_num(t.total_ns as f64 / 1e6),
                json_num(t.self_ns as f64 / 1e6),
            )?;
        }
        w.flush()
    }
}

/// Nanoseconds of `parent`'s interval covered by the union of its
/// children's intervals (children recorded on other threads may overlap).
fn covered_ns<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = 0;
    for (s, e) in intervals {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let origin = Instant::now();
        let at = |ns: u64| origin + Duration::from_nanos(ns);
        let mut t = Tracer::new(origin);
        let root = t.record("root", at(0), at(100), None, Some(7));
        t.record("child", at(10), at(40), Some(root), Some(7));
        t.record("child", at(30), at(60), Some(root), Some(7));
        let totals = t.totals();
        assert_eq!(totals["root"].total_ns, 100);
        assert_eq!(totals["root"].self_ns, 50);
        assert_eq!(totals["child"].count, 2);
        assert_eq!(totals["child"].self_ns, 60);
    }

    #[test]
    fn nested_scopes_link_parents() {
        let mut t = Tracer::new(Instant::now());
        t.scope("outer", Some(1), |t| t.scope("inner", Some(1), |_| ()));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
