//! Spans around calls into the system's layers, recorded by the benchmark
//! itself (the program under test carries none of this).
//!
//! A [`SpanLog`] belongs to one thread: spans go into a plain `Vec`, held
//! in memory for the whole run and written out once at exit. A span names
//! the layer function it wraps, the span that caused it (its parent), the
//! request it belongs to, and how many work items it covered — so per-item
//! costs are ratios of a time and a count taken at the same boundary.
//! A layer's *self time* is its span minus the part of that interval its
//! children cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (within the same log) of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one request share this identifier.
    pub request: u64,
    /// Work items covered (snapshots, packets, …); 1 when not applicable.
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Disabled logs cost one branch per call.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl SpanLog {
    /// All logs of a run share `t0` so their timestamps are comparable.
    pub fn new(enabled: bool, t0: Instant) -> Self {
        SpanLog {
            enabled,
            t0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Run `f` inside a span. Nested calls become children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        count: u64,
        f: impl FnOnce(&mut SpanLog) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            count,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        r
    }

    /// [`SpanLog::span`] around a call that opens no child spans.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        request: u64,
        count: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span(name, request, count, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent. Children that overlap
/// one another (work fanned out in parallel) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Totals per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    pub calls: u64,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTotal {
    /// Self nanoseconds per covered work item.
    pub fn ns_per_item(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }

    /// Self nanoseconds per call.
    pub fn ns_per_call(&self) -> f64 {
        self.self_ns as f64 / self.calls.max(1) as f64
    }
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.count += s.count;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Self-time nanoseconds of each call of `name`, in recording order.
pub fn self_ns_of(spans: &[Span], name: &str) -> Vec<u64> {
    self_times(spans)
        .into_iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name)
        .map(|(ns, _)| ns)
        .collect()
}

/// Write the span files of a run: one JSON document, one span per line so
/// the file stays greppable. `logs` are the per-thread logs, in thread
/// order; parents are indices within the same thread's list.
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    logs: &[(&str, &[Span])],
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"threads\":["
    )?;
    for (ti, (thread, spans)) in logs.iter().enumerate() {
        writeln!(w, "{{\"thread\":\"{thread}\",\"spans\":[")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"count\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                s.count,
                if i + 1 == spans.len() { "" } else { "," }
            )?;
        }
        writeln!(w, "]}}{}", if ti + 1 == logs.len() { "" } else { "," })?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child a 10..40 with grandchild 20..30; child b 50..70.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("g", 20, 30, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        // The grandchild comes off its parent `a`, not off the root twice.
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let t = totals(&spans);
        assert_eq!(t["root"].self_ns, 50);
        assert_eq!(t["root"].total_ns, 100);
        // Self times partition the root's wall exactly.
        assert_eq!(t.values().map(|l| l.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        // Two children fanned out in parallel overlap on 30..50; a third
        // runs past the parent's end and is clipped to it.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 60, Some(0)),
            span("z", 90, 130, Some(0)),
        ];
        // Covered: 10..60 (50) + 90..100 (10) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn log_nests_by_call_structure_and_disabled_logs_record_nothing() {
        let mut log = SpanLog::new(true, Instant::now());
        let out = log.span("outer", 7, 1, |l| {
            l.leaf("inner", 7, 32, || 5) + l.leaf("inner", 7, 32, || 6)
        });
        assert_eq!(out, 11);
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(totals(spans)["inner"].count, 64);

        let mut off = SpanLog::new(false, Instant::now());
        assert_eq!(off.span("outer", 0, 1, |l| l.leaf("inner", 0, 1, || 3)), 3);
        assert!(off.spans().is_empty());
    }
}
