//! In-memory host-time spans for the traced run.
//!
//! A span records a name, its start and end on the host clock, the span
//! that caused it and the request (transaction or packet) it belongs to.
//! Spans are only ever appended while the run goes and are summarized
//! when it ends; a layer's self time is its duration minus the part of
//! that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Identifies an open or closed span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `lcf.handle`.
    pub name: &'static str,
    /// Host nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder started (`u64::MAX` while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Transaction or packet id; 0 for spans not tied to one request.
    pub request: u64,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Append-only span recorder.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: u64::MAX,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Close a span now; returns its duration.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        assert_eq!(span.end_ns, u64::MAX, "span {} closed twice", span.name);
        span.end_ns = end;
        end - span.start_ns
    }

    /// Record a finished top-level span that started at `start` and
    /// lasted `duration_ns`.
    pub fn record(&mut self, name: &'static str, start: Instant, duration_ns: u64) -> SpanId {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: None,
            request: 0,
        });
        self.spans.len() - 1
    }

    /// Write every span as a tab-separated line: name, start ns, end ns,
    /// parent index (-1 for none), request id.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\trequest")?;
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }

    /// Totals per span name, key-sorted. Open spans are skipped.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns == u64::MAX {
                continue;
            }
            let duration = s.end_ns - s.start_ns;
            let covered = covered_ns(
                s,
                children[i]
                    .iter()
                    .map(|&c| &self.spans[c])
                    .filter(|c| c.end_ns != u64::MAX),
            );
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += duration;
            t.self_ns += duration - covered;
        }
        out
    }
}

/// Nanoseconds of `parent`'s interval covered by the union of `children`.
fn covered_ns<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = Spans {
            origin: Instant::now(),
            spans: vec![
                span("outer", 0, 100, None),
                span("inner", 10, 40, Some(0)),
                span("inner", 30, 50, Some(0)),
                span("inner", 90, 120, Some(0)),
            ],
        };
        let t = spans.totals();
        assert_eq!(t["outer"].total_ns, 100);
        // children cover 10..50 and 90..100.
        assert_eq!(t["outer"].self_ns, 50);
        assert_eq!(t["inner"].count, 3);
        assert_eq!(t["inner"].total_ns, 30 + 20 + 30);
    }

    #[test]
    fn open_and_close_measure_host_time() {
        let mut s = Spans::default();
        let a = s.open("a", None, 7);
        let b = s.open("b", Some(a), 7);
        std::hint::black_box((0..1000u64).sum::<u64>());
        s.close(b);
        s.close(a);
        let t = s.totals();
        assert!(t["a"].total_ns >= t["b"].total_ns);
        assert_eq!(t["a"].self_ns + t["b"].total_ns, t["a"].total_ns);
    }
}
