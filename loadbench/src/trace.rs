//! Harness-side spans: recorded in memory around the calls into each
//! layer, written out as `trace.jsonl` when the run ends, and reduced to
//! per-name self times (a span's duration minus what its children cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes the same span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one request share this id.
    pub request: u64,
}

/// An append-only span list with one clock.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index (a parent handle).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.push(name, start, end, parent, request))
    }

    /// Appends another recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(other.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span, in nanoseconds, grouped by span name: the
/// span's duration minus the part of it that its direct children cover
/// (overlapping children are counted once; children are clipped to the
/// parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (span, mut kids) in spans.iter().zip(children) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (start, end) in kids {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        let duration = span.end_ns.saturating_sub(span.start_ns);
        out.entry(span.name)
            .or_default()
            .push(duration.saturating_sub(covered));
    }
    out
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("roundtrip", 10, 70, Some(0)),
            span("verify", 70, 90, Some(0)),
            // Overlaps `verify` by 10 and sticks 20 out of the parent.
            span("extra", 80, 120, Some(0)),
            span("grandchild", 20, 30, Some(1)),
        ];
        let st = self_times(&spans);
        // Children cover [10, 70] and [70, 100] of the parent: 90 of 100.
        assert_eq!(st["request"], vec![10]);
        assert_eq!(st["roundtrip"], vec![50]);
        assert_eq!(st["verify"], vec![20]);
        assert_eq!(st["extra"], vec![40]);
        assert_eq!(st["grandchild"], vec![10]);
        // Parts sum to the whole: self times of a tree cover the root once
        // (the 20 that `extra` sticks out and the 10 it shares with
        // `verify` aside).
        let tree: u64 = ["request", "roundtrip", "verify", "grandchild"]
            .iter()
            .map(|n| st[n][0])
            .sum();
        assert_eq!(tree, 90);
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.push("x", 0, 1, None, 0);
        let mut b = Recorder::new(epoch);
        let root = b.push("root", 0, 10, None, 7);
        b.push("leaf", 2, 4, Some(root), 7);
        a.absorb(b.spans);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(self_times(&a.spans)["root"], vec![8]);
    }
}
