//! In-memory spans recorded by the benchmark around the public calls it
//! makes, and the per-layer self-time table built from them.
//!
//! A span the benchmark opens and closes itself carries real start and end
//! times. The pipeline reports its stage walls as durations only
//! (`InferResponse::metrics`), so stage spans are *placed*: laid end to end
//! from their parent's start. Stages run one after another inside a serve
//! call and never overlap, so the parent's self time (its duration minus
//! the part its children cover) is exact; the placed start times are not
//! measurements and are marked as such in the written trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name: the public call or pipeline stage it covers.
    pub name: String,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or replay) the span belongs to.
    pub request: u64,
    /// Whether the start was placed rather than measured.
    pub placed: bool,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate of the span table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerRow {
    /// Spans of this name.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times (duration minus child coverage).
    pub self_ns: u64,
}

/// Span store for one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now and returns its id.
    pub fn begin(&mut self, name: &str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            placed: false,
        })
    }

    /// Closes span `id` now (nothing when `id` is `None`: an untraced
    /// iteration opened no span).
    pub fn end(&mut self, id: impl Into<Option<usize>>) {
        if let Some(id) = id.into() {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Records child spans of `parent` from reported durations, laid end to
    /// end from the parent's start.
    pub fn place_children(&mut self, parent: usize, children: &[(&str, u64)]) {
        let (mut at, request) = (self.spans[parent].start_ns, self.spans[parent].request);
        for &(name, duration_ns) in children {
            self.push(Span {
                name: name.to_owned(),
                start_ns: at,
                end_ns: at + duration_ns,
                parent: Some(parent),
                request,
                placed: true,
            });
            at += duration_ns;
        }
    }

    /// Adds a finished span as recorded elsewhere (tests build trees this
    /// way).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// The recorded spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`]: its
    /// duration minus the union of its children's intervals, clipped to it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(span.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Self times of the spans named `name`, in milliseconds.
    pub fn self_ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(span, _)| span.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// The per-layer table: calls, total and self time per span name.
    pub fn table(&self) -> BTreeMap<String, LayerRow> {
        let mut rows: BTreeMap<String, LayerRow> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let row = rows.entry(span.name.clone()).or_default();
            row.calls += 1;
            row.total_ns += span.duration_ns();
            row.self_ns += self_ns;
        }
        rows
    }

    /// The spans as JSON, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"placed\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                s.placed,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request: 0,
            placed: false,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let mut t = Tracer::new();
        let root = t.push(span("request", 0, 100, None));
        let serve = t.push(span("serve", 10, 90, Some(root)));
        t.push(span("conv", 20, 40, Some(serve)));
        let act = t.push(span("act", 40, 70, Some(serve)));
        t.push(span("probe", 50, 60, Some(act)));
        // request: 100 - serve 80; serve: 80 - (20 + 30); act: 30 - 10.
        assert_eq!(t.self_times(), vec![20, 30, 20, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let mut t = Tracer::new();
        let root = t.push(span("replay", 100, 200, None));
        t.push(span("a", 90, 130, Some(root))); // starts before the parent
        t.push(span("b", 120, 150, Some(root))); // overlaps a
        t.push(span("c", 180, 250, Some(root))); // runs past the parent
                                                 // Covered: [100,150) + [180,200) = 70 of 100.
        assert_eq!(t.self_times()[0], 30);
    }

    #[test]
    fn placed_children_tile_from_the_parent_start() {
        let mut t = Tracer::new();
        let serve = t.push(span("serve", 1_000, 2_000, None));
        t.place_children(serve, &[("conv", 300), ("act", 500)]);
        let spans = t.spans();
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (1_000, 1_300));
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (1_300, 1_800));
        assert!(spans[1].placed && !spans[0].placed);
        assert_eq!(t.self_ms_of("serve"), vec![200.0 / 1e6]);
        let table = t.table();
        assert_eq!(table["serve"].self_ns, 200);
        assert_eq!(table["act"].total_ns, 500);
        assert!(t.to_json().contains("\"name\":\"act\",\"start_ns\":1300"));
    }
}
