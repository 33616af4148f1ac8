//! In-memory spans for the traced run.
//!
//! A span is `(name, start, end, parent, request id)`. Spans are kept in
//! a vector while the run goes, written out as JSON lines when it ends,
//! and reduced to per-layer self time: a span's duration minus the part
//! of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span; times are seconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request (or call).
    pub request: u64,
}

/// Collects spans; [`Tracer::span`] times a closure as one span whose
/// children are the spans opened while it runs.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name` for request `request`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Records a span built from timestamps taken elsewhere; returns its
    /// index for use as a parent.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start\": {:?}, \"end\": {:?}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Total self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            span("b", 5.0, 9.0, Some(0)),
            span("a.inner", 1.5, 2.0, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![4.0, 1.5, 4.0, 0.5]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(t.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("x", 2.0, 6.0, Some(0)),
            span("y", 4.0, 12.0, Some(0)),
        ];
        // Children cover [2, 10] within the root: 8 s.
        assert_eq!(self_times(&spans)[0], 2.0);
    }

    #[test]
    fn tracer_nests_and_sums_by_name() {
        let mut tr = Tracer::new();
        tr.span("root", 1, |tr| {
            for _ in 0..3 {
                tr.span("leaf", 1, |_| std::hint::black_box(0));
            }
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans[1..]
            .iter()
            .all(|s| s.parent == Some(0) && s.request == 1));
        let by = self_time_by_name(spans);
        let root = spans[0].end - spans[0].start;
        assert!((by["root"] + by["leaf"] - root).abs() < 1e-12);
    }
}
