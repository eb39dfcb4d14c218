//! In-memory span recorder for the traced run.
//!
//! A span covers one call into a layer: its name, start, end, the span
//! that caused it and the request it served. Spans stay in memory while
//! the workload runs and are written out once at the end. A layer's self
//! time is its span's duration minus the part of that interval its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `cts.synthesize`.
    pub name: &'static str,
    /// Start, seconds since the origin.
    pub start_s: f64,
    /// End, seconds since the origin.
    pub end_s: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request the span served.
    pub request: u64,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records spans around calls; nested calls become children.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Seconds since the origin.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Converts an instant to seconds since the origin.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Runs `f` inside a span named `name` for `request`; spans opened by
    /// `f` become its children.
    pub fn span<T>(
        &mut self,
        request: u64,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let start_s = self.now_s();
        let parent = self.open.last().copied();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            parent,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.now_s();
        out
    }

    /// Records an already-measured span (e.g. from a child process's
    /// events) and returns its index.
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-aligned with [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_s, s.end_s));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| self_time((s.start_s, s.end_s), &kids))
            .collect()
    }

    /// Total self time per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_s\": {:.9}, \"end_s\": {:.9}, \"self_s\": {:.9}}}",
                s.name, s.request, s.start_s, s.end_s, own
            )?;
        }
        out.flush()
    }
}

/// The part of `parent` not covered by the union of `children`, each
/// clipped to the parent's interval first.
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (lo, hi) = parent;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        run = match run {
            Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
            Some((ra, rb)) => {
                covered += rb - ra;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ra, rb)) = run {
        covered += rb - ra;
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert!(close(
            self_time((0.0, 10.0), &[(1.0, 2.0), (5.0, 8.0)]),
            6.0
        ));
        assert!(close(self_time((0.0, 10.0), &[]), 10.0));
    }

    #[test]
    fn overlapping_children_count_once() {
        // (1,4) and (3,6) overlap on (3,4): union is 5 long.
        assert!(close(
            self_time((0.0, 10.0), &[(3.0, 6.0), (1.0, 4.0)]),
            5.0
        ));
        // A child nested inside another child adds nothing.
        assert!(close(
            self_time((0.0, 10.0), &[(1.0, 9.0), (2.0, 3.0)]),
            2.0
        ));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert!(close(self_time((2.0, 6.0), &[(0.0, 3.0), (5.0, 9.0)]), 2.0));
        assert!(close(self_time((2.0, 6.0), &[(7.0, 9.0)]), 4.0));
        assert!(close(self_time((2.0, 6.0), &[(0.0, 9.0)]), 0.0));
    }

    #[test]
    fn nested_spans_form_a_tree_with_self_times() {
        let mut t = Tracer::default();
        t.span(7, "request", |t| {
            t.span(7, "a", |t| {
                t.span(7, "a.inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
            t.span(7, "b", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        let own = t.self_times();
        let total: f64 = own.iter().sum();
        // Self times partition the root span exactly.
        assert!(close(total, spans[0].duration_s()));
        assert!(own[2] >= 0.002);
    }
}
