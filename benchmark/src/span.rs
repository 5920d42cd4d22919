//! Spans recorded by the benchmark around its calls into each layer. Kept in
//! memory during the run and written out once at the end.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub query: u64,
}

#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    /// Per name: how many durations a layer reported about itself, and
    /// their sum in nanoseconds.
    reported: BTreeMap<&'static str, (u64, u64)>,
}

impl Trace {
    /// Traces that will be merged must share one `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            reported: BTreeMap::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `work` inside a new span and returns its result with the span's
    /// index, so children can name it as their parent.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query: u64,
        work: impl FnOnce(&mut Trace, usize) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.ns_since_epoch(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query,
        });
        let result = work(self, id);
        self.spans[id].end_ns = self.ns_since_epoch(Instant::now());
        result
    }

    /// Notes a duration a layer reported about itself, without a span.
    pub fn note(&mut self, name: &'static str, duration: Duration) {
        let entry = self.reported.entry(name).or_default();
        entry.0 += 1;
        entry.1 += duration.as_nanos() as u64;
    }

    /// How many durations were noted under `name`, and their sum in
    /// nanoseconds.
    pub fn reported_totals(&self, name: &str) -> (u64, u64) {
        self.reported.get(name).copied().unwrap_or_default()
    }

    /// Notes durations a layer reported about itself (`AsrTiming`,
    /// `QaBreakdown`, `ImmTiming`) and records them as child spans. The
    /// layer gives no start times, so the children are laid end to end from
    /// the parent's start; only their durations carry information.
    pub fn reported_children(&mut self, parent: usize, parts: &[(&'static str, Duration)]) {
        let query = self.spans[parent].query;
        let mut at = self.spans[parent].start_ns;
        for &(name, duration) in parts {
            self.note(name, duration);
            let end = at + duration.as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent: Some(parent),
                query,
            });
            at = end;
        }
    }

    /// Appends the spans of another trace with the same epoch (a client
    /// thread's), keeping its parent links valid.
    pub fn absorb(&mut self, other: Trace) {
        assert_eq!(self.epoch, other.epoch, "merged traces share one epoch");
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + shift),
            ..s
        }));
        for (name, (count, total_ns)) in other.reported {
            let entry = self.reported.entry(name).or_default();
            entry.0 += count;
            entry.1 += total_ns;
        }
    }

    /// Each span's self time: its duration minus the part of that interval
    /// its child spans cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reached = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reached);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reached = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: how many spans and their summed self time.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += self_ns;
        }
        by_name
    }

    /// How many spans are named `name`, and their summed full durations in
    /// nanoseconds.
    pub fn span_totals(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + (s.end_ns - s.start_ns)))
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(file, "[")?;
        for (i, span) in self.spans.iter().enumerate() {
            let row = Value::obj([
                ("id", Value::Num(i as f64)),
                ("name", Value::Str(span.name.to_owned())),
                ("start_ns", Value::Num(span.start_ns as f64)),
                ("end_ns", Value::Num(span.end_ns as f64)),
                (
                    "parent",
                    span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("query", Value::Num(span.query as f64)),
            ]);
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(file, "{}{comma}", row.render())?;
        }
        writeln!(file, "]")?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            query: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let of = |spans| Trace {
            spans,
            ..Trace::new(Instant::now())
        };
        let trace = of(vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10: together they cover [10, 60).
            span("b", 30, 60, Some(0)),
            // Sticks out past the parent: only [90, 100) counts.
            span("c", 90, 130, Some(0)),
            span("a.inner", 10, 15, Some(1)),
        ]);
        assert_eq!(trace.self_times_ns(), vec![40, 25, 30, 40, 5]);
        let by_name = trace.self_time_by_name();
        assert_eq!(by_name["root"], (1, 40));
        assert_eq!(by_name["a.inner"], (1, 5));
        // The self times of a tree whose children stay inside their parents
        // add up to the root's duration.
        let inside = of(vec![
            span("root", 0, 100, None),
            span("a", 0, 40, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.inner", 5, 25, Some(1)),
        ]);
        assert_eq!(inside.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn reported_children_are_laid_end_to_end_and_timed_spans_nest() {
        let mut trace = Trace::new(Instant::now());
        trace.time("outer", None, 7, |trace, outer| {
            trace.time("inner", Some(outer), 7, |_, _| {
                std::thread::sleep(Duration::from_millis(2))
            });
            trace.reported_children(
                outer,
                &[
                    ("x", Duration::from_micros(300)),
                    ("y", Duration::from_micros(200)),
                ],
            );
        });
        let spans = trace.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].end_ns - spans[1].start_ns >= 2_000_000);
        assert_eq!(spans[2].start_ns, spans[0].start_ns);
        assert_eq!(spans[3].start_ns, spans[2].end_ns);
        assert_eq!(spans[3].end_ns - spans[3].start_ns, 200_000);
        assert!(spans.iter().all(|s| s.query == 7));
        assert_eq!(trace.reported_totals("x"), (1, 300_000));
        assert_eq!(trace.reported_totals("absent"), (0, 0));
        assert_eq!(trace.span_totals("y"), (1, 200_000));
    }
}
