//! In-memory spans for the traced run: one per call the harness makes
//! into a layer, kept until the run ends, then summarised as self time
//! per layer and written as a Chrome trace.
//!
//! The spans are recorded from outside the program, around public calls;
//! what happens inside a call is a child only where the program already
//! reports it (a session's traced wall time, its per-class op time).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.step` or `serve.worker.run_batch`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start: u64,
    /// End, nanoseconds since the recorder was created.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Step, batch or request number shared by the spans of one operation.
    pub op: u64,
    /// Free-form qualifier (the model name).
    pub tag: &'static str,
}

/// A list of spans under construction. The harness owns one through its
/// [`Recorder`]; a wrapper that runs inside a borrowed call (a serving
/// replica) fills its own and hands it over afterwards
/// ([`Recorder::adopt`]). A disabled buffer (the untraced run) keeps
/// nothing and costs a branch.
#[derive(Debug, Default)]
pub struct SpanBuf {
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// An empty buffer.
    pub fn new(enabled: bool) -> Self {
        SpanBuf {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished interval and returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        tag: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: u64,
        end: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            op,
            tag,
        });
        self.spans.len() - 1
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The run's span buffer and the clock its spans are read from.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// The spans recorded so far.
    pub buf: SpanBuf,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            buf: SpanBuf::new(enabled),
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished interval (see [`SpanBuf::record`]).
    pub fn record(
        &mut self,
        name: &'static str,
        tag: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: u64,
        end: u64,
    ) -> SpanId {
        self.buf.record(name, tag, op, parent, start, end)
    }

    /// Opens a span whose end is not known yet; close it with
    /// [`Recorder::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        tag: &'static str,
        op: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        let now = self.now();
        self.record(name, tag, op, parent, now, now)
    }

    /// Sets the end of an open span to now.
    pub fn close(&mut self, id: SpanId) {
        if self.buf.enabled {
            let now = self.now();
            let span = &mut self.buf.spans[id];
            span.end = now.max(span.start);
        }
    }

    /// Moves the spans of `other` (timed on this recorder's clock) in:
    /// its parentless spans become children of `parent`.
    pub fn adopt(&mut self, parent: SpanId, other: SpanBuf) {
        if !self.buf.enabled {
            return;
        }
        let offset = self.buf.spans.len();
        self.buf.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + offset));
            s
        }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        self.buf.spans()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are counted once, and a
/// child is clipped to its parent, so self times of a well-nested tree
/// sum to the duration of its roots.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Self time summed by span name, nanoseconds, with the span count.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut by_name: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = by_name.entry(s.name).or_insert((0, 0));
        e.0 += own;
        e.1 += 1;
    }
    by_name
}

/// Renders the spans in Chrome's trace-event format (`chrome://tracing`,
/// Perfetto): one complete event per span, microsecond timestamps.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 32);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{},\"tag\":{}}}}}",
            json::quote(s.name),
            json::quote(s.name.split('.').next().unwrap_or(s.name)),
            json::number(s.start as f64 / 1e3),
            json::number((s.end - s.start) as f64 / 1e3),
            s.op,
            json::quote(s.tag),
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Writes the Chrome trace to `path`, creating its directory.
pub fn write_chrome_trace(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(chrome_trace(spans).as_bytes())?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
            tag: "",
        }
    }

    #[test]
    fn nested_children_leave_the_gaps_as_self_time() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        // A well-nested tree: self times sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("root", 100, 200, None),
            span("x", 110, 150, Some(0)),
            span("y", 140, 180, Some(0)),    // overlaps x by 10
            span("z", 120, 130, Some(0)),    // inside x
            span("late", 190, 260, Some(0)), // runs past the parent
            span("before", 0, 50, Some(0)),  // entirely outside
        ];
        // Covered: [110,180) and [190,200) = 80 of 100.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn by_name_sums_self_time_and_counts() {
        let spans = vec![
            span("root", 0, 10, None),
            span("step", 0, 4, Some(0)),
            span("step", 5, 9, Some(0)),
        ];
        let by = self_time_by_name(&spans);
        assert_eq!(by["root"], (2, 1));
        assert_eq!(by["step"], (8, 2));
    }

    #[test]
    fn adopted_spans_hang_under_the_given_parent() {
        let mut r = Recorder::new(true);
        let root = r.record("root", "", 0, None, 0, 100);
        let cluster = r.record("serve.cluster", "", 0, Some(root), 10, 90);
        let mut worker = SpanBuf::new(true);
        let batch = worker.record("serve.worker.run_batch", "alexnet", 1, None, 20, 60);
        worker.record("dataflow.session.run", "alexnet", 1, Some(batch), 25, 55);
        r.adopt(cluster, worker);
        assert_eq!(r.spans()[2].parent, Some(cluster));
        assert_eq!(r.spans()[3].parent, Some(2));
        assert_eq!(self_times(r.spans()), vec![20, 40, 10, 30]);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let id = r.open("x", "", 0, None);
        r.close(id);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut r = Recorder::new(true);
        let root = r.open("bench.workload", "train_conv", 0, None);
        r.record("core.step", "vgg", 7, Some(root), 5, 1_500);
        r.close(root);
        let doc = json::parse(&chrome_trace(r.spans())).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("core.step"));
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("core"));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(1.495));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
