//! In-memory span recorder for the benchmark's traced runs.
//!
//! The benchmark wraps every call it makes into a layer's public API in
//! a span named `<layer>.<what>` (`svm.train`, `store.eval`, ...). Spans
//! are kept in memory and written as JSONL when the run ends; the
//! per-layer breakdown is each span's *self time*: its duration minus
//! the part of its interval covered by its children. Children may
//! overlap (two serve clients running under one parent), so the covered
//! part is the union of the child intervals, never their sum.
//!
//! A disabled recorder costs one branch per span: untraced runs read no
//! clock and take no lock.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` while the span is still open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 for run-level spans).
    pub request: u64,
    /// Small per-process thread number.
    pub thread: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Recorder {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A context with no parent span, tagged with `request`.
    pub fn root(&self, request: u64) -> Ctx<'_> {
        Ctx {
            recorder: self.enabled.then_some(self),
            parent: None,
            request,
        }
    }

    /// A snapshot of every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span recorder lock poisoned")
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        let thread = THREAD.with(|t| *t);
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            thread,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.thread
            )?;
        }
        out.flush()
    }
}

/// Where a new span attaches: the recorder, the enclosing span and the
/// request id. Cheap to copy into closures and across threads.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'r> {
    recorder: Option<&'r Recorder>,
    parent: Option<usize>,
    request: u64,
}

impl<'r> Ctx<'r> {
    /// A context that records nothing.
    pub fn disabled() -> Ctx<'static> {
        Ctx {
            recorder: None,
            parent: None,
            request: 0,
        }
    }

    /// The same parent, tagged with another request id.
    pub fn with_request(self, request: u64) -> Self {
        Ctx { request, ..self }
    }

    /// Runs `f` inside a span called `name`; spans `f` opens through the
    /// context it receives become children of this one.
    pub fn span<T>(self, name: &'static str, f: impl FnOnce(Ctx<'r>) -> T) -> T {
        let Some(recorder) = self.recorder else {
            return f(self);
        };
        let id = recorder.open(name, self.parent, self.request);
        let out = f(Ctx {
            parent: Some(id),
            ..self
        });
        recorder.close(id);
        out
    }
}

/// Self time of every span, in nanoseconds, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Total self time per layer, in seconds.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// Average cost of recording one span on this machine, in seconds:
/// opens and closes `n` spans on a scratch recorder.
pub fn span_cost_seconds(n: usize) -> f64 {
    let scratch = Recorder::new(true);
    let root = scratch.root(0);
    let t = Instant::now();
    for _ in 0..n {
        root.span("trace.calibrate", |_| ());
    }
    t.elapsed().as_secs_f64() / n.max(1) as f64
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
            request: 0,
            thread: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        // run [0,100] > request [10,90] > svm [20,50] and store [60,70]
        let spans = [
            span("bench.run", 0, 100, None),
            span("core.request", 10, 90, Some(0)),
            span("svm.train", 20, 50, Some(1)),
            span("store.get", 60, 70, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 30, 10]);
        let layers = layer_self_seconds(&spans);
        let total: f64 = layers.values().sum();
        assert!(
            (total - 100e-9).abs() < 1e-15,
            "self times partition the root"
        );
        assert!((layers["core"] - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two client threads under one parent: [10,60] and [40,80].
        let spans = [
            span("bench.measure", 0, 100, None),
            span("serve.job", 10, 60, Some(0)),
            span("serve.job", 40, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 50, 40]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span("a.x", 10, 20, None),
            span("b.y", 5, 15, Some(0)),
            span("b.z", 18, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn recorder_links_parents_and_requests() {
        let rec = Recorder::new(true);
        let value = rec.root(7).span("core.request", |ctx| {
            ctx.span("svm.train", |_| 1) + ctx.with_request(8).span("store.get", |_| 2)
        });
        assert_eq!(value, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[1].request), (Some(0), 7));
        assert_eq!((spans[2].parent, spans[2].request), (Some(0), 8));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let mut jsonl = Vec::new();
        rec.write_jsonl(&mut jsonl).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.root(1).span("svm.train", |c| c.span("x.y", |_| 5)), 5);
        assert!(rec.spans().is_empty());
    }
}
