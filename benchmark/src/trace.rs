//! The outside-in trace: one span per call the benchmark makes into a
//! layer, kept in memory and written as Chrome-trace JSON at exit.
//!
//! A span has a name, the layer (crate) it entered, start and end, the
//! span that caused it, the lane (thread) it ran on, and the id of the
//! solve or request it belongs to. Nesting on one thread is tracked with
//! thread-locals; a span started on another thread (a simulated rank, a
//! client) is linked with an explicit [`Context`].
//!
//! A span's *self time* is its duration minus the part its children
//! cover. Summed per layer along the blocking path — for children that
//! ran in parallel lanes, the busiest lane, since the slowest part sets
//! the time of a result that waits for all of them — self times account
//! for the whole wall time of the root span.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use serde_json::{json, Value};

use crate::host;

/// One recorded span. Times are nanoseconds since the trace began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `backends.aprod1`.
    pub name: &'static str,
    /// The crate entered: `bench`, `sparse`, `backends`, `core`,
    /// `mpi-sim` or `serve`.
    pub layer: &'static str,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Thread lane: 0 is the benchmark's main thread.
    pub lane: u32,
    /// Solve or request id shared by all spans of one solve; 0 outside.
    pub solve: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a span started on another thread hangs in the tree.
#[derive(Debug, Clone, Copy)]
pub struct Context {
    parent: Option<usize>,
    solve: u64,
}

thread_local! {
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
    static LANE: Cell<u32> = const { Cell::new(0) };
    static SOLVE: Cell<u64> = const { Cell::new(0) };
}

/// In-memory span store shared by every wrapper of one run.
#[derive(Debug)]
pub struct Trace {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Closes its span when dropped, on the thread that opened it.
#[derive(Debug)]
pub struct SpanGuard {
    trace: Arc<Trace>,
    index: usize,
    outer: Option<usize>,
    outer_solve: u64,
}

impl Trace {
    /// An empty trace whose time zero is now.
    pub fn new() -> Arc<Trace> {
        Arc::new(Trace {
            t0: host::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn ns(&self) -> u64 {
        host::now().duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span under the innermost open span of this thread.
    pub fn span(self: &Arc<Self>, name: &'static str, layer: &'static str) -> SpanGuard {
        self.open(name, layer, SOLVE.get())
    }

    /// Open the root span of one solve or request; every span nested in
    /// it, on this thread or through a [`Context`], carries `solve`.
    pub fn solve_span(
        self: &Arc<Self>,
        name: &'static str,
        layer: &'static str,
        solve: u64,
    ) -> SpanGuard {
        self.open(name, layer, solve)
    }

    fn open(self: &Arc<Self>, name: &'static str, layer: &'static str, solve: u64) -> SpanGuard {
        let outer = CURRENT.get();
        let outer_solve = SOLVE.replace(solve);
        let start_ns = self.ns();
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let index = spans.len();
        spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: outer,
            lane: LANE.get(),
            solve,
        });
        drop(spans);
        CURRENT.set(Some(index));
        SpanGuard {
            trace: Arc::clone(self),
            index,
            outer,
            outer_solve,
        }
    }

    /// Add a span that already ended, under the innermost open span of
    /// this thread: for time a layer reports but no wrapper can bracket.
    pub fn record(&self, name: &'static str, layer: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let span = Span {
            name,
            layer,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: CURRENT.get(),
            lane: LANE.get(),
            solve: SOLVE.get(),
        };
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// The innermost open span of this thread, to hand to another thread.
    pub fn context() -> Context {
        Context {
            parent: CURRENT.get(),
            solve: SOLVE.get(),
        }
    }

    /// Make this thread lane `lane` and hang its next spans under `ctx`.
    pub fn adopt(lane: u32, ctx: Context) {
        LANE.set(lane);
        CURRENT.set(ctx.parent);
        SOLVE.set(ctx.solve);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl SpanGuard {
    /// Index of this span in [`Trace::spans`].
    pub fn index(&self) -> usize {
        self.index
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_ns = self.trace.ns();
        let mut spans = self
            .trace
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        spans[self.index].end_ns = end_ns;
        drop(spans);
        CURRENT.set(self.outer);
        SOLVE.set(self.outer_solve);
    }
}

/// Length of the union of `[start, end)` intervals, clipped to `within`.
fn cover_ns(mut intervals: Vec<(u64, u64)>, within: (u64, u64)) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, within.0);
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(within.1));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

fn children_of(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut children = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    children
}

fn self_ns(spans: &[Span], span: usize, children: &[usize]) -> u64 {
    let s = &spans[span];
    let intervals = children
        .iter()
        .map(|&c| (spans[c].start_ns, spans[c].end_ns))
        .collect();
    s.dur_ns() - cover_ns(intervals, (s.start_ns, s.end_ns))
}

/// The children of `span` on the blocking path: those on its own lane,
/// plus, of the children on other lanes, the lane that was busy longest.
fn blocking_children(spans: &[Span], span: usize, children: &[usize]) -> Vec<usize> {
    let lane = spans[span].lane;
    let mut busy: BTreeMap<u32, u64> = BTreeMap::new();
    for &c in children {
        if spans[c].lane != lane {
            *busy.entry(spans[c].lane).or_default() += spans[c].dur_ns();
        }
    }
    let slowest = busy.iter().max_by_key(|(_, &ns)| ns).map(|(&l, _)| l);
    children
        .iter()
        .copied()
        .filter(|&c| spans[c].lane == lane || Some(spans[c].lane) == slowest)
        .collect()
}

/// Self time per layer, in seconds, along the blocking path below `root`.
/// The values sum to the duration of `root` when spans nest properly.
pub fn layer_self_seconds(spans: &[Span], root: usize) -> BTreeMap<&'static str, f64> {
    let children = children_of(spans);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        let chosen = blocking_children(spans, i, &children[i]);
        *out.entry(spans[i].layer).or_default() += self_ns(spans, i, &chosen) as f64 * 1e-9;
        stack.extend(chosen);
    }
    out
}

/// Total seconds of the spans called `name` below `root` (any lane).
pub fn total_seconds(spans: &[Span], root: usize, name: &str) -> f64 {
    seconds_by_lane(spans, root, name).values().sum()
}

/// Seconds of the spans called `name` below `root`, per lane.
pub fn seconds_by_lane(spans: &[Span], root: usize, name: &str) -> BTreeMap<u32, f64> {
    let children = children_of(spans);
    let mut out = BTreeMap::new();
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        if spans[i].name == name {
            *out.entry(spans[i].lane).or_default() += spans[i].dur_ns() as f64 * 1e-9;
        }
        stack.extend(&children[i]);
    }
    out
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete event
/// per span, `cat` the layer, `tid` the lane, and in `args` the span's
/// index, parent, solve id and self time.
pub fn chrome_trace(spans: &[Span], workload: &str, layer_self_s: &Value) -> Value {
    let children = children_of(spans);
    let events: Vec<Value> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            json!({
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": s.start_ns as f64 / 1e3,
                "dur": s.dur_ns() as f64 / 1e3,
                "pid": 1,
                "tid": s.lane,
                "args": json!({
                    "span": i,
                    "parent": s.parent.map_or(Value::Null, |p| json!(p)),
                    "solve": s.solve,
                    "self_us": self_ns(spans, i, &children[i]) as f64 / 1e3,
                }),
            })
        })
        .collect();
    json!({
        "displayTimeUnit": "ms",
        "otherData": json!({"workload": workload, "layer_self_s": layer_self_s}),
        "traceEvents": events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: &'static str,
        t: (u64, u64),
        parent: Option<usize>,
        lane: u32,
    ) -> Span {
        Span {
            name,
            layer,
            start_ns: t.0,
            end_ns: t.1,
            parent,
            lane,
            solve: 1,
        }
    }

    #[test]
    fn self_times_of_nested_spans_sum_to_the_root() {
        let spans = vec![
            span("run", "bench", (0, 1000), None, 0),
            span("solve", "core", (100, 900), Some(0), 0),
            span("aprod1", "backends", (200, 400), Some(1), 0),
            span("aprod2", "backends", (500, 800), Some(1), 0),
        ];
        let ns = |secs: f64| (secs * 1e9).round() as u64;
        let layers = layer_self_seconds(&spans, 0);
        assert_eq!(ns(layers["bench"]), 200);
        assert_eq!(ns(layers["core"]), 300);
        assert_eq!(ns(layers["backends"]), 500);
        assert_eq!(ns(layers.values().sum()), 1000);
        assert_eq!(ns(total_seconds(&spans, 0, "aprod2")), 300);
    }

    #[test]
    fn parallel_lanes_count_the_busiest_lane_only() {
        let spans = vec![
            span("solve", "core", (0, 1000), None, 0),
            span("rank", "mpi-sim", (10, 990), Some(0), 1),
            span("rank", "mpi-sim", (10, 700), Some(0), 2),
            span("aprod1", "backends", (100, 600), Some(1), 1),
            span("aprod1", "backends", (100, 300), Some(2), 2),
        ];
        let ns = |secs: f64| (secs * 1e9).round() as u64;
        let layers = layer_self_seconds(&spans, 0);
        assert_eq!(ns(layers["core"]), 20);
        assert_eq!(ns(layers["mpi-sim"]), 480);
        assert_eq!(ns(layers["backends"]), 500);
        let by_lane = seconds_by_lane(&spans, 0, "aprod1");
        assert_eq!(ns(by_lane[&1]), 500);
        assert_eq!(ns(by_lane[&2]), 200);
    }

    #[test]
    fn guards_nest_restore_and_cross_threads() {
        let trace = Trace::new();
        {
            let _solve = trace.solve_span("solve", "core", 7);
            let ctx = Trace::context();
            {
                let _inner = trace.span("aprod1", "backends");
            }
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    Trace::adopt(3, ctx);
                    let _remote = trace.span("rank", "mpi-sim");
                });
            });
        }
        let _after = trace.span("idle", "bench");
        drop(_after);
        let spans = trace.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            (spans[1].parent, spans[1].solve, spans[1].lane),
            (Some(0), 7, 0)
        );
        assert_eq!(
            (spans[2].parent, spans[2].solve, spans[2].lane),
            (Some(0), 7, 3)
        );
        assert_eq!((spans[3].parent, spans[3].solve), (None, 0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = vec![
            span("run", "bench", (0, 2000), None, 0),
            span("solve", "core", (500, 1500), Some(0), 0),
        ];
        let doc = chrome_trace(&spans, "w", &json!({"bench": 1e-6}));
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back, doc);
        let events = back["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1]["ph"].as_str(), Some("X"));
        assert_eq!(events[1]["args"]["parent"].as_u64(), Some(0));
        assert_eq!(events[0]["args"]["self_us"].as_f64(), Some(1.0));
    }
}
