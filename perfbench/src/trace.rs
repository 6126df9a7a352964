//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, start, end, the span that caused it, and the id of
//! the request (or job) it belongs to. Each thread records into its own
//! [`SpanLog`]; nothing is written until the run ends, when the logs are
//! merged and rendered in the chrome-trace `traceEvents` shape that
//! `traj_sim::report::SimReport::trace_json` emits, plus a self-time
//! table per layer. The layer of a span is its name up to the first `.`
//! (`net.parse` → `net`).

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are ns since the run's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same merged list.
    pub parent: Option<usize>,
    /// Request or job id shared by all spans of one request.
    pub req: u64,
    /// Recording thread, for the trace viewer's rows.
    pub tid: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. `enter`/`exit` nest; the innermost open
/// span becomes the parent of the next one entered.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    tid: u32,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl SpanLog {
    /// A recorder timing from `origin`; a disabled one records nothing
    /// and costs one branch per call.
    pub fn new(origin: Instant, tid: u32, enabled: bool) -> SpanLog {
        SpanLog {
            origin,
            tid,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.iter().rev().nth(1).copied(),
            req,
            tid: self.tid,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let idx = self.stack.pop().expect("exit matches an enter");
        self.spans[idx].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    /// Recorded spans, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Concatenates per-thread logs into one list, rebasing parent indices.
pub fn merge(logs: Vec<SpanLog>) -> Vec<Span> {
    let mut out = Vec::new();
    for log in logs {
        let base = out.len();
        out.extend(log.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer, ns: each span's duration minus the part of its
/// interval covered by its children (children clipped to the parent).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for (s, c) in spans.iter().zip(&covered) {
        *out.entry(layer_of(s.name).to_owned()).or_default() += s.dur_ns().saturating_sub(*c);
    }
    out
}

/// The self-time table: one row per layer with its share of the total.
pub fn self_time_table(spans: &[Span]) -> String {
    let by_layer = self_time_by_layer(spans);
    let total: u64 = by_layer.values().sum::<u64>().max(1);
    let mut out = String::from("layer            self_ms     share\n");
    for (layer, ns) in &by_layer {
        out.push_str(&format!(
            "{layer:<14} {:>10.3} {:>8.2}%\n",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total as f64
        ));
    }
    out
}

/// The spans in chrome-trace form: the event keys of
/// `SimReport::trace_json` (`name`, `cat`, `ph`, `ts`, `dur`, `pid`,
/// `tid`, times in µs) with the layer as `cat` and the parent and
/// request id under `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            concat!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", ",
                "\"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, ",
                "\"args\": {{\"id\": {}, \"parent\": {}, \"req\": {}}}}}{}\n"
            ),
            s.name,
            layer_of(s.name),
            s.start_ns as f64 / 1e3,
            (s.dur_ns() as f64 / 1e3).max(0.001),
            s.tid,
            i,
            parent,
            s.req,
            comma
        ));
    }
    out.push_str("]}\n");
    out
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
            req: 7,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_clipped_to_the_parent() {
        let spans = vec![
            span("client.request", 0, 100, None),
            span("net.parse", 10, 30, Some(0)),
            span("serve.decode", 30, 60, Some(0)),
            span("features.segment", 40, 50, Some(2)),
            // Overhangs its parent's end: only 90..100 counts as covered.
            span("ml.predict", 90, 120, Some(0)),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["client"], 100 - 20 - 30 - 10);
        assert_eq!(by_layer["net"], 20);
        assert_eq!(by_layer["serve"], 30 - 10);
        assert_eq!(by_layer["features"], 10);
        assert_eq!(by_layer["ml"], 30);
        assert!(self_time_table(&spans).contains("features"));
    }

    #[test]
    fn logs_nest_and_merge_with_rebased_parents() {
        let origin = Instant::now();
        let mut a = SpanLog::new(origin, 1, true);
        a.enter("job.run", 1);
        a.time("ml.cv", 1, || ());
        a.exit();
        let mut b = SpanLog::new(origin, 2, true);
        b.enter("client.request", 2);
        b.time("net.client_send", 2, || ());
        b.exit();
        assert_eq!(a.spans()[1].parent, Some(0));
        let merged = merge(vec![a, b]);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[3].parent, Some(2));
        assert!(merged.iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = SpanLog::new(origin, 3, false);
        off.enter("x.y", 0);
        off.exit();
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_has_the_simulator_event_keys() {
        use traj_sim::report::{ClassStats, SimReport, TraceEvent};
        let sim = SimReport::build(
            "fixed",
            1,
            1.0,
            [
                ClassStats::default(),
                ClassStats::default(),
                ClassStats::default(),
            ],
            vec![TraceEvent {
                name: "request",
                class: traj_sim::Class::Interactive,
                start_us: 1,
                dur_us: 2,
            }],
        )
        .trace_json();
        let keys = |json: &str| -> Vec<String> {
            let serde::Value::Map(doc) = serde_json::parse_value(json).expect("valid JSON") else {
                panic!("not an object");
            };
            let Some(serde::Value::Seq(events)) = serde::map_get(&doc, "traceEvents") else {
                panic!("no traceEvents");
            };
            let serde::Value::Map(first) = &events[0] else {
                panic!("event is not an object");
            };
            first.iter().map(|(k, _)| k.clone()).collect()
        };
        let ours = keys(&chrome_trace_json(&[span("net.parse", 1000, 3000, None)]));
        for key in keys(&sim) {
            assert!(ours.contains(&key), "missing {key}");
        }
    }
}
