//! Lock-free histograms and the reactor's counters.
//!
//! [`Histogram`] is the workspace's one atomic fixed-bucket histogram:
//! the reactor records read/write stalls in it, and `traj-serve` its
//! request latency, batch sizes, queue wait, fsyncs and the rest of its
//! `/metrics` distributions. Every histogram renders one JSON shape
//! ([`Histogram::render_json`]), so one parser reads them all. The
//! reactor only mutates [`NetStats`]; rendering lives here so serve and
//! the cluster router emit the same `"net"` section.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Microsecond bucket upper bounds (inclusive) shared by every latency
/// histogram: 50 µs to 1 s.
pub const LATENCY_BOUNDS_US: [u64; 14] = [
    50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
    1_000_000,
];

/// A fixed-bucket histogram with atomic counters. Values above the
/// last bound land in an overflow bucket.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    /// One counter per bound, then the overflow bucket.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

/// A latency histogram over [`LATENCY_BOUNDS_US`].
impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(&LATENCY_BOUNDS_US)
    }
}

impl Histogram {
    /// An empty histogram over ascending, inclusive, non-empty `bounds`.
    pub fn new(bounds: &'static [u64]) -> Histogram {
        assert!(!bounds.is_empty(), "a histogram needs at least one bound");
        Histogram {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Mean observation, or 0 with no data.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Quantile estimate: the upper bound of the bucket holding the
    /// q-th observation (`q` in `[0, 1]`). Returns 0 with no data;
    /// values past the last bound report the last bound.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (&bound, c) in self.bounds.iter().zip(&self.counts) {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return bound;
            }
        }
        self.bounds[self.bounds.len() - 1]
    }

    /// The histogram as `{"count", "mean", "p50", "p95", "p99",
    /// "buckets": [{"le": bound, "count": n}, …, {"le": "inf", "count":
    /// n}]}`, the mean to two decimals.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"count\": {}, \"mean\": {:.2}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
            self.count(),
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        );
        for (i, c) in self.counts.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            match self.bounds.get(i) {
                Some(bound) => out.push_str(&format!("{{\"le\": {bound}, \"count\": {n}}}, ")),
                None => out.push_str(&format!("{{\"le\": \"inf\", \"count\": {n}}}]}}")),
            }
        }
        out
    }
}

/// Everything the reactor counts. One instance per reactor; shared as
/// `Arc<NetStats>` with whoever renders `/metrics`.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Connections accepted.
    pub accepts: AtomicU64,
    /// Accepts refused because the connection cap was reached.
    pub accept_rejected: AtomicU64,
    /// accept(2) errors other than WouldBlock (EMFILE, ECONNABORTED…).
    pub accept_errors: AtomicU64,
    /// Currently open connections (gauge).
    pub open_connections: AtomicU64,
    /// Complete requests handed to the service.
    pub requests: AtomicU64,
    /// Requests that arrived on a reused (keep-alive) connection.
    pub keepalive_requests: AtomicU64,
    /// Responses fully written back.
    pub responses: AtomicU64,
    /// Connections reaped mid-request by the idle deadline (408 sent).
    pub idle_reaps_408: AtomicU64,
    /// Idle keep-alive connections closed silently by the deadline.
    pub idle_closes: AtomicU64,
    /// Peer disconnected before its request completed.
    pub client_aborts: AtomicU64,
    /// Malformed requests rejected with 400.
    pub rejects_400: AtomicU64,
    /// Bodies over the cap rejected with 413.
    pub rejects_413: AtomicU64,
    /// Header blocks over the cap rejected with 431.
    pub rejects_431: AtomicU64,
    /// Connections closed because a response write stalled past the
    /// slow-client deadline.
    pub write_stall_closes: AtomicU64,
    /// Responses dropped because the connection was gone when the
    /// service finished.
    pub dropped_responses: AtomicU64,
    /// Wall time from first request byte to complete head+body.
    pub request_read_us: Histogram,
    /// Wall time from response queued to fully flushed.
    pub response_write_us: Histogram,
    /// Reactor start, for accepts/s.
    started: std::sync::OnceLock<Instant>,
}

impl NetStats {
    /// Creates a zeroed stats block stamped with the current instant.
    pub fn new() -> NetStats {
        let s = NetStats::default();
        let _ = s.started.set(Instant::now());
        s
    }

    fn uptime_s(&self) -> f64 {
        self.started
            .get()
            .map(|t| t.elapsed().as_secs_f64())
            .unwrap_or(0.0)
            .max(1e-9)
    }

    /// Accepted connections per second since the reactor started.
    pub fn accepts_per_s(&self) -> f64 {
        self.accepts.load(Ordering::Relaxed) as f64 / self.uptime_s()
    }

    /// Fraction of requests that rode a reused connection.
    pub fn keepalive_reuse_ratio(&self) -> f64 {
        let total = self.requests.load(Ordering::Relaxed);
        if total == 0 {
            return 0.0;
        }
        self.keepalive_requests.load(Ordering::Relaxed) as f64 / total as f64
    }

    /// Renders the `"net"` section body (a JSON object) for `/metrics`.
    pub fn render_json(&self) -> String {
        let l = |a: &AtomicU64| a.load(Ordering::Relaxed);
        format!(
            concat!(
                "{{\"open_connections\": {}, \"accepts\": {}, \"accepts_per_s\": {:.3}, ",
                "\"accept_rejected\": {}, \"accept_errors\": {}, ",
                "\"requests\": {}, \"keepalive_requests\": {}, \"keepalive_reuse_ratio\": {:.4}, ",
                "\"responses\": {}, \"idle_reaps_408\": {}, \"idle_closes\": {}, ",
                "\"client_aborts\": {}, \"rejects_400\": {}, \"rejects_413\": {}, \"rejects_431\": {}, ",
                "\"write_stall_closes\": {}, \"dropped_responses\": {}, ",
                "\"request_read_us\": {}, \"response_write_us\": {}}}"
            ),
            l(&self.open_connections),
            l(&self.accepts),
            self.accepts_per_s(),
            l(&self.accept_rejected),
            l(&self.accept_errors),
            l(&self.requests),
            l(&self.keepalive_requests),
            self.keepalive_reuse_ratio(),
            l(&self.responses),
            l(&self.idle_reaps_408),
            l(&self.idle_closes),
            l(&self.client_aborts),
            l(&self.rejects_400),
            l(&self.rejects_413),
            l(&self.rejects_431),
            l(&self.write_stall_closes),
            l(&self.dropped_responses),
            self.request_read_us.render_json(),
            self.response_write_us.render_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_land_in_buckets() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.50), 0);
        for _ in 0..90 {
            h.record(80); // ≤ 100 bucket
        }
        for _ in 0..10 {
            h.record(400_000); // ≤ 500_000 bucket
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.50), 100);
        assert_eq!(h.quantile(0.99), 500_000);
        assert!(h.mean() > 80.0);
    }

    #[test]
    fn histogram_overflow_reports_last_bound_and_renders_inf() {
        let h = Histogram::new(&[1, 2, 4]);
        h.record(2);
        h.record(5_000_000);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.99), 4);
        assert_eq!(
            h.render_json(),
            "{\"count\": 2, \"mean\": 2500001.00, \"p50\": 2, \"p95\": 4, \"p99\": 4, \"buckets\": \
             [{\"le\": 1, \"count\": 0}, {\"le\": 2, \"count\": 1}, {\"le\": 4, \"count\": 0}, \
             {\"le\": \"inf\", \"count\": 1}]}"
        );
    }

    #[test]
    fn stats_render_is_json_shaped() {
        let s = NetStats::new();
        s.accepts.fetch_add(3, Ordering::Relaxed);
        s.requests.fetch_add(4, Ordering::Relaxed);
        s.keepalive_requests.fetch_add(2, Ordering::Relaxed);
        let doc = s.render_json();
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"accepts\": 3"));
        assert!(doc.contains("\"keepalive_reuse_ratio\": 0.5000"));
        assert!(doc.contains("\"request_read_us\": {\"count\": 0"));
    }
}
