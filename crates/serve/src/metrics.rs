//! Lock-free serving metrics: request/error counters, latency and
//! batch-size histograms, and per-model prediction counters.
//!
//! Everything is atomics over fixed bucket layouts
//! ([`traj_net::stats::Histogram`]), so the hot path never takes a lock;
//! `/metrics` renders a JSON snapshot with percentiles estimated from
//! the histogram buckets (upper-bound interpolation).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use traj_net::stats::{Histogram, LATENCY_BOUNDS_US};
use traj_sim::Class;

/// Upper bounds (inclusive) of the batch-size buckets.
const BATCH_BOUNDS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Upper bounds (inclusive) of the sketch-drift buckets, in parts per
/// million of the series value range (the documented contract caps
/// realized drift at 250 000 ppm = 0.25 × range).
const DRIFT_BOUNDS_PPM: [u64; 10] = [
    1, 10, 100, 1_000, 5_000, 10_000, 50_000, 100_000, 150_000, 250_000,
];

/// Streaming-ingestion metrics (`POST /ingest` and the idle sweeper).
///
/// The monotonic counters mirror the engine's own counters —
/// [`IngestMetrics::sync_engine`] stores the authoritative engine
/// snapshot rather than double-counting — while the histograms are
/// recorded at the serving layer, where close-to-prediction latency and
/// per-close sketch drift are observable.
#[derive(Debug)]
pub struct IngestMetrics {
    /// Points accepted into sessions (engine snapshot).
    pub points_total: AtomicU64,
    /// Points dropped by the timestamp policy (engine snapshot).
    pub points_dropped: AtomicU64,
    /// Admitted segment closes (engine snapshot).
    pub segments_closed: AtomicU64,
    /// Discarded short closes (engine snapshot).
    pub segments_discarded: AtomicU64,
    /// Sessions evicted by the session cap (engine snapshot).
    pub evictions: AtomicU64,
    /// Gauge: currently open sessions.
    pub open_sessions: AtomicU64,
    /// Gauge: bytes of per-user session state.
    pub state_bytes: AtomicU64,
    /// Closes whose features were bit-identical to the batch pipeline.
    pub exact_closes: AtomicU64,
    /// Closes answered from degraded (sketch-phase) summaries.
    pub sketch_closes: AtomicU64,
    /// Segment-close-to-prediction latency, microseconds (request-path
    /// closes only; idle/eviction closes have no requester to answer).
    pub close_latency_us: Histogram,
    /// Realized sketch-vs-exact drift per close, ppm of the value range.
    pub sketch_drift_ppm: Histogram,
    /// Process start, for the derived points/sec rate.
    started: std::time::Instant,
}

impl IngestMetrics {
    fn new() -> IngestMetrics {
        IngestMetrics {
            points_total: AtomicU64::new(0),
            points_dropped: AtomicU64::new(0),
            segments_closed: AtomicU64::new(0),
            segments_discarded: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            open_sessions: AtomicU64::new(0),
            state_bytes: AtomicU64::new(0),
            exact_closes: AtomicU64::new(0),
            sketch_closes: AtomicU64::new(0),
            close_latency_us: Histogram::new(&LATENCY_BOUNDS_US),
            sketch_drift_ppm: Histogram::new(&DRIFT_BOUNDS_PPM),
            started: std::time::Instant::now(),
        }
    }

    /// Stores an authoritative engine snapshot into the mirrored
    /// counters and gauges.
    pub fn sync_engine(
        &self,
        stats: &traj_stream::EngineStats,
        open_sessions: u64,
        state_bytes: u64,
    ) {
        self.points_total
            .store(stats.points_accepted, Ordering::Relaxed);
        self.points_dropped
            .store(stats.points_dropped, Ordering::Relaxed);
        self.segments_closed
            .store(stats.segments_closed, Ordering::Relaxed);
        self.segments_discarded
            .store(stats.segments_discarded, Ordering::Relaxed);
        self.evictions.store(stats.evictions, Ordering::Relaxed);
        self.open_sessions.store(open_sessions, Ordering::Relaxed);
        self.state_bytes.store(state_bytes, Ordering::Relaxed);
    }

    /// Records one closed segment: `latency_us` when a request was
    /// waiting on the prediction, `drift` when the close was still exact.
    pub fn record_close(&self, latency_us: Option<u64>, exact: bool, drift: Option<f64>) {
        if exact {
            self.exact_closes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.sketch_closes.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(us) = latency_us {
            self.close_latency_us.record(us);
        }
        if let Some(d) = drift {
            self.sketch_drift_ppm.record((d * 1e6).round() as u64);
        }
    }

    fn render_json(&self) -> String {
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let points = self.points_total.load(Ordering::Relaxed);
        format!(
            "{{\"points_total\": {}, \"points_dropped\": {}, \"points_per_sec\": {:.1}, \
             \"open_sessions\": {}, \"state_bytes\": {}, \"segments_closed\": {}, \
             \"segments_discarded\": {}, \"evictions\": {}, \"exact_closes\": {}, \
             \"sketch_closes\": {}, \"close_latency_us\": {}, \"sketch_drift_ppm\": {}}}",
            points,
            self.points_dropped.load(Ordering::Relaxed),
            points as f64 / elapsed,
            self.open_sessions.load(Ordering::Relaxed),
            self.state_bytes.load(Ordering::Relaxed),
            self.segments_closed.load(Ordering::Relaxed),
            self.segments_discarded.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
            self.exact_closes.load(Ordering::Relaxed),
            self.sketch_closes.load(Ordering::Relaxed),
            self.close_latency_us.render_json(),
            self.sketch_drift_ppm.render_json(),
        )
    }
}

/// Durability metrics: WAL volume, fsync latency, snapshot cadence and
/// the last recovery's outcome. Dormant (`"enabled": false`) unless the
/// server runs with a WAL attached.
///
/// The WAL counters mirror [`traj_wal::WalStats`] — synced from the
/// authoritative log on `/metrics` renders and maintenance ticks — while
/// the fsync histogram is fed push-style through the log's sync
/// observer, reusing the same lock-free [`Histogram`] as the latency
/// metrics.
#[derive(Debug)]
pub struct DurabilityMetrics {
    enabled: AtomicBool,
    /// Highest assigned LSN (WAL snapshot).
    pub wal_last_lsn: AtomicU64,
    /// Live segment files (WAL snapshot).
    pub wal_segments: AtomicU64,
    /// Bytes across live segments (WAL snapshot).
    pub wal_live_bytes: AtomicU64,
    /// Records appended since open (WAL snapshot).
    pub wal_appended_records: AtomicU64,
    /// Frame bytes appended since open (WAL snapshot).
    pub wal_appended_bytes: AtomicU64,
    /// Fsyncs performed since open (WAL snapshot).
    pub wal_syncs: AtomicU64,
    /// Failed append batches (engine snapshot): accepted state that is
    /// not durable.
    pub wal_append_errors: AtomicU64,
    /// Fsync duration, microseconds (fed by the WAL's sync observer).
    pub fsync_us: Histogram,
    /// Snapshots written since start.
    pub snapshots_written: AtomicU64,
    /// Snapshot writes that failed (the WAL keeps growing meanwhile).
    pub snapshot_errors: AtomicU64,
    /// LSN of the newest snapshot.
    pub snapshot_lsn: AtomicU64,
    /// Sessions captured in the newest snapshot.
    pub snapshot_sessions: AtomicU64,
    /// Snapshot encode+write+truncate duration, microseconds.
    pub snapshot_write_us: Histogram,
    /// Seconds since start at the last snapshot write (0 = never).
    last_snapshot_s: AtomicU64,
    /// Sessions restored by the boot-time recovery.
    pub recovered_sessions: AtomicU64,
    /// WAL records applied by the boot-time recovery.
    pub recovered_records: AtomicU64,
    /// Boot-time recovery duration, milliseconds.
    pub recovery_ms: AtomicU64,
    /// Repair/skip diagnostics the recovery logged.
    pub recovery_diagnostics: AtomicU64,
    started: std::time::Instant,
}

impl DurabilityMetrics {
    fn new() -> DurabilityMetrics {
        DurabilityMetrics {
            enabled: AtomicBool::new(false),
            wal_last_lsn: AtomicU64::new(0),
            wal_segments: AtomicU64::new(0),
            wal_live_bytes: AtomicU64::new(0),
            wal_appended_records: AtomicU64::new(0),
            wal_appended_bytes: AtomicU64::new(0),
            wal_syncs: AtomicU64::new(0),
            wal_append_errors: AtomicU64::new(0),
            fsync_us: Histogram::new(&LATENCY_BOUNDS_US),
            snapshots_written: AtomicU64::new(0),
            snapshot_errors: AtomicU64::new(0),
            snapshot_lsn: AtomicU64::new(0),
            snapshot_sessions: AtomicU64::new(0),
            snapshot_write_us: Histogram::new(&LATENCY_BOUNDS_US),
            last_snapshot_s: AtomicU64::new(0),
            recovered_sessions: AtomicU64::new(0),
            recovered_records: AtomicU64::new(0),
            recovery_ms: AtomicU64::new(0),
            recovery_diagnostics: AtomicU64::new(0),
            started: std::time::Instant::now(),
        }
    }

    /// Marks durability active (renders the full section).
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Whether a WAL is attached.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Stores an authoritative WAL snapshot into the mirrored counters.
    pub fn sync_wal(&self, stats: &traj_wal::WalStats, append_errors: u64) {
        self.wal_last_lsn.store(stats.last_lsn, Ordering::Relaxed);
        self.wal_segments
            .store(stats.segments as u64, Ordering::Relaxed);
        self.wal_live_bytes
            .store(stats.live_bytes, Ordering::Relaxed);
        self.wal_appended_records
            .store(stats.appended_records, Ordering::Relaxed);
        self.wal_appended_bytes
            .store(stats.appended_bytes, Ordering::Relaxed);
        self.wal_syncs.store(stats.syncs, Ordering::Relaxed);
        self.wal_append_errors
            .store(append_errors, Ordering::Relaxed);
    }

    /// Records one snapshot write (covering `lsn`, holding `sessions`).
    pub fn record_snapshot(&self, lsn: u64, sessions: u64, write_us: u64) {
        self.snapshots_written.fetch_add(1, Ordering::Relaxed);
        self.snapshot_lsn.store(lsn, Ordering::Relaxed);
        self.snapshot_sessions.store(sessions, Ordering::Relaxed);
        self.snapshot_write_us.record(write_us);
        self.last_snapshot_s
            .store(self.started.elapsed().as_secs().max(1), Ordering::Relaxed);
    }

    /// Stores the boot-time recovery outcome.
    pub fn record_recovery(&self, report: &traj_stream::RecoveryReport) {
        self.recovered_sessions
            .store(report.snapshot_sessions as u64, Ordering::Relaxed);
        self.recovered_records
            .store(report.applied_records, Ordering::Relaxed);
        self.recovery_ms.store(report.elapsed_ms, Ordering::Relaxed);
        self.recovery_diagnostics
            .store(report.diagnostics.len() as u64, Ordering::Relaxed);
    }

    /// Seconds since the last snapshot write, or `None` before the first.
    pub fn snapshot_age_s(&self) -> Option<u64> {
        let at = self.last_snapshot_s.load(Ordering::Relaxed);
        if at == 0 {
            return None;
        }
        Some(self.started.elapsed().as_secs().saturating_sub(at))
    }

    fn render_json(&self) -> String {
        if !self.is_enabled() {
            return "{\"enabled\": false}".to_owned();
        }
        let age = self
            .snapshot_age_s()
            .map_or("null".to_owned(), |s| s.to_string());
        format!(
            "{{\"enabled\": true, \"wal_last_lsn\": {}, \"wal_segments\": {}, \
             \"wal_live_bytes\": {}, \"wal_appended_records\": {}, \"wal_appended_bytes\": {}, \
             \"wal_syncs\": {}, \"wal_append_errors\": {}, \"fsync_us\": {}, \
             \"snapshots_written\": {}, \"snapshot_errors\": {}, \"snapshot_lsn\": {}, \
             \"snapshot_sessions\": {}, \"snapshot_age_s\": {}, \"snapshot_write_us\": {}, \
             \"recovery\": {{\"sessions\": {}, \"wal_records_applied\": {}, \"elapsed_ms\": {}, \"diagnostics\": {}}}}}",
            self.wal_last_lsn.load(Ordering::Relaxed),
            self.wal_segments.load(Ordering::Relaxed),
            self.wal_live_bytes.load(Ordering::Relaxed),
            self.wal_appended_records.load(Ordering::Relaxed),
            self.wal_appended_bytes.load(Ordering::Relaxed),
            self.wal_syncs.load(Ordering::Relaxed),
            self.wal_append_errors.load(Ordering::Relaxed),
            self.fsync_us.render_json(),
            self.snapshots_written.load(Ordering::Relaxed),
            self.snapshot_errors.load(Ordering::Relaxed),
            self.snapshot_lsn.load(Ordering::Relaxed),
            self.snapshot_sessions.load(Ordering::Relaxed),
            age,
            self.snapshot_write_us.render_json(),
            self.recovered_sessions.load(Ordering::Relaxed),
            self.recovered_records.load(Ordering::Relaxed),
            self.recovery_ms.load(Ordering::Relaxed),
            self.recovery_diagnostics.load(Ordering::Relaxed),
        )
    }
}

/// Scheduler metrics: batch-queue wait, deadline misses against the
/// configured SLO, and admission-control sheds per priority class.
#[derive(Debug, Default)]
pub struct SchedulerMetrics {
    /// Time jobs spent in the batch queue before being flushed, µs.
    pub queue_wait_us: Histogram,
    /// Jobs whose flush completed after their SLO deadline.
    pub deadline_misses: AtomicU64,
    /// Interactive (`/predict`) submissions rejected with 429.
    pub shed_interactive: AtomicU64,
    /// Close-time submissions rejected (always 0 by policy; kept so a
    /// policy regression is visible).
    pub shed_close: AtomicU64,
    /// Bulk (`/predict_batch`) submissions rejected with 429.
    pub shed_bulk: AtomicU64,
    /// Submissions answered with `ShuttingDown` during shutdown.
    pub shutdown_rejects: AtomicU64,
}

impl SchedulerMetrics {
    /// Counts one admission rejection for `class`.
    pub fn record_shed(&self, class: Class) {
        match class {
            Class::Interactive => &self.shed_interactive,
            Class::Close => &self.shed_close,
            Class::Bulk => &self.shed_bulk,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Total sheds across classes.
    pub fn shed_total(&self) -> u64 {
        self.shed_interactive.load(Ordering::Relaxed)
            + self.shed_close.load(Ordering::Relaxed)
            + self.shed_bulk.load(Ordering::Relaxed)
    }

    fn render_json(&self) -> String {
        format!(
            "{{\"queue_wait_us\": {}, \
             \"deadline_misses\": {}, \"shed_interactive\": {}, \"shed_close\": {}, \
             \"shed_bulk\": {}, \"shutdown_rejects\": {}}}",
            self.queue_wait_us.render_json(),
            self.deadline_misses.load(Ordering::Relaxed),
            self.shed_interactive.load(Ordering::Relaxed),
            self.shed_close.load(Ordering::Relaxed),
            self.shed_bulk.load(Ordering::Relaxed),
            self.shutdown_rejects.load(Ordering::Relaxed),
        )
    }
}

/// All serving metrics; shared across workers behind an `Arc`.
#[derive(Debug)]
pub struct ServeMetrics {
    /// Requests accepted (any route, any outcome).
    pub requests_total: AtomicU64,
    /// Responses with 2xx status.
    pub responses_2xx: AtomicU64,
    /// Responses with 4xx status.
    pub responses_4xx: AtomicU64,
    /// Responses with 5xx status.
    pub responses_5xx: AtomicU64,
    /// End-to-end request latency, microseconds.
    pub latency_us: Histogram,
    /// Sizes of flushed prediction micro-batches.
    pub batch_size: Histogram,
    /// Batch-queue scheduling metrics (wait, deadline misses, sheds).
    pub scheduler: SchedulerMetrics,
    /// Streaming-ingestion gauges and histograms.
    pub ingest: IngestMetrics,
    /// WAL / snapshot / recovery metrics (dormant without a WAL).
    pub durability: DurabilityMetrics,
    /// Predictions served per registry model name.
    per_model: BTreeMap<String, AtomicU64>,
}

impl ServeMetrics {
    /// Creates metrics with one prediction counter per model name.
    pub fn new(model_names: &[String]) -> ServeMetrics {
        ServeMetrics {
            requests_total: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            latency_us: Histogram::new(&LATENCY_BOUNDS_US),
            batch_size: Histogram::new(&BATCH_BOUNDS),
            scheduler: SchedulerMetrics::default(),
            ingest: IngestMetrics::new(),
            durability: DurabilityMetrics::new(),
            per_model: model_names
                .iter()
                .map(|n| (n.clone(), AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Counts one response with `status`, observed after `latency_us`.
    pub fn record_response(&self, status: u16, latency_us: u64) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.latency_us.record(latency_us);
    }

    /// Counts `n` predictions served by `model`.
    pub fn record_predictions(&self, model: &str, n: u64) {
        if let Some(counter) = self.per_model.get(model) {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The `/metrics` JSON document.
    pub fn render_json(&self) -> String {
        self.render_json_with(None)
    }

    /// The `/metrics` JSON document with an optional pre-rendered
    /// `"shard"` label object (shard id + served artifact versions) —
    /// what a cluster router's aggregated `/metrics` keys shards by.
    pub fn render_json_with(&self, shard: Option<&str>) -> String {
        self.render_json_with_net(shard, None)
    }

    /// Like [`ServeMetrics::render_json_with`], additionally embedding a
    /// pre-rendered `"net"` object (the connection reactor's counters,
    /// `traj_net::NetStats::render_json`). Rendering stays string-based
    /// so the reactor crate needs no dependency on this one.
    pub fn render_json_with_net(&self, shard: Option<&str>, net: Option<&str>) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        if let Some(label) = shard {
            out.push_str(&format!("  \"shard\": {label},\n"));
        }
        out.push_str(&format!(
            "  \"requests_total\": {},\n  \"responses_2xx\": {},\n  \"responses_4xx\": {},\n  \"responses_5xx\": {},\n",
            self.requests_total.load(Ordering::Relaxed),
            self.responses_2xx.load(Ordering::Relaxed),
            self.responses_4xx.load(Ordering::Relaxed),
            self.responses_5xx.load(Ordering::Relaxed),
        ));
        out.push_str(&format!(
            "  \"latency_us\": {},\n  \"batch_size\": {},\n",
            self.latency_us.render_json(),
            self.batch_size.render_json(),
        ));
        out.push_str(&format!(
            "  \"scheduler\": {},\n",
            self.scheduler.render_json()
        ));
        if let Some(net) = net {
            out.push_str(&format!("  \"net\": {net},\n"));
        }
        out.push_str(&format!("  \"ingest\": {},\n", self.ingest.render_json()));
        out.push_str(&format!(
            "  \"durability\": {},\n",
            self.durability.render_json()
        ));
        out.push_str("  \"predictions_per_model\": {");
        let mut first = true;
        for (name, counter) in &self.per_model {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!(
                "\"{}\": {}",
                name,
                counter.load(Ordering::Relaxed)
            ));
        }
        out.push_str("}\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_valid_json_with_counters() {
        let m = ServeMetrics::new(&["rf".to_owned(), "xgb".to_owned()]);
        m.record_response(200, 750);
        m.record_response(404, 80);
        m.record_predictions("rf", 3);
        m.batch_size.record(3);
        let json = m.render_json();
        let value = serde_json::parse_value(&json).expect("valid JSON");
        let text = serde_json::to_string(&value).unwrap();
        assert!(text.contains("\"requests_total\":2"));
        assert!(text.contains("\"rf\":3"));
        assert!(text.contains("\"responses_4xx\":1"));
    }

    #[test]
    fn every_histogram_in_the_document_has_one_shape() {
        use serde::Value;
        let m = ServeMetrics::new(&["rf".to_owned()]);
        m.durability.enable();
        m.record_response(200, 750);
        m.batch_size.record(3);
        m.scheduler.queue_wait_us.record(120);
        m.ingest.record_close(Some(900), false, Some(0.002));
        m.durability.fsync_us.record(5_000_000); // overflow bucket
        m.durability.record_snapshot(7, 2, 300);
        let net = traj_net::NetStats::new();
        net.request_read_us.record(40);
        let doc = m.render_json_with_net(None, Some(&net.render_json()));
        let doc = serde_json::parse_value(&doc).expect("valid JSON");

        let get = |v: &'static str, from: &Value| match from {
            Value::Map(m) => serde::map_get(m, v).cloned(),
            _ => None,
        };
        let is_num =
            |v: Option<Value>| matches!(v, Some(Value::Int(_) | Value::UInt(_) | Value::Float(_)));
        for path in [
            &["latency_us"][..],
            &["batch_size"],
            &["scheduler", "queue_wait_us"],
            &["ingest", "close_latency_us"],
            &["ingest", "sketch_drift_ppm"],
            &["durability", "fsync_us"],
            &["durability", "snapshot_write_us"],
            &["net", "request_read_us"],
            &["net", "response_write_us"],
        ] {
            let h = path
                .iter()
                .try_fold(doc.clone(), |v, key| get(key, &v))
                .unwrap_or_else(|| panic!("{path:?} missing"));
            for key in ["count", "mean", "p50", "p95", "p99"] {
                assert!(is_num(get(key, &h)), "{path:?}.{key} not numeric");
            }
            let Some(Value::Seq(buckets)) = get("buckets", &h) else {
                panic!("{path:?}.buckets missing");
            };
            let (last, finite) = buckets.split_last().expect("overflow bucket");
            let inf = Some(Value::Str("inf".to_owned()));
            assert_eq!(get("le", last), inf, "{path:?}");
            assert!(is_num(get("count", last)), "{path:?} overflow count");
            for b in finite {
                assert!(
                    is_num(get("le", b)) && is_num(get("count", b)),
                    "{path:?} {b:?}"
                );
            }
        }
    }
}
