//! Throughput and latency probe of the streaming ingestion stack
//! (`traj-stream` engine + model prediction), without the HTTP layer:
//! the in-process ceiling `stream_replay` measures end-to-end.
//!
//! ```text
//! cargo run --release -p traj-bench --bin bench_stream -- [--small] [--seed S]
//! ```
//!
//! Replays a synthetic cohort's points in global timestamp order through
//! `StreamEngine::ingest` in per-user chunks, predicting on every closed
//! segment exactly as `POST /ingest` does. Reports sustained points/s,
//! the p50/p99 close-to-prediction latency (chunk arrival → prediction
//! for chunks that close a segment), and the peak per-user session state
//! so the memory bound in DESIGN.md §9 has a measured counterpart.
//! Writes `results/BENCH_stream.json`.

use std::time::Instant;

use serde::Serialize;
use traj_bench::{results_dir, Cli};
use traj_serve::artifact::{ModelArtifact, TrainSpec};
use traj_sim::percentile_us;
use traj_stream::{StreamConfig, StreamEngine};
use trajlib::prelude::*;
use trajlib::report::save_json;

#[derive(Debug, Serialize)]
struct StreamBench {
    /// Points replayed through the engine.
    points: usize,
    /// Requests (per-user chunks) the replay was cut into.
    chunks: usize,
    /// Segments closed and predicted during the replay.
    closes: usize,
    /// Wall time of the replay, milliseconds.
    elapsed_ms: f64,
    /// Sustained ingestion throughput.
    points_per_sec: f64,
    /// Close-to-prediction latency: chunk ingest start → prediction
    /// returned, for chunks that closed at least one segment.
    close_latency_p50_us: u64,
    /// Tail of the same distribution.
    close_latency_p99_us: u64,
    /// Peak engine-wide session state observed between chunks.
    peak_state_bytes: usize,
    /// Peak concurrently open sessions.
    peak_open_sessions: usize,
    /// `peak_state_bytes / peak_open_sessions`: the measured per-user
    /// memory bound (the sessionizer caps it via `exact_cap`).
    peak_state_bytes_per_user: usize,
}

fn main() {
    let cli = Cli::from_env();
    let seed = cli.seed.unwrap_or(42);
    let (n_users, segments_per_user) = if cli.small {
        (6, (6, 9))
    } else {
        (16, (12, 18))
    };
    let synth = SynthDataset::generate(&SynthConfig {
        n_users,
        segments_per_user,
        seed,
        ..SynthConfig::default()
    });

    // The model `/ingest` would serve: a Paper70 tree (fast, so the
    // engine — not the classifier — dominates the measurement).
    let spec = TrainSpec {
        kind: ClassifierKind::DecisionTree,
        seed: 3,
        ..TrainSpec::paper_default("bench-tree")
    };
    let artifact = ModelArtifact::train(&spec, &synth.segments).expect("train bench model");
    let mut registry = traj_serve::registry::ModelRegistry::new();
    registry.insert(artifact).expect("insert bench model");
    let model = registry.get(None).expect("bench model registered");

    // Global time-ordered stream cut into per-user chunks, exactly like
    // `stream_replay` builds its request plan.
    let chunk_size = 64usize;
    let mut events: Vec<(i64, u32, f64, f64)> = Vec::new();
    for seg in &synth.segments {
        for p in &seg.points {
            events.push((p.t.0, seg.user, p.lat, p.lon));
        }
    }
    events.sort_by_key(|&(t, user, _, _)| (t, user));
    let mut chunks: Vec<(u32, Vec<TrajectoryPoint>)> = Vec::new();
    let mut buffers: std::collections::HashMap<u32, Vec<TrajectoryPoint>> =
        std::collections::HashMap::new();
    for (t, user, lat, lon) in &events {
        let buffer = buffers.entry(*user).or_default();
        buffer.push(TrajectoryPoint::new(*lat, *lon, Timestamp(*t)));
        if buffer.len() >= chunk_size {
            chunks.push((*user, std::mem::take(buffer)));
        }
    }
    let mut tail_users: Vec<u32> = buffers.keys().copied().collect();
    tail_users.sort_unstable();
    for user in tail_users {
        let buffer = buffers.remove(&user).expect("listed");
        if !buffer.is_empty() {
            chunks.push((user, buffer));
        }
    }

    let engine = StreamEngine::new(StreamConfig::default());
    let mut close_latencies_us: Vec<u64> = Vec::new();
    let mut closes = 0usize;
    let mut peak_state_bytes = 0usize;
    let mut peak_open_sessions = 0usize;

    let started = Instant::now();
    for (user, points) in &chunks {
        let chunk_started = Instant::now();
        let report = engine.ingest(*user, points, false);
        if !report.closed.is_empty() {
            for closed in &report.closed {
                let prediction = model
                    .predict_full_row(&closed.features)
                    .expect("paper70 row predicts");
                std::hint::black_box(prediction);
                closes += 1;
            }
            close_latencies_us.push(chunk_started.elapsed().as_micros() as u64);
        }
        peak_state_bytes = peak_state_bytes.max(engine.state_bytes());
        peak_open_sessions = peak_open_sessions.max(engine.open_sessions());
    }
    for closed in engine.flush_all() {
        let prediction = model
            .predict_full_row(&closed.features)
            .expect("paper70 row predicts");
        std::hint::black_box(prediction);
        closes += 1;
    }
    let elapsed = started.elapsed();

    let result = StreamBench {
        points: events.len(),
        chunks: chunks.len(),
        closes,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        points_per_sec: events.len() as f64 / elapsed.as_secs_f64(),
        close_latency_p50_us: percentile_us(&mut close_latencies_us, 50.0),
        close_latency_p99_us: percentile_us(&mut close_latencies_us, 99.0),
        peak_state_bytes,
        peak_open_sessions,
        peak_state_bytes_per_user: peak_state_bytes / peak_open_sessions.max(1),
    };
    println!(
        "points={} chunks={} closes={} elapsed={:.1}ms throughput={:.0} points/s",
        result.points, result.chunks, result.closes, result.elapsed_ms, result.points_per_sec
    );
    println!(
        "close→prediction latency: p50 {} µs  p99 {} µs; peak state {} bytes over {} sessions ({} bytes/user)",
        result.close_latency_p50_us,
        result.close_latency_p99_us,
        result.peak_state_bytes,
        result.peak_open_sessions,
        result.peak_state_bytes_per_user
    );
    assert!(result.closes > 0, "replay closed no segments");

    save_json(&results_dir().join("BENCH_stream.json"), &result).expect("write results");
}
