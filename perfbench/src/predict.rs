//! `predict_interactive`: single-segment `POST /predict` over loopback
//! keep-alive HTTP to one `trajlib-cli serve` shard serving the
//! paper-default RandomForest artifact.
//!
//! Phases: a verification pass (every distinct body once, answers
//! compared with the in-process model), an open loop at a fixed rate
//! (latency), then a closed loop on two connections (throughput).

use crate::load::{self, Conn, Pace, PhaseStats, Sink};
use crate::metricsdoc::{lookup, num, ShardDelta};
use crate::procs::{self, Proc};
use crate::trace::SpanLog;
use crate::{median_s, plan, Ctx, Outcome};
use std::time::{Duration, Instant};
use traj_net::http1::render_request;
use traj_serve::{LoadedModel, ModelArtifact, Prediction, TrainSpec};
use trajlib::geo::TrajectoryPoint;

/// Open-loop offered rate, requests/s: about half of what the closed
/// loop completes on a 2-core machine, so the queue stays short.
pub const RATE: f64 = 1500.0;

/// A served artifact and the seeded request bodies.
struct Served {
    proc: Proc,
    model: LoadedModel,
    bodies: Vec<(Vec<TrajectoryPoint>, String)>,
}

/// The artifact every serving workload serves: paper defaults (Dabiri
/// labels, 70 features, RandomForest) trained on the seeded cohort.
pub fn train_artifact(seed: u64) -> Result<ModelArtifact, String> {
    let spec = TrainSpec {
        seed,
        ..TrainSpec::paper_default("rf")
    };
    ModelArtifact::train(&spec, &plan::training_cohort(seed).segments)
}

/// Everything between workload start and the first timed request:
/// cohort generation, artifact training, process spawn, `/readyz` 200.
fn setup(ctx: &Ctx, n: usize) -> Result<Served, String> {
    let dir = ctx.work.join(format!("predict-{n}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let bodies = plan::predict_bodies(&plan::predict_cohort(ctx.seed));
    let artifact = train_artifact(ctx.seed)?;
    let path = dir.join("rf.json");
    artifact.save(&path)?;
    let path = path.to_string_lossy().into_owned();
    let proc = Proc::spawn(
        &ctx.cli,
        &["serve", "--artifact", &path, "--addr", "127.0.0.1:0"],
    )?;
    procs::wait_ready(proc.addr)?;
    Ok(Served {
        proc,
        model: LoadedModel::new(artifact)?,
        bodies,
    })
}

/// Whether a `/predict` response carries exactly `want`'s class and
/// scores (bit for bit).
fn answers(body: &[u8], want: &Prediction) -> bool {
    let Ok(doc) = serde_json::parse_value(&String::from_utf8_lossy(body)) else {
        return false;
    };
    let class = lookup(&doc, &["class"]).and_then(num);
    let Some(serde::Value::Seq(scores)) = lookup(&doc, &["scores"]) else {
        return false;
    };
    class == Some(want.class as f64)
        && scores.len() == want.scores.len()
        && scores
            .iter()
            .zip(&want.scores)
            .all(|(got, w)| num(got).map(f64::to_bits) == Some(w.to_bits()))
}

/// Checks every timed response against the verified answer of its body.
struct Verified<'a> {
    expected: &'a [Vec<u8>],
    mismatches: u64,
}

impl Sink for Verified<'_> {
    fn response(&mut self, item: u32, status: u16, body: &[u8]) {
        if (200..300).contains(&status) && body != self.expected[item as usize].as_slice() {
            self.mismatches += 1;
        }
    }
}

fn metrics_doc(addr: std::net::SocketAddr) -> Result<serde::Value, String> {
    let (_, text) = load::request(addr, "GET", "/metrics", None).map_err(|e| e.to_string())?;
    serde_json::parse_value(&text).map_err(|e| e.to_string())
}

/// Runs the workload. With `traced`, records client spans and diffs the
/// shard's `/metrics` over the open-loop phase; `overhead` first repeats
/// the closed loop untraced to measure the tracing overhead.
pub fn run(ctx: &Ctx, traced: bool, overhead: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let repeats = if traced { 1 } else { crate::SETUP_REPEATS };
    let mut setup_times = Vec::new();
    let mut served = None;
    for n in 0..repeats {
        drop(served.take());
        let started = Instant::now();
        served = Some(setup(ctx, n)?);
        setup_times.push(started.elapsed());
    }
    let served = served.expect("at least one setup");
    let addr = served.proc.addr;
    let n = served.bodies.len();
    let wires: Vec<Vec<u8>> = served
        .bodies
        .iter()
        .map(|(_, b)| render_request("POST", "/predict", Some(b)))
        .collect();

    // Verification pass: every distinct body once, against the model
    // in-process. Its answers are what every timed response must match.
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let mut expected = Vec::with_capacity(n);
    for (i, ((points, _), wire)) in served.bodies.iter().zip(&wires).enumerate() {
        let (status, body) = conn.exchange(wire).map_err(|e| e.to_string())?;
        let want = served.model.predict_points(points)?;
        if status != 200 || !answers(&body, &want) {
            out.problems.push(format!(
                "predict body {i}: status {status}, answer differs from the in-process model"
            ));
        }
        expected.push(body);
    }
    drop(conn);

    let order = plan::send_order(n, ctx.seed);
    let half = ctx.seconds / 2.0;
    let sinks = || {
        (0..2)
            .map(|_| Verified {
                expected: &expected,
                mismatches: 0,
            })
            .collect::<Vec<_>>()
    };
    let logs = |on: bool| {
        (0..2)
            .map(|c| SpanLog::new(ctx.origin, c, on))
            .collect::<Vec<_>>()
    };

    // Open loop: request i is due at i / RATE on connection i % 2.
    let total = (RATE * half).round() as usize;
    let mut open_sends = vec![Vec::new(), Vec::new()];
    for i in 0..total {
        open_sends[i % 2].push((order[i % n], plan::due_ns(i, RATE)));
    }
    let before = if traced {
        Some(metrics_doc(addr)?)
    } else {
        None
    };
    let open = load::phase(addr, &open_sends, &wires, Pace::Open, sinks(), logs(traced));
    let open_stats = PhaseStats::of(&open.records, true);
    if let Some(before) = before {
        let delta = ShardDelta::between(&before, &metrics_doc(addr)?);
        let sent_to_done: Vec<u64> = open
            .records
            .iter()
            .flatten()
            .map(|r| r.done_ns - r.sent_ns)
            .collect();
        server_breakdown(&mut out, &delta, sent_to_done);
    }

    // Closed loop: each connection cycles the send order from its own
    // offset for the second half of the run.
    let closed_sends: Vec<Vec<(u32, u64)>> = (0..2)
        .map(|c| (0..n).map(|k| (order[(c * n / 2 + k) % n], 0)).collect())
        .collect();
    let pace = Pace::Closed {
        until: Duration::from_secs_f64(half),
        whole_passes: false,
    };
    let untraced_tput = if overhead {
        let warm = load::phase(addr, &closed_sends, &wires, pace, sinks(), logs(false));
        Some(PhaseStats::of(&warm.records, false).ok as f64 / warm.elapsed.as_secs_f64())
    } else {
        None
    };
    let closed = load::phase(addr, &closed_sends, &wires, pace, sinks(), logs(traced));
    let closed_stats = PhaseStats::of(&closed.records, false);
    let throughput = closed_stats.ok as f64 / closed.elapsed.as_secs_f64();
    if let Some(base) = untraced_tput {
        out.set(
            "trace.overhead_pct",
            100.0 * (base - throughput) / base,
            "%",
        );
    }

    let mismatches: u64 = open
        .sinks
        .iter()
        .chain(&closed.sinks)
        .map(|s| s.mismatches)
        .sum();
    if mismatches > 0 {
        out.problems.push(format!(
            "{mismatches} /predict responses differ from their body's verified answer"
        ));
    }
    for (name, s) in [("open loop", &open_stats), ("closed loop", &closed_stats)] {
        out.notes
            .push(s.describe(&format!("predict_interactive {name}")));
        if s.failed() > 0 {
            out.problems.push(format!(
                "predict_interactive {name}: {} failed requests",
                s.failed()
            ));
        }
    }
    if open_stats.backlog_grew {
        out.problems.push(
            "predict_interactive open loop: backlog grew, the offered rate exceeds capacity"
                .to_owned(),
        );
    }
    out.attempted += open_stats.attempted + closed_stats.attempted;
    out.failed += open_stats.failed() + closed_stats.failed();

    out.set("setup_s", median_s(&setup_times), "s");
    out.set("throughput_items_s", throughput, "1/s");
    out.set("latency_p50_ms", open_stats.latency_ms(50.0), "ms");
    out.set("latency_p90_ms", open_stats.latency_ms(90.0), "ms");
    out.set("rss_peak_mb", served.proc.peak_rss_mb(), "MiB");
    out.logs.extend(open.logs);
    out.logs.extend(closed.logs);
    Ok(out)
}

/// The shard's own view of the open-loop phase, from `/metrics` deltas.
fn server_breakdown(out: &mut Outcome, d: &ShardDelta, mut client_us: Vec<u64>) {
    let server_p50 = d.latency_us.percentile(50.0) as f64;
    out.set("serve.server_p50_us", server_p50, "us");
    out.set(
        "serve.queue_wait_p50_us",
        d.queue_wait_us.percentile(50.0) as f64,
        "us",
    );
    out.set(
        "serve.queue_wait_p95_us",
        d.queue_wait_us.percentile(95.0) as f64,
        "us",
    );
    out.set("serve.batch_rows_mean", d.batch_rows.mean(), "rows");
    out.set("serve.shed", d.shed as f64, "count");
    out.set("serve.deadline_misses", d.deadline_misses as f64, "count");
    let client_p50_us = traj_sim::percentile_us(&mut client_us, 50.0) as f64 / 1e3;
    out.set("net.outside_server_us", client_p50_us - server_p50, "us");
}
