//! `ingest_routed`: durable streaming `POST /ingest` through the
//! `trajlib-cli cluster` router to two `trajlib-cli serve` shards, each
//! with a WAL under the server's default interval fsync.
//!
//! About a thousand users' points are replayed in global time order as
//! per-user chunks, each user pinned to one of two connections and
//! ending with one `flush`. Phases: one open-loop pass at a fixed rate
//! (latency), then closed-loop whole passes (throughput). A pass reuses
//! the same user ids: every user's flush ends its session, so the next
//! pass starts fresh sessions.

use crate::load::{self, Pace, PhaseRun, PhaseStats, Sink};
use crate::metricsdoc::{field, lookup, ShardDelta};
use crate::plan::{self, IngestPlan};
use crate::procs::{self, Proc};
use crate::trace::SpanLog;
use crate::{median_s, predict, Ctx, Outcome};
use serde::Value;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use traj_net::http1::render_request;

/// Open-loop offered rate, requests/s: about half of what the closed
/// loop completes on a 2-core machine.
pub const RATE: f64 = 2000.0;

struct Cluster {
    shards: Vec<Proc>,
    router: Proc,
    plan: IngestPlan,
}

/// Cohort generation, chunk planning, artifact training, two durable
/// shards and the router spawned, all three answering `/readyz` 200.
fn setup(ctx: &Ctx, n: usize) -> Result<Cluster, String> {
    let dir = ctx.work.join(format!("ingest-{n}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let plan = plan::ingest_plan(&plan::ingest_cohort(ctx.seed), plan::INGEST_CHUNK);
    let artifact = predict::train_artifact(ctx.seed)?;
    let path = dir.join("rf.json");
    artifact.save(&path)?;
    let path = path.to_string_lossy().into_owned();
    let mut shards = Vec::new();
    for s in 0..2 {
        let wal = dir.join(format!("shard{s}")).to_string_lossy().into_owned();
        shards.push(Proc::spawn(
            &ctx.cli,
            &[
                "serve",
                "--artifact",
                &path,
                "--addr",
                "127.0.0.1:0",
                "--wal-dir",
                &wal,
            ],
        )?);
    }
    let list = format!("{},{}", shards[0].addr, shards[1].addr);
    let router = Proc::spawn(
        &ctx.cli,
        &["cluster", "--shards", &list, "--addr", "127.0.0.1:0"],
    )?;
    for p in shards.iter().chain([&router]) {
        procs::wait_ready(p.addr)?;
    }
    Ok(Cluster {
        shards,
        router,
        plan,
    })
}

/// Accepted points and `flush` closes per user, from the responses.
#[derive(Default)]
struct Tally {
    accepted: u64,
    flushes: BTreeMap<u32, u64>,
    unparsable: u64,
}

impl Sink for Tally {
    fn response(&mut self, _item: u32, status: u16, body: &[u8]) {
        if !(200..300).contains(&status) {
            return;
        }
        let Ok(doc) = serde_json::parse_value(&String::from_utf8_lossy(body)) else {
            self.unparsable += 1;
            return;
        };
        self.accepted += field(&doc, &["accepted"]) as u64;
        if let Some(Value::Seq(predictions)) = lookup(&doc, &["predictions"]) {
            for p in predictions {
                if matches!(lookup(p, &["reason"]), Some(Value::Str(r)) if r == "flush") {
                    *self.flushes.entry(field(p, &["user"]) as u32).or_default() += 1;
                }
            }
        }
    }
}

/// Checks one phase: whole passes only, accepted points equal points
/// sent, and every user closed by exactly one `flush` per pass.
fn check_phase(
    plan: &IngestPlan,
    sends: &[Vec<(u32, u64)>],
    run: &PhaseRun<Tally>,
    name: &str,
    out: &mut Outcome,
) -> u64 {
    let mut passes = [0u64; 2];
    let mut expected_points = 0u64;
    for c in 0..2 {
        let per_pass = sends[c].len().max(1);
        passes[c] = (run.records[c].len() / per_pass) as u64;
        if !run.records[c].len().is_multiple_of(per_pass) {
            out.problems
                .push(format!("{name}: connection {c} stopped mid-pass"));
        }
        let points: usize = sends[c]
            .iter()
            .map(|&(i, _)| plan.requests[i as usize].points.len())
            .sum();
        expected_points += passes[c] * points as u64;
    }
    let accepted: u64 = run.sinks.iter().map(|s| s.accepted).sum();
    if accepted != expected_points {
        out.problems.push(format!(
            "{name}: {accepted} points accepted, {expected_points} sent"
        ));
    }
    let mut flushes: BTreeMap<u32, u64> = BTreeMap::new();
    for s in &run.sinks {
        for (&u, &k) in &s.flushes {
            *flushes.entry(u).or_default() += k;
        }
        if s.unparsable > 0 {
            out.problems
                .push(format!("{name}: {} unparsable responses", s.unparsable));
        }
    }
    let users: Vec<u32> = plan
        .requests
        .iter()
        .filter(|r| r.flush)
        .map(|r| r.user)
        .collect();
    let wrong = users
        .iter()
        .filter(|&&u| flushes.get(&u).copied().unwrap_or(0) != passes[(u % 2) as usize])
        .count();
    if wrong > 0 || flushes.len() != users.len() {
        out.problems.push(format!(
            "{name}: {wrong} of {} users did not get exactly one flush close per pass",
            users.len()
        ));
    }
    accepted
}

fn router_doc(addr: SocketAddr) -> Result<Value, String> {
    let (_, text) = load::request(addr, "GET", "/metrics", None).map_err(|e| e.to_string())?;
    serde_json::parse_value(&text).map_err(|e| e.to_string())
}

/// The shards' summed `/metrics` delta and the router's retry delta.
fn cluster_delta(before: &Value, after: &Value) -> (ShardDelta, f64) {
    let mut sum = ShardDelta::default();
    if let (Some(Value::Seq(b)), Some(Value::Seq(a))) =
        (lookup(before, &["shards"]), lookup(after, &["shards"]))
    {
        for (b, a) in b.iter().zip(a) {
            sum.add(&ShardDelta::between(b, a));
        }
    }
    let retries = field(after, &["router", "retries"]) - field(before, &["router", "retries"]);
    (sum, retries)
}

/// Runs the workload; `traced` and `overhead` as in [`predict::run`].
pub fn run(ctx: &Ctx, traced: bool, overhead: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let repeats = if traced { 1 } else { crate::SETUP_REPEATS };
    let mut setup_times = Vec::new();
    let mut cluster = None;
    for n in 0..repeats {
        drop(cluster.take());
        let started = Instant::now();
        cluster = Some(setup(ctx, n)?);
        setup_times.push(started.elapsed());
    }
    let cluster = cluster.expect("at least one setup");
    let plan = &cluster.plan;
    let addr = cluster.router.addr;
    let wires: Vec<Vec<u8>> = plan
        .requests
        .iter()
        .map(|r| render_request("POST", "/ingest", Some(&r.body)))
        .collect();
    let mut open_sends = vec![Vec::new(), Vec::new()];
    let mut closed_sends = vec![Vec::new(), Vec::new()];
    for (i, r) in plan.requests.iter().enumerate() {
        let c = (r.user % 2) as usize;
        open_sends[c].push((i as u32, plan::due_ns(i, RATE)));
        closed_sends[c].push((i as u32, 0));
    }
    let sinks = || vec![Tally::default(), Tally::default()];
    let logs = |on: bool| {
        (0..2)
            .map(|c| SpanLog::new(ctx.origin, 10 + c, on))
            .collect::<Vec<_>>()
    };

    let before = if traced {
        Some(router_doc(addr)?)
    } else {
        None
    };
    let open = load::phase(addr, &open_sends, &wires, Pace::Open, sinks(), logs(traced));
    let open_stats = PhaseStats::of(&open.records, true);
    check_phase(
        plan,
        &open_sends,
        &open,
        "ingest_routed open loop",
        &mut out,
    );
    if let Some(before) = before {
        let (delta, retries) = cluster_delta(&before, &router_doc(addr)?);
        out.set(
            "wal.fsync_p50_us",
            delta.fsync_us.percentile(50.0) as f64,
            "us",
        );
        out.set(
            "wal.fsync_p95_us",
            delta.fsync_us.percentile(95.0) as f64,
            "us",
        );
        out.set("cluster.retries", retries, "count");
    }

    let pace = Pace::Closed {
        until: Duration::from_secs_f64(ctx.seconds / 2.0),
        whole_passes: true,
    };
    let untraced_tput = if overhead {
        let base = load::phase(addr, &closed_sends, &wires, pace, sinks(), logs(false));
        let points = check_phase(
            plan,
            &closed_sends,
            &base,
            "ingest_routed untraced",
            &mut out,
        );
        Some(points as f64 / base.elapsed.as_secs_f64())
    } else {
        None
    };
    let closed = load::phase(addr, &closed_sends, &wires, pace, sinks(), logs(traced));
    let closed_stats = PhaseStats::of(&closed.records, false);
    let points = check_phase(
        plan,
        &closed_sends,
        &closed,
        "ingest_routed closed loop",
        &mut out,
    );
    let throughput = points as f64 / closed.elapsed.as_secs_f64();
    if let Some(base) = untraced_tput {
        out.set(
            "trace.overhead_pct",
            100.0 * (base - throughput) / base,
            "%",
        );
    }

    for (name, s) in [("open loop", &open_stats), ("closed loop", &closed_stats)] {
        out.notes.push(s.describe(&format!("ingest_routed {name}")));
        if s.failed() > 0 {
            out.problems.push(format!(
                "ingest_routed {name}: {} non-2xx or failed requests",
                s.failed()
            ));
        }
    }
    if open_stats.backlog_grew {
        out.problems.push(
            "ingest_routed open loop: backlog grew, the offered rate exceeds capacity".to_owned(),
        );
    }
    out.attempted += open_stats.attempted + closed_stats.attempted;
    out.failed += open_stats.failed() + closed_stats.failed();
    out.notes.push(format!(
        "ingest_routed plan: {} users, {} points, {} requests",
        plan.users,
        plan.points,
        plan.requests.len()
    ));

    let rss: f64 = cluster
        .shards
        .iter()
        .chain([&cluster.router])
        .map(Proc::peak_rss_mb)
        .sum();
    out.set("setup_s", median_s(&setup_times), "s");
    out.set("throughput_items_s", throughput, "1/s");
    out.set("latency_p50_ms", open_stats.latency_ms(50.0), "ms");
    out.set("latency_p90_ms", open_stats.latency_ms(90.0), "ms");
    out.set("rss_peak_mb", rss, "MiB");
    out.logs.extend(open.logs);
    out.logs.extend(closed.logs);
    Ok(out)
}
