//! `stream_replay` — replays a GeoLife-like point stream against a
//! running `traj-serve` instance through `POST /ingest`, in global
//! timestamp order, and reports end-to-end ingestion throughput.
//!
//! ```text
//! stream_replay --addr 127.0.0.1:8080 [--connections 4] [--chunk 64]
//!               [--model NAME] [--seed S] [--repeat N]
//! ```
//!
//! The synthetic dataset's points are merged across users into one
//! globally time-ordered stream (what an ingestion gateway would see),
//! then cut into per-user chunks of at most `--chunk` points. Each user
//! is pinned to one connection so the per-user point order the engine
//! requires is preserved; connections replay their chunk sequence as
//! fast as the server accepts it and finish with one `flush` per user.
//! The summary reports points/s, predictions received, request latency
//! percentiles and the non-2xx count — the acceptance gate for the
//! streaming stack (≥ 20 000 points/s, zero non-2xx).

use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use traj_geolife::{SynthConfig, SynthDataset};
use traj_net::client::request as client_request;
use traj_sim::percentile_us;

struct Args {
    addr: String,
    connections: usize,
    chunk: usize,
    model: Option<String>,
    seed: u64,
    /// Replays the dataset N times (with shifted user ids) to lengthen
    /// the run without changing the per-request shape.
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut map = HashMap::new();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    while let Some(arg) = iter.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        let value = iter
            .next()
            .ok_or_else(|| format!("--{key} requires a value"))?;
        map.insert(key.to_owned(), value.clone());
    }
    let parsed = |key: &str, default: u64| -> Result<u64, String> {
        match map.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{key} {v:?}")),
        }
    };
    Ok(Args {
        addr: map
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:8080".to_owned()),
        connections: parsed("connections", 4)?.max(1) as usize,
        chunk: parsed("chunk", 64)?.max(1) as usize,
        model: map.get("model").cloned(),
        seed: parsed("seed", 42)?,
        repeat: parsed("repeat", 1)?.max(1) as usize,
    })
}

/// A request body destined for one connection, in send order.
struct Plan {
    /// `bodies[c]` is connection `c`'s ordered request sequence; the
    /// flag marks final per-user `flush` requests, whose failure means
    /// a segment close (and, on a durable server, its durability) was
    /// never acknowledged.
    bodies: Vec<Vec<(String, bool)>>,
    total_points: usize,
}

/// Merges the dataset into one global time-ordered stream and cuts it
/// into per-user `/ingest` bodies with user→connection affinity.
fn build_plan(args: &Args) -> Plan {
    let synth = SynthDataset::generate(&SynthConfig::small(args.seed));
    // (t, user, lat, lon), globally ordered. Repeats shift user ids so
    // sessions stay independent.
    let mut events: Vec<(i64, u32, f64, f64)> = Vec::new();
    for r in 0..args.repeat {
        let user_shift = (r as u32) * 10_000;
        for seg in &synth.segments {
            for p in &seg.points {
                events.push((p.t.0, seg.user + user_shift, p.lat, p.lon));
            }
        }
    }
    events.sort_by_key(|&(t, user, _, _)| (t, user));

    let model_field = match &args.model {
        Some(m) => format!("\"model\":\"{m}\","),
        None => String::new(),
    };
    let mut bodies: Vec<Vec<(String, bool)>> = vec![Vec::new(); args.connections];
    let mut buffers: HashMap<u32, Vec<String>> = HashMap::new();
    let mut total_points = 0usize;
    let flush_body = |user: u32, points: &mut Vec<String>, flush: bool| -> String {
        let flush_field = if flush { ",\"flush\":true" } else { "" };
        let body = format!(
            "{{{model_field}\"user\":{user},\"points\":[{}]{flush_field}}}",
            points.join(",")
        );
        points.clear();
        body
    };
    for (t, user, lat, lon) in events {
        let buffer = buffers.entry(user).or_default();
        buffer.push(format!("{{\"lat\":{lat},\"lon\":{lon},\"t\":{t}}}"));
        total_points += 1;
        if buffer.len() >= args.chunk {
            let body = flush_body(user, buffer, false);
            bodies[user as usize % args.connections].push((body, false));
        }
    }
    // Tail chunks, then one flush per user to close open segments.
    let mut users: Vec<u32> = buffers.keys().copied().collect();
    users.sort_unstable();
    for user in users {
        let buffer = buffers.get_mut(&user).expect("listed");
        let body = flush_body(user, buffer, true);
        bodies[user as usize % args.connections].push((body, true));
    }
    Plan {
        bodies,
        total_points,
    }
}

#[derive(Default)]
struct WorkerStats {
    requests: u64,
    non_2xx: u64,
    transport_errors: u64,
    /// Final per-user `flush` requests that did not get a 2xx — the
    /// server never acknowledged closing (and durably recording) the
    /// stream's last segment.
    flush_failures: u64,
    predictions: u64,
    latencies_us: Vec<u64>,
}

fn worker(addr: &str, bodies: &[(String, bool)]) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let mut client = None;
    for (body, is_flush) in bodies {
        if client.is_none() {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                    client = Some(BufReader::new(stream));
                }
                Err(_) => {
                    stats.transport_errors += 1;
                    if *is_flush {
                        stats.flush_failures += 1;
                    }
                    continue; // Skips the body: counted as transport error.
                }
            }
        }
        let started = Instant::now();
        match client_request(
            client.as_mut().expect("connected"),
            "POST",
            "/ingest",
            Some(body),
        ) {
            Ok((status, response)) => {
                stats.requests += 1;
                stats
                    .latencies_us
                    .push(started.elapsed().as_micros() as u64);
                if (200..300).contains(&status) {
                    stats.predictions += response.matches("\"reason\":").count() as u64;
                } else {
                    stats.non_2xx += 1;
                    if *is_flush {
                        stats.flush_failures += 1;
                    }
                }
            }
            Err(_) => {
                stats.transport_errors += 1;
                if *is_flush {
                    stats.flush_failures += 1;
                }
                client = None;
            }
        }
    }
    stats
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: stream_replay --addr HOST:PORT [--connections N] [--chunk N] \
                 [--model NAME] [--seed S] [--repeat N]"
            );
            return ExitCode::FAILURE;
        }
    };
    let plan = build_plan(&args);
    if plan.total_points == 0 {
        eprintln!("error: no points generated");
        return ExitCode::FAILURE;
    }
    let requests: usize = plan.bodies.iter().map(Vec::len).sum();
    println!(
        "stream_replay: {} points in {} requests over {} connections against http://{}/ingest",
        plan.total_points, requests, args.connections, args.addr
    );

    let started = Instant::now();
    let handles: Vec<_> = plan
        .bodies
        .into_iter()
        .map(|bodies| {
            let addr = args.addr.clone();
            std::thread::spawn(move || worker(&addr, &bodies))
        })
        .collect();
    let mut all = WorkerStats::default();
    for handle in handles {
        let stats = handle.join().expect("worker panicked");
        all.requests += stats.requests;
        all.non_2xx += stats.non_2xx;
        all.transport_errors += stats.transport_errors;
        all.flush_failures += stats.flush_failures;
        all.predictions += stats.predictions;
        all.latencies_us.extend(stats.latencies_us);
    }
    let elapsed = started.elapsed().as_secs_f64();

    let pps = plan.total_points as f64 / elapsed;
    println!("points:            {:>10}", plan.total_points);
    println!("throughput:        {pps:>10.1} points/s");
    println!("requests:          {:>10}", all.requests);
    println!("predictions:       {:>10}", all.predictions);
    println!(
        "request latency:   p50 {} µs   p95 {} µs   p99 {} µs",
        percentile_us(&mut all.latencies_us, 50.0),
        percentile_us(&mut all.latencies_us, 95.0),
        percentile_us(&mut all.latencies_us, 99.0)
    );
    println!("non-2xx:           {:>10}", all.non_2xx);
    println!("transport errors:  {:>10}", all.transport_errors);
    println!("flush failures:    {:>10}", all.flush_failures);

    if all.flush_failures > 0 {
        eprintln!(
            "error: {} final flush request(s) were not acknowledged — open segments \
             may be lost or not durable",
            all.flush_failures
        );
        return ExitCode::FAILURE;
    }
    if all.requests == 0 || all.non_2xx > 0 || all.transport_errors > 0 || all.predictions == 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
