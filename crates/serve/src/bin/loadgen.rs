//! `loadgen` — replays synthetic GeoLife-like traffic against a running
//! `traj-serve` instance and reports throughput and latency.
//!
//! ```text
//! loadgen --addr 127.0.0.1:8080 [--connections 8] [--duration-secs 10]
//!         [--model NAME] [--batch N] [--seed S]
//! loadgen --targets 127.0.0.1:8080,127.0.0.1:8081,127.0.0.1:8082 ...
//! ```
//!
//! Each connection is a keep-alive HTTP/1.1 client cycling through
//! request bodies pre-built from synthetic segments (`--batch N` switches
//! to `/predict_batch` with N segments per request). The summary reports
//! requests/s, segment predictions/s, client-side latency percentiles,
//! the shed (429) count and the non-2xx count — the acceptance gate for
//! the serving stack. Admission-control sheds fail the run unless
//! `--allow-shed` is passed (overload experiments expect them).
//!
//! `--targets a,b,c` spreads the connections round-robin across several
//! endpoints (e.g. the shards of a `traj-cluster`, or shards next to
//! their router) and adds a per-target goodput/shed/latency split to
//! the summary, so an unbalanced or shedding member is visible at a
//! glance. `--addr` is shorthand for a single target.
//!
//! `--idle N` switches on the open-loop mode: N extra keep-alive
//! connections are opened up front, probed once (`GET /healthz`), then
//! parked for the whole run while the `--connections` workers generate
//! load — the event-driven server must hold them all without spending a
//! worker thread on any of them. A final probe on each parked
//! connection verifies it survived; `--require-idle-alive` fails the
//! run if any died. Pick a server idle timeout above the run duration
//! (`trajlib-cli serve --idle-timeout-s`), or the server's reaper will
//! (correctly) close them mid-run.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use traj_geolife::{SynthConfig, SynthDataset};
use traj_net::client::request as client_request;
use traj_sim::percentile_us;

struct Args {
    targets: Vec<String>,
    connections: usize,
    duration: Duration,
    model: Option<String>,
    batch: usize,
    seed: u64,
    allow_shed: bool,
    idle: usize,
    require_idle_alive: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = HashMap::new();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    while let Some(arg) = iter.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        // Boolean flags take no value.
        if key == "allow-shed" || key == "require-idle-alive" {
            map.insert(key.to_owned(), "true".to_owned());
            continue;
        }
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
    if map.contains_key("addr") && map.contains_key("targets") {
        return Err("--addr and --targets are mutually exclusive".to_owned());
    }
    let targets: Vec<String> = match map.get("targets") {
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(str::to_owned)
            .collect(),
        None => vec![map
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:8080".to_owned())],
    };
    if targets.is_empty() {
        return Err("--targets needs at least one endpoint".to_owned());
    }
    Ok(Args {
        targets,
        connections: parsed("connections", 8)? as usize,
        duration: Duration::from_secs(parsed("duration-secs", 10)?),
        model: map.get("model").cloned(),
        batch: parsed("batch", 0)? as usize,
        seed: parsed("seed", 42)?,
        allow_shed: map.contains_key("allow-shed"),
        idle: parsed("idle", 0)? as usize,
        require_idle_alive: map.contains_key("require-idle-alive"),
    })
}

/// Pre-builds JSON request bodies from synthetic segments.
fn build_bodies(args: &Args) -> Vec<String> {
    let synth = SynthDataset::generate(&SynthConfig::small(args.seed));
    let segments: Vec<String> = synth
        .segments
        .iter()
        .filter(|s| s.len() >= 10)
        .map(|seg| {
            let points: Vec<String> = seg
                .points
                .iter()
                .map(|p| format!("{{\"lat\":{},\"lon\":{},\"t\":{}}}", p.lat, p.lon, p.t.0))
                .collect();
            format!("[{}]", points.join(","))
        })
        .collect();
    let model_field = match &args.model {
        Some(m) => format!("\"model\":\"{m}\","),
        None => String::new(),
    };
    if args.batch == 0 {
        segments
            .iter()
            .map(|s| format!("{{{model_field}\"points\":{s}}}"))
            .collect()
    } else {
        segments
            .chunks(args.batch.max(1))
            .map(|chunk| format!("{{{model_field}\"segments\":[{}]}}", chunk.join(",")))
            .collect()
    }
}

#[derive(Default)]
struct WorkerStats {
    requests: u64,
    shed: u64,
    non_2xx: u64,
    transport_errors: u64,
    /// Client-side latency of successful (2xx) requests only — sheds are
    /// rejected in microseconds and would drag the percentiles down.
    latencies_us: Vec<u64>,
    /// Requests served per connection opened, in open order — the
    /// keep-alive reuse evidence (an event-driven server should serve a
    /// whole worker's run on one connection).
    requests_per_conn: Vec<u64>,
}

fn worker(
    addr: &str,
    path: &str,
    bodies: &[String],
    offset: usize,
    stop: &AtomicBool,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let mut client = None;
    let mut on_current_conn = 0u64;
    let mut i = offset;
    while !stop.load(Ordering::Relaxed) {
        if client.is_none() {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                    client = Some(BufReader::new(stream));
                    stats.requests_per_conn.push(0);
                    on_current_conn = 0;
                }
                Err(_) => {
                    stats.transport_errors += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            }
        }
        let body = &bodies[i % bodies.len()];
        i += 1;
        let started = Instant::now();
        match client_request(
            client.as_mut().expect("connected"),
            "POST",
            path,
            Some(body),
        ) {
            Ok((status, _)) => {
                stats.requests += 1;
                on_current_conn += 1;
                *stats.requests_per_conn.last_mut().expect("conn pushed") = on_current_conn;
                if (200..300).contains(&status) {
                    stats
                        .latencies_us
                        .push(started.elapsed().as_micros() as u64);
                } else if status == 429 {
                    stats.shed += 1;
                } else {
                    stats.non_2xx += 1;
                }
            }
            Err(_) => {
                stats.transport_errors += 1;
                client = None; // Reconnect on the next iteration.
            }
        }
    }
    stats
}

/// The parked keep-alive herd of `--idle N`: opened and probed before
/// the load starts, then left silent until the final liveness probe.
struct IdleHerd {
    conns: Vec<BufReader<TcpStream>>,
    open_failures: usize,
}

fn open_idle_herd(targets: &[String], n: usize) -> IdleHerd {
    let mut herd = IdleHerd {
        conns: Vec::with_capacity(n),
        open_failures: 0,
    };
    for c in 0..n {
        let addr = &targets[c % targets.len()];
        let opened = TcpStream::connect(addr).ok().and_then(|stream| {
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            let mut conn = BufReader::new(stream);
            match client_request(&mut conn, "GET", "/healthz", None) {
                Ok((status, _)) if (200..300).contains(&status) => Some(conn),
                _ => None,
            }
        });
        match opened {
            Some(conn) => herd.conns.push(conn),
            None => herd.open_failures += 1,
        }
    }
    herd
}

/// Probes every parked connection once more; returns how many answered
/// on the same connection (= survived the whole run).
fn probe_idle_herd(herd: &mut IdleHerd) -> usize {
    let mut alive = 0usize;
    for conn in &mut herd.conns {
        if matches!(
            client_request(conn, "GET", "/healthz", None),
            Ok((status, _)) if (200..300).contains(&status)
        ) {
            alive += 1;
        }
    }
    alive
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: loadgen --addr HOST:PORT | --targets A,B,C [--connections N] \
                 [--duration-secs S] [--model NAME] [--batch N] [--seed S] [--allow-shed] \
                 [--idle N] [--require-idle-alive]"
            );
            return ExitCode::FAILURE;
        }
    };
    let bodies = Arc::new(build_bodies(&args));
    if bodies.is_empty() {
        eprintln!("error: no request bodies generated");
        return ExitCode::FAILURE;
    }
    let path = if args.batch == 0 {
        "/predict"
    } else {
        "/predict_batch"
    };
    let segments_per_request = args.batch.max(1) as u64;

    println!(
        "loadgen: {} connections × {}s against {}{} ({} distinct bodies)",
        args.connections,
        args.duration.as_secs(),
        if args.targets.len() == 1 {
            format!("http://{}", args.targets[0])
        } else {
            format!("{} targets", args.targets.len())
        },
        path,
        bodies.len()
    );

    // The idle herd opens (and is probed) before the load starts, so
    // every parked connection rides out the whole run.
    let mut herd = open_idle_herd(&args.targets, args.idle);
    if args.idle > 0 {
        println!(
            "idle herd:         {:>10} open ({} failed to open)",
            herd.conns.len(),
            herd.open_failures
        );
    }

    // Connections spread round-robin across the targets.
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let handles: Vec<_> = (0..args.connections.max(1))
        .map(|c| {
            let target = c % args.targets.len();
            let addr = args.targets[target].clone();
            let bodies = Arc::clone(&bodies);
            let stop = Arc::clone(&stop);
            let path = path.to_owned();
            (
                target,
                std::thread::spawn(move || worker(&addr, &path, &bodies, c * 7, &stop)),
            )
        })
        .collect();

    std::thread::sleep(args.duration);
    stop.store(true, Ordering::Relaxed);
    let mut all = WorkerStats::default();
    let mut per_target: Vec<WorkerStats> = args
        .targets
        .iter()
        .map(|_| WorkerStats::default())
        .collect();
    for (target, handle) in handles {
        let stats = handle.join().expect("worker panicked");
        all.requests += stats.requests;
        all.shed += stats.shed;
        all.non_2xx += stats.non_2xx;
        all.transport_errors += stats.transport_errors;
        all.latencies_us.extend(stats.latencies_us.iter().copied());
        all.requests_per_conn
            .extend(stats.requests_per_conn.iter().copied());
        let bucket = &mut per_target[target];
        bucket.requests += stats.requests;
        bucket.shed += stats.shed;
        bucket.non_2xx += stats.non_2xx;
        bucket.transport_errors += stats.transport_errors;
        bucket.latencies_us.extend(stats.latencies_us);
    }
    let elapsed = started.elapsed().as_secs_f64();

    let rps = all.requests as f64 / elapsed;
    let goodput = all.latencies_us.len() as f64 / elapsed;
    println!("requests:          {:>10}", all.requests);
    println!("throughput:        {rps:>10.1} req/s");
    println!("goodput (2xx):     {goodput:>10.1} req/s");
    println!(
        "predictions:       {:>10.1} segments/s",
        goodput * segments_per_request as f64
    );
    println!(
        "latency (2xx):     p50 {} µs   p95 {} µs   p99 {} µs",
        percentile_us(&mut all.latencies_us, 50.0),
        percentile_us(&mut all.latencies_us, 95.0),
        percentile_us(&mut all.latencies_us, 99.0)
    );
    println!("shed (429):        {:>10}", all.shed);
    println!("non-2xx (other):   {:>10}", all.non_2xx);
    println!("transport errors:  {:>10}", all.transport_errors);

    // Keep-alive reuse: with an event-driven server every worker should
    // hold exactly one connection for the whole run.
    if !all.requests_per_conn.is_empty() {
        let min = all.requests_per_conn.iter().min().copied().unwrap_or(0);
        let max = all.requests_per_conn.iter().max().copied().unwrap_or(0);
        let mean =
            all.requests_per_conn.iter().sum::<u64>() as f64 / all.requests_per_conn.len() as f64;
        println!(
            "connections:       {:>10} opened   requests/conn min {min} mean {mean:.1} max {max}",
            all.requests_per_conn.len()
        );
    }

    // Final liveness probe over the parked herd: each survivor answered
    // twice on one connection, bracketing the whole run.
    let mut idle_died = 0usize;
    if args.idle > 0 {
        let alive = probe_idle_herd(&mut herd);
        idle_died = herd.conns.len() - alive + herd.open_failures;
        println!(
            "idle herd:         {:>10} alive after {:.1}s ({} died)",
            alive, elapsed, idle_died
        );
    }

    // Per-target split: an unbalanced or shedding member stands out.
    if args.targets.len() > 1 {
        println!("per-target:");
        for (target, stats) in per_target.iter_mut().enumerate() {
            println!(
                "  {:<24} goodput {:>8.1} req/s   shed {:>6}   non-2xx {:>4}   \
                 transport {:>4}   p95 {} µs",
                args.targets[target],
                stats.latencies_us.len() as f64 / elapsed,
                stats.shed,
                stats.non_2xx,
                stats.transport_errors,
                percentile_us(&mut stats.latencies_us, 95.0),
            );
        }
    }

    if all.requests == 0 || all.non_2xx > 0 || (all.shed > 0 && !args.allow_shed) {
        return ExitCode::FAILURE;
    }
    if args.require_idle_alive && idle_died > 0 {
        eprintln!("error: {idle_died} idle connections died (--require-idle-alive)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
