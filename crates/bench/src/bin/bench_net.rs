//! Event-driven I/O benchmark: does a herd of idle keep-alive
//! connections cost worker threads or active-path latency?
//!
//! ```text
//! cargo run --release -p traj-bench --bin bench_net -- [--smoke]
//!     [--idle N] [--active N] [--duration-ms MS]
//! ```
//!
//! Starts an in-process `traj-serve` instance (reactor + small worker
//! pool), measures an 8-connection `/predict` baseline, then parks
//! `--idle` keep-alive connections (default 1024; `--smoke` 128) and
//! re-runs the same active load through the middle of the herd.
//!
//! Writes `results/BENCH_net.json`. Bars:
//! - the process grows by O(1) threads while the herd opens — open
//!   connections must not become threads (enforced everywhere);
//! - active p99 with the herd parked stays within 1.5× of the baseline
//!   (enforced on machines with ≥ 4 cores; recorded elsewhere);
//! - every parked connection still answers after the active load
//!   (keep-alive survival, enforced everywhere).

use serde::Serialize;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use traj_bench::{results_dir, Cli};
use traj_geolife::{SynthConfig, SynthDataset};
use traj_net::client::request as client_request;
use traj_serve::artifact::{ModelArtifact, TrainSpec};
use traj_serve::registry::ModelRegistry;
use traj_serve::server::{serve, ServerConfig, ServerHandle};
use traj_sim::percentile_us;
use trajlib::report::save_json;

#[derive(Debug, Serialize)]
struct ActiveRun {
    connections: usize,
    requests: u64,
    non_2xx: u64,
    duration_s: f64,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
}

#[derive(Debug, Serialize)]
struct Bars {
    /// Whether the latency bar applies on this machine (≥ 4 cores).
    latency_bar_applies: bool,
    p99_ratio: f64,
    p99_within_1_5x: bool,
    /// Threads the process gained while the idle herd opened.
    thread_delta_during_idle_open: i64,
    threads_stay_o_workers: bool,
    idle_survivors: usize,
    all_idle_survived: bool,
}

#[derive(Debug, Serialize)]
struct Results {
    smoke: bool,
    cores: usize,
    workers: usize,
    idle_connections: usize,
    threads_before_idle: usize,
    threads_with_idle: usize,
    baseline: ActiveRun,
    with_idle_herd: ActiveRun,
    bars: Bars,
}

/// Threads in this process right now (`/proc/self/task` entries);
/// falls back to 0 where procfs is absent, disabling the thread bar.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

fn predict_body(segments: &[traj_geo::Segment]) -> String {
    let seg = segments.iter().find(|s| s.len() >= 10).expect("segment");
    let points: Vec<String> = seg
        .points
        .iter()
        .map(|p| format!("{{\"lat\":{},\"lon\":{},\"t\":{}}}", p.lat, p.lon, p.t.0))
        .collect();
    format!("{{\"points\":[{}]}}", points.join(","))
}

/// Runs `connections` closed-loop clients against `/predict` for
/// `duration`; returns the aggregated run.
fn active_load(
    handle: &ServerHandle,
    connections: usize,
    duration: Duration,
    body: &str,
) -> ActiveRun {
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let mut latencies: Vec<u64> = Vec::new();
    let mut requests = 0u64;
    let mut non_2xx = 0u64;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                let stop = &stop;
                scope.spawn(move || {
                    let stream = TcpStream::connect(handle.addr()).expect("connect");
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                    let mut client = BufReader::new(stream);
                    let mut lat = Vec::new();
                    let mut reqs = 0u64;
                    let mut bad = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let t0 = Instant::now();
                        match client_request(&mut client, "POST", "/predict", Some(body)) {
                            Ok((status, _)) => {
                                reqs += 1;
                                if (200..300).contains(&status) {
                                    lat.push(t0.elapsed().as_micros() as u64);
                                } else {
                                    bad += 1;
                                }
                            }
                            Err(e) => panic!("active request failed: {e}"),
                        }
                    }
                    (lat, reqs, bad)
                })
            })
            .collect();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        for worker in workers {
            let (lat, reqs, bad) = worker.join().expect("active worker");
            latencies.extend(lat);
            requests += reqs;
            non_2xx += bad;
        }
    });
    let duration_s = started.elapsed().as_secs_f64();
    ActiveRun {
        connections,
        requests,
        non_2xx,
        duration_s,
        throughput_rps: requests as f64 / duration_s.max(1e-9),
        p50_us: percentile_us(&mut latencies, 50.0),
        p99_us: percentile_us(&mut latencies, 99.0),
    }
}

fn main() {
    let cli = Cli::from_env();
    let smoke = cli.small || cli.args.iter().any(|a| a == "--smoke");
    let arg_after = |flag: &str| -> Option<usize> {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let idle_n = arg_after("--idle").unwrap_or(if smoke { 128 } else { 1024 });
    let active_n = arg_after("--active").unwrap_or(8);
    let duration =
        Duration::from_millis(
            arg_after("--duration-ms").unwrap_or(if smoke { 1500 } else { 4000 }) as u64,
        );
    let workers = cores.clamp(1, 4);

    eprintln!(
        "bench_net: {idle_n} idle conns, {active_n} active conns × {:.1}s legs, \
         {workers} workers, {cores} cores",
        duration.as_secs_f64()
    );

    let segments = SynthDataset::generate(&SynthConfig {
        n_users: 3,
        segments_per_user: (3, 4),
        seed: 97,
        ..SynthConfig::default()
    })
    .segments;
    let spec = TrainSpec {
        kind: traj_ml::ClassifierKind::DecisionTree,
        ..TrainSpec::paper_default("tree")
    };
    let mut registry = ModelRegistry::new();
    registry
        .insert(ModelArtifact::train(&spec, &segments).expect("train"))
        .expect("insert");
    let body = predict_body(&segments);

    let handle = serve(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            workers,
            // The herd must outlive both legs untouched by the reaper.
            read_timeout: Duration::from_secs(600),
            max_connections: idle_n + active_n + 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    // Leg 1: the baseline — active connections only.
    let baseline = active_load(&handle, active_n, duration, &body);
    eprintln!(
        "baseline:  {:.0} req/s, p50 {} µs, p99 {} µs, {} non-2xx",
        baseline.throughput_rps, baseline.p50_us, baseline.p99_us, baseline.non_2xx
    );

    // Leg 2: park the herd (each proves itself with one probe), then
    // re-run the same active load straight through the middle of it.
    let threads_before_idle = thread_count();
    let mut herd = Vec::with_capacity(idle_n);
    for _ in 0..idle_n {
        let stream = TcpStream::connect(handle.addr()).expect("connect idle");
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let mut conn = BufReader::new(stream);
        let (status, _) = client_request(&mut conn, "GET", "/healthz", None).expect("idle probe");
        assert_eq!(status, 200);
        herd.push(conn);
    }
    let threads_with_idle = thread_count();
    let thread_delta = threads_with_idle as i64 - threads_before_idle as i64;
    eprintln!(
        "idle herd: {} parked; process threads {} -> {} (delta {thread_delta})",
        herd.len(),
        threads_before_idle,
        threads_with_idle
    );

    let with_idle = active_load(&handle, active_n, duration, &body);
    eprintln!(
        "with herd: {:.0} req/s, p50 {} µs, p99 {} µs, {} non-2xx",
        with_idle.throughput_rps, with_idle.p50_us, with_idle.p99_us, with_idle.non_2xx
    );

    // Every parked connection must still answer on the same socket.
    let mut idle_survivors = 0usize;
    for conn in &mut herd {
        if matches!(
            client_request(conn, "GET", "/healthz", None),
            Ok((status, _)) if (200..300).contains(&status)
        ) {
            idle_survivors += 1;
        }
    }

    let p99_ratio = with_idle.p99_us as f64 / (baseline.p99_us as f64).max(1.0);
    let latency_bar_applies = cores >= 4;
    // Opening N connections may not add Θ(N) threads; a few is noise
    // (the runtime's sweepers, a late-started worker), N/10 is a leak.
    let thread_slack = 4 + (idle_n as i64) / 10;
    let bars = Bars {
        latency_bar_applies,
        p99_ratio,
        p99_within_1_5x: !latency_bar_applies || p99_ratio <= 1.5,
        thread_delta_during_idle_open: thread_delta,
        threads_stay_o_workers: thread_delta <= thread_slack,
        idle_survivors,
        all_idle_survived: idle_survivors == herd.len(),
    };
    let pass = bars.p99_within_1_5x
        && bars.threads_stay_o_workers
        && bars.all_idle_survived
        && baseline.non_2xx == 0
        && with_idle.non_2xx == 0;
    let results = Results {
        smoke,
        cores,
        workers,
        idle_connections: idle_n,
        threads_before_idle,
        threads_with_idle,
        baseline,
        with_idle_herd: with_idle,
        bars,
    };
    save_json(&results_dir().join("BENCH_net.json"), &results).expect("write results");
    eprintln!(
        "p99 ratio {p99_ratio:.2}× (bar {}), thread delta {thread_delta}, \
         idle survivors {idle_survivors}/{idle_n} -> results/BENCH_net.json",
        if latency_bar_applies {
            "applies"
        } else {
            "recorded only: < 4 cores"
        }
    );
    assert!(pass, "net acceptance bars failed: {results:?}");
}
