//! Serving-scheduler benchmark: the fixed size-or-delay batcher versus
//! the deadline-aware adaptive policy, on the real HTTP server and in
//! the `traj-sim` discrete-event model, with a sim-vs-real agreement
//! check.
//!
//! ```text
//! cargo run --release -p traj-bench --bin bench_serve -- [--smoke]
//!     [--clients N] [--duration-secs S] [--slo-ms MS]
//! ```
//!
//! Stages:
//! 1. Train a forest artifact and calibrate the batch service-time
//!    model `s(b) = α + β·b` from timed `predict_scaled_batch` flushes,
//!    plus per-request preprocessing cost from a single-client run.
//! 2. Drive the real server closed-loop (N keep-alive clients) under
//!    the fixed baseline and the adaptive scheduler.
//! 3. Replay both scenarios in `traj-sim` with the calibrated model.
//!
//! Writes `results/BENCH_serve.json`. Acceptance bars (full scale):
//! adaptive throughput ≥ 3× the fixed baseline while its p99 holds the
//! SLO, every request answered, and the sim's predicted p99 for the
//! fixed baseline within 25% of the measured value.

use serde::Serialize;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use traj_bench::{results_dir, Cli};
use traj_geo::Segment;
use traj_geolife::{SynthConfig, SynthDataset};
use traj_ml::RowMatrix;
use traj_net::client::request as client_request;
use traj_serve::artifact::{ModelArtifact, TrainSpec, MIN_SEGMENT_POINTS};
use traj_serve::batch::BatchConfig;
use traj_serve::registry::{LoadedModel, ModelRegistry};
use traj_serve::server::{serve, ServerConfig};
use traj_sim::{ArrivalProcess, SchedulerKind, ServiceModel, Sim, SimConfig};
use trajlib::report::save_json;

/// One measured closed-loop run against the real server.
#[derive(Debug, Serialize)]
struct RealRun {
    scheduler: &'static str,
    clients: usize,
    duration_s: f64,
    requests: u64,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    shed: u64,
    non_2xx: u64,
    /// Requests that never got an HTTP response (transport errors).
    /// The exactly-once contract demands zero.
    unanswered: u64,
}

/// The sim's prediction for the same scenario.
#[derive(Debug, Serialize)]
struct SimRun {
    scheduler: &'static str,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    shed: u64,
}

#[derive(Debug, Serialize)]
struct ServeBench {
    smoke: bool,
    clients: usize,
    slo_ms: u64,
    queue_cap: usize,
    /// Calibrated flush cost intercept, µs.
    alpha_us: f64,
    /// Calibrated per-row flush cost, µs.
    beta_us: f64,
    /// Calibrated per-request preprocessing (HTTP + featurize), µs.
    pre_us: f64,
    /// OS-scheduling jitter scale fed to the sim (98/2 mixture of
    /// Exp(m)/Exp(10m)), µs — calibrated from the adaptive run's tail.
    sched_jitter_us: f64,
    real_fixed: RealRun,
    real_adaptive: RealRun,
    sim_fixed: SimRun,
    sim_adaptive: SimRun,
    /// Measured adaptive-over-fixed throughput; the bar demands ≥ 3.
    speedup: f64,
    /// |sim p99 − real p99| / real p99 for the fixed baseline; ≤ 0.25.
    fixed_p99_agreement: f64,
}

/// Smallest admissible segment: keeps per-request cost low so the
/// closed loop saturates the scheduler, not JSON parsing.
fn pick_segment(segs: &[Segment]) -> &Segment {
    segs.iter()
        .filter(|s| s.len() >= MIN_SEGMENT_POINTS)
        .min_by_key(|s| s.len())
        .expect("synth cohort has admissible segments")
}

fn body_json(segment: &Segment) -> String {
    let points: Vec<String> = segment
        .points
        .iter()
        .map(|p| format!("{{\"lat\":{},\"lon\":{},\"t\":{}}}", p.lat, p.lon, p.t.0))
        .collect();
    format!("{{\"points\":[{}]}}", points.join(","))
}

/// Times `predict_scaled_batch` at each batch size and fits the affine
/// service model the adaptive scheduler (and the sim) consult.
fn calibrate_flush(model: &LoadedModel, row: &[f64]) -> Vec<(usize, f64)> {
    let mut samples = Vec::new();
    for &b in &[1usize, 2, 4, 8, 16, 32, 64, 128] {
        let mut rows = RowMatrix::with_width(row.len());
        for _ in 0..b {
            rows.push_row(row);
        }
        // Warm up, then time enough reps to dodge timer granularity.
        let _ = model.predict_scaled_batch(&rows).expect("predict");
        let reps = (256 / b).max(4);
        let started = Instant::now();
        for _ in 0..reps {
            let _ = model.predict_scaled_batch(&rows).expect("predict");
        }
        samples.push((b, started.elapsed().as_nanos() as f64 / reps as f64));
    }
    samples
}

/// Closed-loop drive: `clients` keep-alive connections, each issuing
/// its next request immediately after the previous response.
fn drive(
    scheduler: &'static str,
    batch: BatchConfig,
    registry: ModelRegistry,
    body: &str,
    clients: usize,
    duration: Duration,
) -> RealRun {
    let config = ServerConfig {
        // One connection per worker: measure the scheduler, not the
        // accept queue.
        workers: clients,
        batch,
        ..ServerConfig::default()
    };
    let mut handle = serve("127.0.0.1:0", registry, config).expect("bind");
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let body = body.to_owned();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let connect = || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).expect("nodelay");
                    BufReader::new(stream)
                };
                let mut latencies = Vec::new();
                let (mut shed, mut non_2xx, mut unanswered) = (0u64, 0u64, 0u64);
                let mut client = connect();
                while !stop.load(Ordering::Relaxed) {
                    let sent = Instant::now();
                    match client_request(&mut client, "POST", "/predict", Some(&body)) {
                        Ok((200, _)) => latencies.push(sent.elapsed().as_micros() as u64),
                        Ok((429, _)) => shed += 1,
                        Ok(_) => non_2xx += 1,
                        Err(_) => {
                            unanswered += 1;
                            client = connect();
                        }
                    }
                }
                (latencies, shed, non_2xx, unanswered)
            })
        })
        .collect();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);

    let mut latencies = Vec::new();
    let (mut shed, mut non_2xx, mut unanswered) = (0u64, 0u64, 0u64);
    for t in threads {
        let (l, s, n, u) = t.join().expect("client panicked");
        latencies.extend(l);
        shed += s;
        non_2xx += n;
        unanswered += u;
    }
    let elapsed = started.elapsed().as_secs_f64();
    handle.stop().expect("clean stop");

    let requests = latencies.len() as u64 + shed + non_2xx;
    RealRun {
        scheduler,
        clients,
        duration_s: elapsed,
        requests,
        throughput_rps: latencies.len() as f64 / elapsed,
        p50_us: traj_sim::percentile_us(&mut latencies, 50.0),
        p99_us: traj_sim::percentile_us(&mut latencies, 99.0),
        shed,
        non_2xx,
        unanswered,
    }
}

fn simulate(
    scheduler: SchedulerKind,
    service: ServiceModel,
    clients: usize,
    slo_us: u64,
    queue_cap: usize,
    duration_s: f64,
    sched_jitter_us: f64,
) -> SimRun {
    let report = Sim::new(SimConfig {
        arrival: ArrivalProcess::ClosedLoop {
            clients,
            // Client-side turnaround between response and next request;
            // small next to service times, so a constant suffices.
            think_us: 10,
        },
        scheduler,
        service,
        slo_us,
        queue_cap,
        workers: clients,
        cores: 1,
        duration_s,
        sched_jitter_us,
        ..SimConfig::default()
    })
    .run();
    SimRun {
        scheduler: report.scheduler,
        throughput_rps: report.overall.throughput_rps,
        p50_us: report.overall.p50_us,
        p99_us: report.overall.p99_us,
        shed: report.overall.shed,
    }
}

fn registry_with(artifact: &ModelArtifact) -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    registry.insert(artifact.clone()).expect("insert");
    registry
}

fn main() {
    let cli = Cli::from_env();
    let smoke = cli.small || cli.args.iter().any(|a| a == "--smoke");
    let arg_after = |key: &str| -> Option<u64> {
        cli.args
            .iter()
            .position(|a| a == key)
            .and_then(|i| cli.args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    let clients = arg_after("--clients").unwrap_or(4) as usize;
    let duration =
        Duration::from_secs(arg_after("--duration-secs").unwrap_or(if smoke { 1 } else { 5 }));
    let slo = Duration::from_millis(arg_after("--slo-ms").unwrap_or(50));
    let queue_cap = 1024usize;

    // --- Stage 1: artifact + service-time calibration. -----------------
    let segs = SynthDataset::generate(&SynthConfig {
        n_users: 5,
        segments_per_user: (5, 8),
        seed: cli.seed.unwrap_or(97),
        ..SynthConfig::default()
    })
    .segments;
    let spec = TrainSpec {
        top_k: Some(20),
        seed: 3,
        ..TrainSpec::paper_default("rf")
    };
    let artifact = ModelArtifact::train(&spec, &segs).expect("train");
    let body = body_json(pick_segment(&segs));

    let registry = registry_with(&artifact);
    let model = registry.get(None).expect("model");
    // Already projected + scaled: the exact row the batcher flushes.
    let row = model
        .features_of_points(&pick_segment(&segs).points)
        .expect("featurize");
    let samples = calibrate_flush(&model, &row);

    // --- Stage 2: real closed-loop runs. -------------------------------
    println!("bench_serve: calibration flushes done; driving real server");
    // The fixed run is the sim-agreement target: give its p99 twice the
    // samples so ambient machine noise doesn't dominate the tail.
    let real_fixed = drive(
        "fixed",
        BatchConfig {
            policy: SchedulerKind::FIXED_BASELINE,
            slo,
            queue_cap,
        },
        registry_with(&artifact),
        &body,
        clients,
        duration * 2,
    );
    println!(
        "  fixed:    {:>8.1} req/s   p50 {} µs   p99 {} µs",
        real_fixed.throughput_rps, real_fixed.p50_us, real_fixed.p99_us
    );
    let real_adaptive = drive(
        "adaptive",
        BatchConfig {
            policy: SchedulerKind::Adaptive { max_batch: 128 },
            slo,
            queue_cap,
        },
        registry_with(&artifact),
        &body,
        clients,
        duration,
    );
    println!(
        "  adaptive: {:>8.1} req/s   p50 {} µs   p99 {} µs",
        real_adaptive.throughput_rps, real_adaptive.p50_us, real_adaptive.p99_us
    );

    // Preprocessing cost per request (HTTP parse + featurize + scale +
    // response), from the adaptive run's critical path: each completed
    // request costs `1/throughput` seconds of the single core, of which
    // the flush itself explains `s(b)/b` per row.
    let service0 = ServiceModel::fit(&samples, 0.0);
    let per_request_ns = 1e9 / real_adaptive.throughput_rps.max(1.0);
    let mean_batch = (real_adaptive.throughput_rps * (service0.alpha_ns / 1e9)
        / (1.0 - real_adaptive.throughput_rps * service0.beta_ns / 1e9).max(0.05))
    .max(1.0);
    let flush_share_ns = service0.alpha_ns / mean_batch + service0.beta_ns;
    let pre_ns = (per_request_ns - flush_share_ns).max(5_000.0);
    let service = ServiceModel::fit(&samples, pre_ns);

    // --- Stage 3: the same scenarios in the simulator. -----------------
    // OS-scheduling jitter scale, calibrated from the *adaptive* run's
    // tail spread and then validated against the *fixed* run —
    // cross-scenario, so the fixed-p99 agreement check below is not
    // self-fulfilling. The sim's preemption model is a 98/2 mixture of
    // Exp(m) and Exp(10m); its p99 is set by the heavy component, about
    // 6.9m above the median, so m ≈ (p99 − p50)/6.9.
    // Capped so the recentering below never clamps: the jitter tax must
    // redistribute the calibrated mean (1.18m for the mixture), not
    // inflate it.
    let sched_jitter_us = ((real_adaptive.p99_us.saturating_sub(real_adaptive.p50_us)) as f64
        / 6.9)
        .min((service.pre_ns / 1_000.0 - 5.0) / 1.18)
        .max(0.0);
    // The jitter tax is strictly positive, and the calibrated `pre_ns`
    // already contains the *average* preemption cost — recenter so the
    // simulated mean stays at the measurement.
    let service = ServiceModel {
        pre_ns: service.pre_ns - 1.18 * sched_jitter_us * 1_000.0,
        ..service
    };
    let sim_duration = if smoke { 2.0 } else { 10.0 };
    let slo_us = slo.as_micros() as u64;
    let sim_fixed = simulate(
        SchedulerKind::FIXED_BASELINE,
        service,
        clients,
        slo_us,
        queue_cap,
        sim_duration,
        sched_jitter_us,
    );
    let sim_adaptive = simulate(
        SchedulerKind::Adaptive { max_batch: 128 },
        service,
        clients,
        slo_us,
        queue_cap,
        sim_duration,
        sched_jitter_us,
    );
    println!(
        "  sim:      fixed {:.1} req/s (p99 {} µs)   adaptive {:.1} req/s (p99 {} µs)",
        sim_fixed.throughput_rps,
        sim_fixed.p99_us,
        sim_adaptive.throughput_rps,
        sim_adaptive.p99_us
    );

    let speedup = real_adaptive.throughput_rps / real_fixed.throughput_rps.max(1.0);
    let fixed_p99_agreement = (sim_fixed.p99_us as f64 - real_fixed.p99_us as f64).abs()
        / (real_fixed.p99_us as f64).max(1.0);
    let result = ServeBench {
        smoke,
        clients,
        slo_ms: slo.as_millis() as u64,
        queue_cap,
        alpha_us: service.alpha_ns / 1_000.0,
        beta_us: service.beta_ns / 1_000.0,
        pre_us: pre_ns / 1_000.0,
        sched_jitter_us,
        real_fixed,
        real_adaptive,
        sim_fixed,
        sim_adaptive,
        speedup,
        fixed_p99_agreement,
    };
    println!(
        "  speedup {:.2}x   fixed-p99 sim-vs-real gap {:.1}%",
        result.speedup,
        result.fixed_p99_agreement * 100.0
    );

    if !smoke {
        assert_eq!(
            result.real_fixed.unanswered + result.real_adaptive.unanswered,
            0,
            "every request must receive an HTTP response"
        );
        assert_eq!(
            result.real_fixed.non_2xx + result.real_adaptive.non_2xx,
            0,
            "no request may fail outside the shed path"
        );
        assert!(
            result.speedup >= 3.0,
            "adaptive must beat the fixed baseline 3x, got {:.2}x",
            result.speedup
        );
        assert!(
            result.real_adaptive.p99_us <= slo_us,
            "adaptive p99 {} µs must hold the {} µs SLO",
            result.real_adaptive.p99_us,
            slo_us
        );
        assert!(
            result.fixed_p99_agreement <= 0.25,
            "sim fixed p99 must land within 25% of measured, gap {:.1}%",
            result.fixed_p99_agreement * 100.0
        );
    }

    save_json(&results_dir().join("BENCH_serve.json"), &result).expect("write results");
    println!("wrote {}", results_dir().join("BENCH_serve.json").display());
}
