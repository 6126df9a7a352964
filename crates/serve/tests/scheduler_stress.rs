//! Scheduler contract tests: the micro-batcher answers every admitted
//! job exactly once even when submitters race shutdown, and under
//! overload the server sheds (429) instead of letting queue wait blow
//! the latency of admitted requests past the deadline.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use traj_geo::Segment;
use traj_geolife::{SynthConfig, SynthDataset};
use traj_ml::compiled::PredictError;
use traj_net::client::request as client_request;
use traj_serve::artifact::{ModelArtifact, TrainSpec, MIN_SEGMENT_POINTS};
use traj_serve::batch::{BatchConfig, MicroBatcher};
use traj_serve::metrics::ServeMetrics;
use traj_serve::registry::{LoadedModel, ModelRegistry};
use traj_serve::server::{serve, ServerConfig};
use traj_sim::{Class, SchedulerKind};

fn synth_segments(seed: u64) -> Vec<Segment> {
    SynthDataset::generate(&SynthConfig {
        n_users: 4,
        segments_per_user: (4, 6),
        seed,
        ..SynthConfig::default()
    })
    .segments
}

fn loaded_model() -> Arc<LoadedModel> {
    let spec = TrainSpec {
        kind: traj_ml::ClassifierKind::DecisionTree,
        ..TrainSpec::paper_default("stress")
    };
    let mut reg = ModelRegistry::new();
    reg.insert(ModelArtifact::train(&spec, &synth_segments(13)).unwrap())
        .unwrap();
    reg.get(None).unwrap()
}

/// Many threads hammer `submit` while the batcher is dropped out from
/// under them. The contract: every call either (a) sheds synchronously,
/// or (b) returns a channel that delivers exactly one reply — a
/// prediction or a typed `ShuttingDown` error. No reply may ever be a
/// silent channel drop, and none may hang.
#[test]
fn every_admitted_job_is_answered_exactly_once_under_shutdown_races() {
    const THREADS: usize = 8;
    const JOBS_PER_THREAD: usize = 300;

    let model = loaded_model();
    let n_features = model.artifact.feature_names.len();
    let metrics = Arc::new(ServeMetrics::new(&["stress".to_owned()]));
    let batcher = Arc::new(MicroBatcher::new(
        BatchConfig {
            policy: SchedulerKind::Adaptive { max_batch: 16 },
            queue_cap: 64,
            ..BatchConfig::default()
        },
        Arc::clone(&metrics),
    ));

    let predicted = Arc::new(AtomicU64::new(0));
    let shut_down = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let batcher = Arc::clone(&batcher);
            let model = Arc::clone(&model);
            let (predicted, shut_down, shed, dropped) = (
                Arc::clone(&predicted),
                Arc::clone(&shut_down),
                Arc::clone(&shed),
                Arc::clone(&dropped),
            );
            std::thread::spawn(move || {
                for i in 0..JOBS_PER_THREAD {
                    let row = vec![(t * JOBS_PER_THREAD + i) as f64 * 1e-3; n_features];
                    match batcher.submit(Arc::clone(&model), row, Class::Interactive) {
                        Err(_) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(rx) => match rx.recv_timeout(Duration::from_secs(10)) {
                            Ok(Ok(_)) => {
                                predicted.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(Err(PredictError::ShuttingDown)) => {
                                shut_down.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(Err(other)) => panic!("unexpected predict error: {other}"),
                            // Disconnected or timed out: a job went
                            // unanswered — the bug this test exists for.
                            Err(_) => {
                                dropped.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                    }
                }
            })
        })
        .collect();

    // Pull the rug mid-flight: shutdown drains the queues with typed
    // errors while submitters are still pushing.
    std::thread::sleep(Duration::from_millis(30));
    batcher.shutdown();

    for handle in handles {
        handle.join().expect("submitter panicked");
    }

    let total = (THREADS * JOBS_PER_THREAD) as u64;
    let answered = predicted.load(Ordering::Relaxed)
        + shut_down.load(Ordering::Relaxed)
        + shed.load(Ordering::Relaxed);
    assert_eq!(
        dropped.load(Ordering::Relaxed),
        0,
        "every admitted job must get a reply, never a dropped channel"
    );
    assert_eq!(
        answered, total,
        "each of the {total} submissions answered exactly once"
    );
    assert!(
        predicted.load(Ordering::Relaxed) > 0,
        "some jobs should complete before shutdown"
    );
}

/// Dropping the batcher while jobs are queued answers them all with
/// `ShuttingDown` rather than leaving receivers hanging.
#[test]
fn shutdown_drains_queued_jobs_with_typed_errors() {
    let model = loaded_model();
    let n_features = model.artifact.feature_names.len();
    let metrics = Arc::new(ServeMetrics::new(&["stress".to_owned()]));
    let batcher = MicroBatcher::new(
        BatchConfig {
            // A fixed policy with a long delay keeps jobs parked in the
            // queue long enough for shutdown to catch them.
            policy: SchedulerKind::Fixed {
                max_batch: 64,
                max_delay_us: 5_000_000,
            },
            ..BatchConfig::default()
        },
        metrics,
    );
    let receivers: Vec<_> = (0..16)
        .map(|i| {
            batcher
                .submit(
                    Arc::clone(&model),
                    vec![i as f64 * 0.01; n_features],
                    Class::Bulk,
                )
                .expect("admitted")
        })
        .collect();
    drop(batcher);
    for rx in receivers {
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Ok(_)) | Ok(Err(PredictError::ShuttingDown)) => {}
            other => panic!("expected prediction or ShuttingDown, got {other:?}"),
        }
    }
}

/// Overload e2e: with a tiny admission queue, concurrent clients see
/// 429s — and because excess load is rejected at the door, the latency
/// of the requests that *are* admitted stays within the SLO instead of
/// growing with the backlog.
#[test]
fn overload_sheds_with_429_before_latency_blows_the_deadline() {
    let segs = synth_segments(97);
    let spec = TrainSpec {
        top_k: Some(20),
        seed: 3,
        ..TrainSpec::paper_default("rf")
    };
    let artifact = ModelArtifact::train(&spec, &segs).expect("train");
    let mut registry = ModelRegistry::new();
    registry.insert(artifact).expect("insert");
    let slo = Duration::from_millis(250);
    let config = ServerConfig {
        // One worker per client connection: this test measures scheduler
        // queueing, not accept-queue waits behind a small thread pool.
        workers: 8,
        batch: BatchConfig {
            // The fixed policy parks jobs for up to `max_delay`, which
            // builds a standing backlog deterministically — single-row
            // tree predictions are otherwise too fast for the adaptive
            // scheduler to ever leave a queue behind in a test.
            policy: SchedulerKind::Fixed {
                max_batch: 64,
                max_delay_us: 50_000,
            },
            slo,
            // Interactive cap 2: with 8 clients in flight the queue is
            // over capacity almost immediately.
            queue_cap: 2,
        },
        ..ServerConfig::default()
    };
    let mut handle = serve("127.0.0.1:0", registry, config).expect("bind");
    let addr = handle.addr();

    let long: Vec<&Segment> = segs
        .iter()
        .filter(|s| s.len() >= MIN_SEGMENT_POINTS)
        .collect();
    let body = {
        let points: Vec<String> = long[0]
            .points
            .iter()
            .map(|p| format!("{{\"lat\":{},\"lon\":{},\"t\":{}}}", p.lat, p.lon, p.t.0))
            .collect();
        format!("{{\"points\":[{}]}}", points.join(","))
    };

    let shed = Arc::new(AtomicU64::new(0));
    let ok = Arc::new(AtomicU64::new(0));
    let worst_ok_us = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let body = body.clone();
            let (shed, ok, worst) = (Arc::clone(&shed), Arc::clone(&ok), Arc::clone(&worst_ok_us));
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                let mut client = BufReader::new(stream);
                for _ in 0..40 {
                    let started = Instant::now();
                    let (status, body) =
                        client_request(&mut client, "POST", "/predict", Some(&body))
                            .expect("request");
                    match status {
                        200 => {
                            ok.fetch_add(1, Ordering::Relaxed);
                            worst
                                .fetch_max(started.elapsed().as_micros() as u64, Ordering::Relaxed);
                        }
                        429 => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected status {other}: {body}"),
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client panicked");
    }

    assert!(ok.load(Ordering::Relaxed) > 0, "some requests must succeed");
    assert!(
        shed.load(Ordering::Relaxed) > 0,
        "an interactive cap of 2 with 8 clients must shed"
    );
    // Admitted requests never sat behind an unbounded backlog: worst-case
    // end-to-end latency stays within the SLO (generous margin for a
    // loaded CI machine).
    let worst = Duration::from_micros(worst_ok_us.load(Ordering::Relaxed));
    assert!(
        worst < slo * 4,
        "admitted latency {worst:?} should stay near the {slo:?} SLO"
    );

    // The shed shows up in /metrics as interactive sheds, and the
    // response carried a drain estimate.
    let mut client = BufReader::new(TcpStream::connect(addr).expect("connect"));
    let (status, metrics_body) =
        client_request(&mut client, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    assert!(
        !metrics_body.contains("\"shed_interactive\": 0,"),
        "metrics must count the interactive sheds: {metrics_body}"
    );
    handle.stop().expect("clean stop");
}
