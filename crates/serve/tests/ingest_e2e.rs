//! End-to-end streaming-ingestion tests: a trained Paper70 model behind
//! `POST /ingest`, fed per-user point chunks over HTTP. Covers gap and
//! flush closes, parity with the offline `/predict` answer for the same
//! points, the Paper70-only contract, idle sweeping, and the ingestion
//! section of `/metrics`. The `#[ignore]`d soak drives a bounded synth
//! slice through the endpoint and asserts zero non-2xx plus bounded
//! server-side session state — the CI stream-soak leg.

use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;
use traj_geo::Segment;
use traj_geolife::{SynthConfig, SynthDataset};
use traj_net::client::request as client_request;
use traj_serve::artifact::{ModelArtifact, TrainSpec, MIN_SEGMENT_POINTS};
use traj_serve::featurize::ServeFeatureSet;
use traj_serve::registry::ModelRegistry;
use traj_serve::server::{serve, ServerConfig, ServerHandle};

fn synth_segments(seed: u64) -> Vec<Segment> {
    SynthDataset::generate(&SynthConfig {
        n_users: 5,
        segments_per_user: (5, 8),
        seed,
        ..SynthConfig::default()
    })
    .segments
}

fn start_server(config: ServerConfig) -> (ServerHandle, Vec<Segment>) {
    let segs = synth_segments(97);
    let spec = TrainSpec {
        kind: traj_ml::ClassifierKind::DecisionTree,
        seed: 3,
        ..TrainSpec::paper_default("tree")
    };
    let artifact = ModelArtifact::train(&spec, &segs).expect("train");
    let mut registry = ModelRegistry::new();
    registry.insert(artifact).expect("insert");
    let handle = serve("127.0.0.1:0", registry, config).expect("bind ephemeral port");
    (handle, segs)
}

fn connect(handle: &ServerHandle) -> BufReader<TcpStream> {
    BufReader::new(TcpStream::connect(handle.addr()).expect("connect"))
}

fn points_json(points: &[traj_geo::TrajectoryPoint]) -> String {
    let dtos: Vec<String> = points
        .iter()
        .map(|p| format!("{{\"lat\":{},\"lon\":{},\"t\":{}}}", p.lat, p.lon, p.t.0))
        .collect();
    format!("[{}]", dtos.join(","))
}

fn label_of(body: &str) -> &str {
    let start = body.find("\"label\":\"").expect("label field") + 9;
    let end = body[start..].find('"').expect("label close") + start;
    &body[start..end]
}

#[test]
fn ingest_closes_segments_and_matches_predict() {
    let (mut handle, segs) = start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    let seg = segs
        .iter()
        .find(|s| s.len() >= MIN_SEGMENT_POINTS)
        .expect("long segment");

    // Stream the segment in two chunks: no close yet.
    let mid = seg.len() / 2;
    let request = format!(
        "{{\"user\":1,\"points\":{}}}",
        points_json(&seg.points[..mid])
    );
    let (status, body) = client_request(&mut client, "POST", "/ingest", Some(&request)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"predictions\":[]"), "{body}");

    // Second chunk with flush: exactly one prediction, bit-equal to the
    // batch answer for the same points via /predict.
    let request = format!(
        "{{\"user\":1,\"points\":{},\"flush\":true}}",
        points_json(&seg.points[mid..])
    );
    let (status, body) = client_request(&mut client, "POST", "/ingest", Some(&request)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.matches("\"reason\":").count(), 1, "{body}");
    assert!(body.contains("\"reason\":\"flush\""), "{body}");
    assert!(body.contains("\"exact\":true"), "{body}");
    assert!(
        body.contains(&format!("\"n_points\":{}", seg.len())),
        "{body}"
    );
    let streamed_label = label_of(&body).to_owned();

    let request = format!("{{\"points\":{}}}", points_json(&seg.points));
    let (status, batch_body) =
        client_request(&mut client, "POST", "/predict", Some(&request)).unwrap();
    assert_eq!(status, 200, "{batch_body}");
    assert_eq!(label_of(&batch_body), streamed_label, "{batch_body}");

    // A time gap inside one request closes the first segment and keeps
    // the tail open under a different user.
    let shifted: Vec<traj_geo::TrajectoryPoint> = seg
        .points
        .iter()
        .map(|p| {
            // +1 day, in the wire unit (milliseconds since the epoch).
            traj_geo::TrajectoryPoint::new(p.lat, p.lon, traj_geo::Timestamp(p.t.0 + 86_400_000))
        })
        .collect();
    let mut gapped = seg.points.clone();
    gapped.extend(shifted);
    let request = format!("{{\"user\":2,\"points\":{}}}", points_json(&gapped));
    let (status, body) = client_request(&mut client, "POST", "/ingest", Some(&request)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"reason\":\"gap\""), "{body}");
    assert!(
        body.contains(&format!("\"open_points\":{}", seg.len())),
        "{body}"
    );

    // Ingestion metrics reflect the traffic.
    let (status, body) = client_request(&mut client, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"ingest\": {"), "{body}");
    assert!(body.contains("\"open_sessions\": 1"), "{body}");
    assert!(!body.contains("\"points_total\": 0,"), "{body}");
    assert!(body.contains("\"exact_closes\": 2"), "{body}");

    handle.stop().expect("stop");
}

#[test]
fn ingest_rejects_non_paper70_models_and_bad_input() {
    let segs = synth_segments(31);
    let spec = TrainSpec {
        kind: traj_ml::ClassifierKind::DecisionTree,
        feature_set: ServeFeatureSet::Zheng11,
        seed: 5,
        ..TrainSpec::paper_default("zheng")
    };
    let artifact = ModelArtifact::train(&spec, &segs).expect("train");
    let mut registry = ModelRegistry::new();
    registry.insert(artifact).expect("insert");
    let mut handle = serve(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = connect(&handle);

    // The engine emits the canonical 70-feature row; a Zheng11 model
    // cannot consume it.
    let request = "{\"user\":1,\"points\":[{\"lat\":39.9,\"lon\":116.3,\"t\":0}]}";
    let (status, body) = client_request(&mut client, "POST", "/ingest", Some(request)).unwrap();
    assert_eq!(status, 409, "{body}");

    let (status, _) = client_request(&mut client, "POST", "/ingest", Some("{not json")).unwrap();
    assert_eq!(status, 400);
    let unknown = "{\"model\":\"nope\",\"user\":1,\"points\":[]}";
    let (status, _) = client_request(&mut client, "POST", "/ingest", Some(unknown)).unwrap();
    assert_eq!(status, 404);
    let (status, _) = client_request(&mut client, "GET", "/ingest", None).unwrap();
    assert_eq!(status, 405);

    handle.stop().expect("stop");
}

#[test]
fn idle_sweeper_closes_abandoned_sessions() {
    let (mut handle, segs) = start_server(ServerConfig {
        workers: 2,
        stream: traj_stream::StreamConfig {
            idle_timeout_s: 0,
            ..traj_stream::StreamConfig::default()
        },
        idle_sweep_interval: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    let seg = segs
        .iter()
        .find(|s| s.len() >= MIN_SEGMENT_POINTS)
        .expect("long segment");

    let request = format!("{{\"user\":9,\"points\":{}}}", points_json(&seg.points));
    let (status, body) = client_request(&mut client, "POST", "/ingest", Some(&request)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"predictions\":[]"), "{body}");

    // The sweeper (idle timeout 0) closes the abandoned session.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let (status, body) = client_request(&mut client, "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        if body.contains("\"open_sessions\": 0") && body.contains("\"segments_closed\": 1") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sweeper never closed the idle session: {body}"
        );
    }

    handle.stop().expect("stop");
}

/// Bounded soak: a synth slice streamed through `/ingest` chunk by
/// chunk. Gate: zero non-2xx, and server-side session state stays
/// bounded (the engine's own accounting, which the per-session
/// `exact_cap` caps at ~28 KiB per open session).
#[test]
#[ignore = "soak: run explicitly (CI stream-soak leg)"]
fn ingest_soak_bounded_state_zero_errors() {
    let (mut handle, _) = start_server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);

    let synth = SynthDataset::generate(&SynthConfig {
        n_users: 12,
        segments_per_user: (6, 9),
        seed: 4242,
        ..SynthConfig::default()
    });
    let mut non_2xx = 0u64;
    let mut requests = 0u64;
    let mut max_state_bytes = 0u64;
    for seg in &synth.segments {
        for chunk in seg.points.chunks(64) {
            let request = format!(
                "{{\"user\":{},\"points\":{}}}",
                seg.user,
                points_json(chunk)
            );
            let (status, _) =
                client_request(&mut client, "POST", "/ingest", Some(&request)).unwrap();
            requests += 1;
            if !(200..300).contains(&status) {
                non_2xx += 1;
            }
        }
    }
    assert!(requests > 100, "soak must generate real traffic");
    assert_eq!(non_2xx, 0);

    let (status, body) = client_request(&mut client, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let start = body.find("\"state_bytes\": ").expect("state_bytes") + 15;
    let end = body[start..].find(',').expect("delimiter") + start;
    let state_bytes: u64 = body[start..end].trim().parse().expect("number");
    max_state_bytes = max_state_bytes.max(state_bytes);
    // 12 users × ~28 KiB cap, with generous headroom for map overhead.
    assert!(
        max_state_bytes < 12 * 64 * 1024,
        "session state unbounded: {max_state_bytes} bytes"
    );

    handle.stop().expect("stop");
}
