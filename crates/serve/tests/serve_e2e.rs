//! End-to-end serving test: train a real artifact on the synthetic
//! GeoLife cohort, bind a server on an ephemeral port, and drive the full
//! HTTP surface — happy-path predictions, batch predictions, the error
//! responses the API contracts (400/404/413/422), and the metrics
//! endpoint reflecting all of it.

use std::io::BufReader;
use std::net::TcpStream;
use traj_geo::{LabelScheme, Segment};
use traj_geolife::{SynthConfig, SynthDataset};
use traj_net::client::request as client_request;
use traj_serve::artifact::{ModelArtifact, TrainSpec, MIN_SEGMENT_POINTS};
use traj_serve::registry::ModelRegistry;
use traj_serve::server::{serve, ServerConfig, ServerHandle};

/// Trains a small random forest on synthetic segments and serves it.
fn start_server() -> (ServerHandle, Vec<Segment>) {
    let segs = SynthDataset::generate(&SynthConfig {
        n_users: 5,
        segments_per_user: (5, 8),
        seed: 97,
        ..SynthConfig::default()
    })
    .segments;
    let spec = TrainSpec {
        top_k: Some(20),
        seed: 3,
        ..TrainSpec::paper_default("rf")
    };
    let artifact = ModelArtifact::train(&spec, &segs).expect("train");
    let mut registry = ModelRegistry::new();
    registry.insert(artifact).expect("insert");
    let config = ServerConfig {
        workers: 2,
        max_body_bytes: 64 * 1024,
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", registry, config).expect("bind ephemeral port");
    (handle, segs)
}

fn connect(handle: &ServerHandle) -> BufReader<TcpStream> {
    BufReader::new(TcpStream::connect(handle.addr()).expect("connect"))
}

/// Walks a path of map keys in a parsed metrics document and returns the
/// integer counter at the end.
fn counter(value: &serde::Value, path: &[&str]) -> u64 {
    let mut node = value;
    for key in path {
        let serde::Value::Map(entries) = node else {
            panic!("expected a map at {key:?}");
        };
        node = serde::map_get(entries, key).unwrap_or_else(|| panic!("missing key {key:?}"));
    }
    match node {
        serde::Value::Int(n) => u64::try_from(*n).expect("non-negative counter"),
        serde::Value::UInt(n) => *n,
        serde::Value::Float(f) => *f as u64,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn points_json(segment: &Segment) -> String {
    let points: Vec<String> = segment
        .points
        .iter()
        .map(|p| format!("{{\"lat\":{},\"lon\":{},\"t\":{}}}", p.lat, p.lon, p.t.0))
        .collect();
    format!("[{}]", points.join(","))
}

#[test]
fn full_surface_end_to_end() {
    let (mut handle, segs) = start_server();
    let mut client = connect(&handle);
    let long: Vec<&Segment> = segs
        .iter()
        .filter(|s| s.len() >= MIN_SEGMENT_POINTS)
        .collect();
    assert!(long.len() >= 2, "synth cohort must have long segments");

    // Liveness names the loaded model.
    let (status, body) = client_request(&mut client, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"rf\""), "{body}");

    // Happy path: raw GPS points come back as a label with a score
    // distribution over the scheme's classes.
    let request = format!("{{\"points\":{}}}", points_json(long[0]));
    let (status, body) = client_request(&mut client, "POST", "/predict", Some(&request)).unwrap();
    assert_eq!(status, 200, "{body}");
    let names = LabelScheme::Dabiri.class_names();
    assert!(
        names
            .iter()
            .any(|n| body.contains(&format!("\"label\":\"{n}\""))),
        "label must be a Dabiri class name: {body}"
    );
    assert!(body.contains("\"scores\":["), "{body}");

    // Pinned-version addressing works.
    let pinned = format!(
        "{{\"model\":\"rf@v1\",\"points\":{}}}",
        points_json(long[0])
    );
    let (status, _) = client_request(&mut client, "POST", "/predict", Some(&pinned)).unwrap();
    assert_eq!(status, 200);

    // Batch path: two segments in, two labeled results out.
    let batch = format!(
        "{{\"segments\":[{},{}]}}",
        points_json(long[0]),
        points_json(long[1])
    );
    let (status, body) =
        client_request(&mut client, "POST", "/predict_batch", Some(&batch)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.matches("\"label\":").count(), 2, "{body}");

    // Contracted error responses.
    let (status, _) = client_request(&mut client, "POST", "/predict", Some("{not json")).unwrap();
    assert_eq!(status, 400);
    let unknown = format!("{{\"model\":\"nope\",\"points\":{}}}", points_json(long[0]));
    let (status, _) = client_request(&mut client, "POST", "/predict", Some(&unknown)).unwrap();
    assert_eq!(status, 404);
    let short = "{\"points\":[{\"lat\":1.0,\"lon\":1.0,\"t\":0}]}";
    let (status, _) = client_request(&mut client, "POST", "/predict", Some(short)).unwrap();
    assert_eq!(status, 422);
    let (status, _) = client_request(&mut client, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = client_request(&mut client, "GET", "/predict", None).unwrap();
    assert_eq!(status, 405);

    // Oversized body → 413, after which the server closes the connection;
    // use a dedicated connection so the keep-alive client above survives.
    let mut fat_client = connect(&handle);
    let fat = format!(
        "{{\"points\":[{}]}}",
        "{\"lat\":1.0,\"lon\":1.0,\"t\":0},".repeat(4000)
    );
    let (status, _) = client_request(&mut fat_client, "POST", "/predict", Some(&fat)).unwrap();
    assert_eq!(status, 413);

    // Metrics saw everything: successes, client errors, latency samples
    // and per-model prediction counts, but no server errors.
    let (status, body) = client_request(&mut client, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"responses_5xx\": 0"), "{body}");
    assert!(!body.contains("\"requests_total\": 0"), "{body}");
    let metrics: serde::Value = serde_json::from_str(&body).expect("metrics is JSON");
    // healthz + predict + pinned predict + batch; the /metrics response
    // itself is counted only after the snapshot is rendered.
    assert!(counter(&metrics, &["responses_2xx"]) >= 4);
    assert!(counter(&metrics, &["responses_4xx"]) >= 4);
    assert!(counter(&metrics, &["latency_us", "count"]) >= counter(&metrics, &["responses_2xx"]));
    assert!(counter(&metrics, &["batch_size", "count"]) >= 1);
    assert!(counter(&metrics, &["predictions_per_model", "rf"]) >= 4);

    handle.stop().expect("stop");
}

#[test]
fn concurrent_clients_are_all_served() {
    let (mut handle, segs) = start_server();
    let seg = segs
        .iter()
        .find(|s| s.len() >= MIN_SEGMENT_POINTS)
        .expect("long segment");
    let request = format!("{{\"points\":{}}}", points_json(seg));

    let addr = handle.addr();
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let request = request.clone();
            std::thread::spawn(move || {
                let mut client = BufReader::new(TcpStream::connect(addr).expect("connect"));
                for _ in 0..25 {
                    let (status, body) =
                        client_request(&mut client, "POST", "/predict", Some(&request))
                            .expect("request");
                    assert_eq!(status, 200, "{body}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    let mut client = connect(&handle);
    let (_, body) = client_request(&mut client, "GET", "/metrics", None).unwrap();
    assert!(body.contains("\"responses_5xx\": 0"), "{body}");
    let metrics: serde::Value = serde_json::from_str(&body).unwrap();
    assert!(counter(&metrics, &["responses_2xx"]) >= 100);

    handle.stop().expect("stop");
}
