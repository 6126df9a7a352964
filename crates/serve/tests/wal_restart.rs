//! Durable-ingest restart test: points streamed into a WAL-backed
//! server survive a full stop/start cycle. The first server ingests
//! half a segment and stops (final sync + snapshot); a second server
//! over the same durability directory recovers the open session, and
//! flushing the remaining half yields one prediction spanning *all*
//! points — bit-equal to the offline `/predict` answer for the same
//! segment, proving the recovered summaries are exact.

use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use traj_geo::Segment;
use traj_geolife::{SynthConfig, SynthDataset};
use traj_net::client::request as client_request;
use traj_serve::artifact::{ModelArtifact, TrainSpec, MIN_SEGMENT_POINTS};
use traj_serve::registry::ModelRegistry;
use traj_serve::server::{serve, DurabilityConfig, ServerConfig, ServerHandle};

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("traj-wal-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_durable_server(dir: &std::path::Path, segs: &[Segment]) -> ServerHandle {
    let spec = TrainSpec {
        kind: traj_ml::ClassifierKind::DecisionTree,
        seed: 3,
        ..TrainSpec::paper_default("tree")
    };
    let artifact = ModelArtifact::train(&spec, segs).expect("train");
    let mut registry = ModelRegistry::new();
    registry.insert(artifact).expect("insert");
    let config = ServerConfig {
        workers: 2,
        durability: Some(DurabilityConfig::new(dir)),
        ..ServerConfig::default()
    };
    serve("127.0.0.1:0", registry, config).expect("bind ephemeral port")
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
fn durable_session_survives_server_restart() {
    let dir = temp_dir();
    let segs = SynthDataset::generate(&SynthConfig {
        n_users: 5,
        segments_per_user: (5, 8),
        seed: 97,
        ..SynthConfig::default()
    })
    .segments;
    let seg = segs
        .iter()
        .find(|s| s.len() >= MIN_SEGMENT_POINTS)
        .expect("long segment")
        .clone();
    let mid = seg.len() / 2;

    // First server: ingest the first half, no flush, stop.
    {
        let mut handle = start_durable_server(&dir, &segs);
        let mut client = connect(&handle);
        let request = format!(
            "{{\"user\":1,\"points\":{}}}",
            points_json(&seg.points[..mid])
        );
        let (status, body) =
            client_request(&mut client, "POST", "/ingest", Some(&request)).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"predictions\":[]"), "{body}");

        let (status, body) = client_request(&mut client, "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"durability\": {"), "{body}");
        assert!(body.contains("\"enabled\": true"), "{body}");
        assert!(!body.contains("\"appended_records\": 0,"), "{body}");

        handle.stop().expect("durable stop");
    }

    // Second server over the same directory: the session is back.
    let mut handle = start_durable_server(&dir, &segs);
    let mut client = connect(&handle);

    let (status, body) = client_request(&mut client, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"recovery\": {\"sessions\": 1,"), "{body}");

    // Flushing the second half closes one segment covering ALL points,
    // and its label matches the offline answer for the full segment.
    let request = format!(
        "{{\"user\":1,\"points\":{},\"flush\":true}}",
        points_json(&seg.points[mid..])
    );
    let (status, body) = client_request(&mut client, "POST", "/ingest", Some(&request)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.matches("\"reason\":").count(), 1, "{body}");
    assert!(
        body.contains(&format!("\"n_points\":{}", seg.len())),
        "{body}"
    );
    assert!(body.contains("\"exact\":true"), "{body}");
    let streamed_label = label_of(&body).to_owned();

    let request = format!("{{\"points\":{}}}", points_json(&seg.points));
    let (status, batch_body) =
        client_request(&mut client, "POST", "/predict", Some(&request)).unwrap();
    assert_eq!(status, 200, "{batch_body}");
    assert_eq!(label_of(&batch_body), streamed_label, "{batch_body}");

    handle.stop().expect("stop");
    std::fs::remove_dir_all(&dir).ok();
}
