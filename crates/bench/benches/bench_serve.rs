//! Benchmarks of the serving stack's hot path: raw GPS points →
//! featurise → scale → predict, plus a live end-to-end HTTP round trip.
//! These bound the per-request cost the load generator measures from the
//! outside.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::io::BufReader;
use std::net::TcpStream;
use traj_geo::Segment;
use traj_geolife::{SynthConfig, SynthDataset};
use traj_ml::ClassifierKind;
use traj_net::client::request as client_request;
use traj_serve::artifact::{ModelArtifact, TrainSpec, MIN_SEGMENT_POINTS};
use traj_serve::registry::{LoadedModel, ModelRegistry};
use traj_serve::server::{serve, ServerConfig};

fn trained(kind: ClassifierKind, segments: &[Segment]) -> LoadedModel {
    let spec = TrainSpec {
        kind,
        top_k: Some(20),
        seed: 7,
        ..TrainSpec::paper_default("bench")
    };
    LoadedModel::new(ModelArtifact::train(&spec, segments).expect("train")).expect("load")
}

fn bench_serve(c: &mut Criterion) {
    let segments = SynthDataset::generate(&SynthConfig {
        n_users: 5,
        segments_per_user: (6, 9),
        seed: 13,
        ..SynthConfig::default()
    })
    .segments;
    let probe = segments
        .iter()
        .find(|s| s.len() >= MIN_SEGMENT_POINTS)
        .expect("long segment")
        .clone();

    let mut group = c.benchmark_group("serve");
    group.sample_size(20);

    // In-process pipeline, split into its two halves: featurise+scale
    // (model-independent) and the full points→prediction path per model.
    let rf = trained(ClassifierKind::RandomForest, &segments);
    group.bench_function("featurize_and_scale/70f_top20", |b| {
        b.iter(|| {
            rf.features_of_points(black_box(&probe.points))
                .expect("features")
        })
    });
    for kind in [ClassifierKind::RandomForest, ClassifierKind::DecisionTree] {
        let model = trained(kind, &segments);
        group.bench_function(format!("predict_points/{kind}"), |b| {
            b.iter(|| {
                model
                    .predict_points(black_box(&probe.points))
                    .expect("predict")
            })
        });
    }

    // End to end over loopback HTTP: one keep-alive client, one request
    // per iteration. Dominated by the same pipeline plus framing + JSON.
    let spec = TrainSpec {
        top_k: Some(20),
        seed: 7,
        ..TrainSpec::paper_default("rf")
    };
    let mut registry = ModelRegistry::new();
    registry
        .insert(ModelArtifact::train(&spec, &segments).expect("train"))
        .expect("insert");
    let mut handle = serve(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let points: Vec<String> = probe
        .points
        .iter()
        .map(|p| format!("{{\"lat\":{},\"lon\":{},\"t\":{}}}", p.lat, p.lon, p.t.0))
        .collect();
    let body = format!("{{\"points\":[{}]}}", points.join(","));
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    // Without TCP_NODELAY the request write stalls on delayed ACKs
    // (~40 ms/iter), swamping the server cost being measured.
    stream.set_nodelay(true).expect("nodelay");
    let mut client = BufReader::new(stream);
    group.bench_function("http_round_trip/predict", |b| {
        b.iter(|| {
            let (status, body) =
                client_request(&mut client, "POST", "/predict", Some(black_box(&body)))
                    .expect("request");
            assert_eq!(status, 200);
            body
        })
    });
    group.finish();
    drop(client);
    handle.stop().expect("stop");
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
