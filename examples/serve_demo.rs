//! Serving demo: train a model artifact, stand up the inference server
//! in-process, and query it over real HTTP — the full train-offline /
//! serve-online loop of `trajlib-cli train-artifact` + `trajlib-cli
//! serve`, compressed into one program.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```

use std::io::BufReader;
use std::net::TcpStream;
use traj_net::client::request as client_request;
use traj_serve::artifact::{ModelArtifact, TrainSpec, MIN_SEGMENT_POINTS};
use traj_serve::registry::ModelRegistry;
use traj_serve::server::{serve, ServerConfig};
use trajlib::prelude::*;

fn main() {
    // 1. "Offline": train an artifact on a synthetic GeoLife cohort.
    //    Unlike the CSV-centric Pipeline, the artifact keeps everything a
    //    server needs to score raw GPS points: the selected feature names,
    //    the training-time Min–Max ranges and the fitted classifier.
    let synth = SynthDataset::generate(&SynthConfig {
        n_users: 10,
        segments_per_user: (8, 14),
        seed: 11,
        ..SynthConfig::default()
    });
    let spec = TrainSpec {
        top_k: Some(20), // paper step 4/5: keep the top-20 features
        seed: 7,
        ..TrainSpec::paper_default("rf")
    };
    let artifact = ModelArtifact::train(&spec, &synth.segments).expect("train");
    println!(
        "trained {}@v{} on {} segments ({} features, training accuracy {:.3})",
        artifact.name,
        artifact.version,
        synth.segments.len(),
        artifact.feature_names.len(),
        artifact.training_accuracy(&synth.segments)
    );

    // 2. "Online": load the artifact into a registry and serve it. Port 0
    //    lets the OS pick a free port.
    let mut registry = ModelRegistry::new();
    registry.insert(artifact).expect("register");
    let mut handle = serve("127.0.0.1:0", registry, ServerConfig::default()).expect("bind");
    println!("serving on http://{}", handle.addr());

    // 3. A client posts raw GPS points and gets a mode label with
    //    per-class scores.
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut client = BufReader::new(stream);

    let segment = synth
        .segments
        .iter()
        .find(|s| s.len() >= MIN_SEGMENT_POINTS)
        .expect("long segment");
    let points: Vec<String> = segment
        .points
        .iter()
        .map(|p| format!("{{\"lat\":{},\"lon\":{},\"t\":{}}}", p.lat, p.lon, p.t.0))
        .collect();
    let request = format!("{{\"points\":[{}]}}", points.join(","));

    let (status, body) =
        client_request(&mut client, "POST", "/predict", Some(&request)).expect("predict request");
    println!("POST /predict → {status}");
    println!("  {body}");
    println!("  (true mode of that segment: {})", segment.mode);

    // 4. The metrics endpoint has already seen the request.
    let (status, body) =
        client_request(&mut client, "GET", "/metrics", None).expect("metrics request");
    println!("GET /metrics → {status}");
    for line in body.lines().take(6) {
        println!("  {line}");
    }
    println!("  …");

    handle.stop().expect("stop");
    println!("server stopped cleanly");
}
