//! The traced run's in-process timings: each layer crate's public
//! functions called one at a time on the seeded inputs, every call in
//! its own span. Medians per call use `traj_sim::report::percentile_us`.

use crate::plan;
use crate::trace::SpanLog;
use crate::{predict, Ctx, Outcome};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use traj_cluster::{ClusterConfig, ClusterRouter, LocalBackend};
use traj_net::http1::{render_request, render_response, Poll, RequestParser};
use traj_serve::{LoadedModel, ModelRegistry, ServerConfig, ServerHandle};
use traj_stream::{StreamConfig, StreamEngine, WalRecord};
use traj_wal::{Wal, WalConfig};
use trajlib::geo::{Timestamp, TrajectoryPoint};
use trajlib::ml::RowMatrix;

// Mirrors of the `/predict` wire DTOs (the server's are private).
#[derive(Deserialize)]
struct PointDto {
    lat: f64,
    lon: f64,
    t: i64,
}

#[derive(Deserialize)]
struct PredictRequestDto {
    #[allow(dead_code)]
    model: Option<String>,
    points: Vec<PointDto>,
}

#[derive(Serialize)]
struct PredictResponseDto {
    model: String,
    version: u32,
    class: usize,
    label: String,
    scores: Vec<f64>,
    class_names: Vec<String>,
}

/// Runs `f` in a span, pushing its own duration (ns) to `samples`.
fn stage<R>(
    log: &mut SpanLog,
    name: &'static str,
    req: u64,
    samples: &mut Vec<u64>,
    f: impl FnOnce() -> R,
) -> R {
    log.time(name, req, || {
        let t = Instant::now();
        let r = black_box(f());
        samples.push(t.elapsed().as_nanos() as u64);
        r
    })
}

fn median_us(samples: &mut [u64]) -> f64 {
    traj_sim::percentile_us(samples, 50.0) as f64 / 1e3
}

/// Passes over the request bodies; the median per call absorbs the
/// first, cache-cold pass.
const PASSES: usize = 3;

/// Requests of the ingest plan forwarded through the in-process router.
const FORWARDED: usize = 2000;

/// Runs every in-process layer timing into `out`.
pub fn run(ctx: &Ctx, out: &mut Outcome, log: &mut SpanLog) -> Result<(), String> {
    let t = Instant::now();
    let artifact = predict::train_artifact(ctx.seed)?;
    out.set("ml.artifact_train_s", t.elapsed().as_secs_f64(), "s");
    predict_path(ctx, out, log, LoadedModel::new(artifact.clone())?)?;

    let ingest = plan::ingest_plan(&plan::ingest_cohort(ctx.seed), plan::INGEST_CHUNK);
    stream_and_wal(ctx, out, log, &ingest)?;
    forward(out, log, &ingest, &artifact)
}

/// The `/predict` request path, stage by stage: parse → decode →
/// featurize → predict → encode → render.
fn predict_path(
    ctx: &Ctx,
    out: &mut Outcome,
    log: &mut SpanLog,
    model: LoadedModel,
) -> Result<(), String> {
    let bodies = plan::predict_bodies(&plan::predict_cohort(ctx.seed));
    let class_names: Vec<String> = model
        .artifact
        .scheme
        .class_names()
        .into_iter()
        .map(str::to_owned)
        .collect();
    let mut s: [Vec<u64>; 6] = Default::default();
    for pass in 0..PASSES {
        for (i, (_, body)) in bodies.iter().enumerate() {
            let req = (pass * bodies.len() + i) as u64;
            let wire = render_request("POST", "/predict", Some(body));
            log.enter("suite.predict_request", req);
            let parsed = stage(log, "net.parse", req, &mut s[0], || {
                let mut p = RequestParser::new(64 * 1024, 1 << 20);
                p.push(&wire);
                p.poll()
            });
            let Poll::Ready(request) = parsed else {
                return Err(format!("body {i} did not parse as one request"));
            };
            let dto = stage(log, "serve.json_decode", req, &mut s[1], || {
                std::str::from_utf8(&request.body)
                    .map_err(|e| e.to_string())
                    .and_then(|text| {
                        serde_json::from_str::<PredictRequestDto>(text).map_err(|e| e.to_string())
                    })
            })?;
            let points: Vec<TrajectoryPoint> = dto
                .points
                .iter()
                .map(|p| TrajectoryPoint::new(p.lat, p.lon, Timestamp(p.t)))
                .collect();
            let row = stage(log, "features.segment", req, &mut s[2], || {
                model.features_of_points(&points)
            })?;
            let prediction = stage(log, "ml.predict_row", req, &mut s[3], || {
                model.predict_scaled_batch(&RowMatrix::from_row(&row))
            })
            .map_err(|e| e.to_string())?
            .pop()
            .ok_or("no prediction for one row")?;
            let json = stage(log, "serve.json_encode", req, &mut s[4], || {
                serde_json::to_string(&PredictResponseDto {
                    model: model.artifact.name.clone(),
                    version: model.artifact.version,
                    class: prediction.class,
                    label: prediction.label.clone(),
                    scores: prediction.scores.clone(),
                    class_names: class_names.clone(),
                })
            })
            .map_err(|e| e.to_string())?;
            stage(log, "net.render", req, &mut s[5], || {
                render_response(200, &json, true, None)
            });
            log.exit();
        }
    }
    let names = [
        "net.parse_us",
        "serve.json_decode_us",
        "features.segment_us",
        "ml.predict_row_us",
        "serve.json_encode_us",
        "net.render_us",
    ];
    for (name, samples) in names.iter().zip(s.iter_mut()) {
        out.set(name, median_us(samples), "us");
    }
    Ok(())
}

/// Session state without a WAL, then the WAL alone, on the ingest plan.
fn stream_and_wal(
    ctx: &Ctx,
    out: &mut Outcome,
    log: &mut SpanLog,
    ingest: &plan::IngestPlan,
) -> Result<(), String> {
    let engine = StreamEngine::new(StreamConfig::default());
    let (mut ns, mut peak_open, mut bytes_at_peak) = (0u64, 0usize, 0usize);
    for (i, r) in ingest.requests.iter().enumerate() {
        let t = Instant::now();
        black_box(log.time("stream.ingest", i as u64, || {
            engine.ingest(r.user, &r.points, r.flush)
        }));
        ns += t.elapsed().as_nanos() as u64;
        if i % 64 == 0 {
            let open = engine.open_sessions();
            if open > peak_open {
                peak_open = open;
                bytes_at_peak = engine.state_bytes();
            }
        }
    }
    out.set(
        "stream.ingest_us_per_point",
        ns as f64 / 1e3 / ingest.points.max(1) as f64,
        "us",
    );
    out.set(
        "stream.state_bytes_per_session",
        bytes_at_peak as f64 / peak_open.max(1) as f64,
        "B",
    );
    out.set("stream.open_sessions_peak", peak_open as f64, "count");

    let (wal, _) = Wal::open(WalConfig::new(ctx.work.join("suite-wal")))
        .map_err(|e| format!("opening the suite WAL: {e}"))?;
    let (mut ns, mut records) = (0u64, 0usize);
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    for (i, r) in ingest.requests.iter().enumerate() {
        payloads.clear();
        for &point in &r.points {
            let mut buf = Vec::with_capacity(29);
            WalRecord::Point {
                user: r.user,
                point,
            }
            .encode_into(&mut buf);
            payloads.push(buf);
        }
        if r.flush {
            let mut buf = Vec::new();
            WalRecord::Close { user: r.user }.encode_into(&mut buf);
            payloads.push(buf);
        }
        let slices: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let t = Instant::now();
        log.time("wal.append", i as u64, || wal.append_batch(&slices))
            .map_err(|e| format!("wal append: {e}"))?;
        ns += t.elapsed().as_nanos() as u64;
        records += slices.len();
    }
    out.set(
        "wal.append_us_per_record",
        ns as f64 / 1e3 / records.max(1) as f64,
        "us",
    );
    out.set(
        "wal.bytes_per_point",
        wal.stats().appended_bytes as f64 / ingest.points.max(1) as f64,
        "B",
    );
    Ok(())
}

/// The router's own cost per `/ingest`: `ClusterRouter::handle` over
/// in-process shards minus `ServerHandle::dispatch` of the same body on
/// a twin shard pair that sees the same stream directly.
fn forward(
    out: &mut Outcome,
    log: &mut SpanLog,
    ingest: &plan::IngestPlan,
    artifact: &traj_serve::ModelArtifact,
) -> Result<(), String> {
    let shard = || -> Result<Arc<ServerHandle>, String> {
        let mut registry = ModelRegistry::new();
        registry.insert(artifact.clone())?;
        Ok(Arc::new(traj_serve::serve(
            "127.0.0.1:0",
            registry,
            ServerConfig::default(),
        )?))
    };
    let routed = [shard()?, shard()?];
    let direct = [shard()?, shard()?];
    let router = ClusterRouter::new(ClusterConfig::default());
    for (id, handle) in routed.iter().enumerate() {
        router.add_shard(id as u32, Box::new(LocalBackend::new(Arc::clone(handle))))?;
    }
    let (mut via_router, mut via_dispatch) = (Vec::new(), Vec::new());
    for (i, r) in ingest.requests.iter().take(FORWARDED).enumerate() {
        let owner = router.owner_of(r.user).ok_or("router has no shards")? as usize;
        let (a, _) = stage(log, "cluster.forward", i as u64, &mut via_router, || {
            router.handle("POST", "/ingest", r.body.as_bytes())
        });
        let (b, _) = stage(log, "serve.dispatch", i as u64, &mut via_dispatch, || {
            direct[owner].dispatch("POST", "/ingest", r.body.as_bytes())
        });
        if a != 200 || b != 200 {
            out.problems.push(format!(
                "in-process /ingest {i}: router {a}, direct dispatch {b}"
            ));
            break;
        }
    }
    out.set(
        "cluster.forward_us",
        median_us(&mut via_router) - median_us(&mut via_dispatch),
        "us",
    );
    Ok(())
}
