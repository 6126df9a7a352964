//! The inference server: a [`traj_net`] connection reactor feeding a
//! dedicated [`traj_runtime`] pool (one task per *request*), JSON
//! routing, and graceful shutdown.
//!
//! One event-loop thread owns every connection's accept, read and
//! write; only complete requests are handed to the pool. Workers are
//! therefore O(cores) while open connections are O(fd limit) — an idle
//! keep-alive client costs a file descriptor and a parse buffer, never
//! a parked thread. The pool is still *dedicated* —
//! `Runtime::named(workers, "traj-serve")` rather than the shared
//! [`traj_runtime::global`] compute pool — because request tasks block
//! on the micro-batcher's flush, and parking compute workers behind
//! prediction waits would starve any training or cross-validation
//! running in the same process.
//!
//! ```text
//! POST /predict        one segment  → label + per-class scores
//! POST /predict_batch  N segments   → N results, micro-batched
//! POST /ingest         streaming points → predictions per closed segment
//! GET  /healthz        liveness + loaded models
//! GET  /metrics        counters, latency percentiles, batch + ingest stats
//! ```
//!
//! `/ingest` routes points into the per-user [`traj_stream::StreamEngine`]
//! shared by all workers; whenever a segment closes (gap, explicit
//! `flush`, idle sweep, or eviction) the paper's 70 features are already
//! materialised and a prediction is emitted without re-featurising. A
//! background sweeper closes idle sessions on the configured interval.

use crate::artifact::ModelArtifact;
use crate::batch::{BatchConfig, MicroBatcher};
use crate::metrics::ServeMetrics;
use crate::registry::{LoadedModel, ModelRegistry, Prediction};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use traj_ml::PredictError;
use traj_sim::Class;
pub use traj_wal::FsyncPolicy;
use traj_wal::{SnapshotStore, Wal, WalConfig};

/// Durable-ingest tunables; see `DESIGN.md` §11.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory for durable state (`wal/` segments and
    /// `snapshots/` are created beneath it).
    pub dir: PathBuf,
    /// When WAL appends are forced to stable storage.
    pub fsync: FsyncPolicy,
    /// WAL segment roll size.
    pub segment_bytes: u64,
    /// How often open-session state is snapshotted (and the WAL
    /// truncated past the covered LSN).
    pub snapshot_interval: Duration,
}

impl DurabilityConfig {
    /// Durability under `dir` with the default 50 ms fsync interval,
    /// 64 MiB segments and 30 s snapshots.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Interval(Duration::from_millis(50)),
            segment_bytes: 64 * 1024 * 1024,
            snapshot_interval: Duration::from_secs(30),
        }
    }
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling requests (the reactor's single I/O
    /// thread is extra; connections themselves occupy no worker).
    pub workers: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Idle/slow-client deadline: a connection making no read progress
    /// for this long is reaped — 408 mid-request (slow-loris), silent
    /// close for an idle keep-alive connection.
    pub read_timeout: Duration,
    /// A response write making no progress for this long closes the
    /// connection (slow-reading client holding response memory).
    pub write_stall_timeout: Duration,
    /// Open-connection cap; accepts beyond it answer 503 and close.
    pub max_connections: usize,
    /// Batching policy, SLO deadline and admission cap shared by
    /// `/predict` (interactive), `/predict_batch` (bulk) and `/ingest`
    /// close-time predictions (close, never shed).
    pub batch: BatchConfig,
    /// Streaming-ingestion engine tunables (`POST /ingest`).
    pub stream: traj_stream::StreamConfig,
    /// How often the background sweeper scans for idle sessions.
    pub idle_sweep_interval: Duration,
    /// Durable ingestion (WAL + snapshots); `None` keeps stream state
    /// memory-only.
    pub durability: Option<DurabilityConfig>,
    /// Cluster shard identity. When set, `/metrics` and `/healthz`
    /// carry a `"shard"` label (id + served artifact versions) so a
    /// router's aggregated views can keep shards apart.
    pub shard_id: Option<u32>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            write_stall_timeout: Duration::from_secs(10),
            max_connections: 16 * 1024,
            batch: BatchConfig::default(),
            stream: traj_stream::StreamConfig::default(),
            idle_sweep_interval: Duration::from_secs(30),
            durability: None,
            shard_id: None,
        }
    }
}

// ------------------------------------------------------------- wire DTOs

/// One GPS fix in a request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PointDto {
    lat: f64,
    lon: f64,
    /// Milliseconds since the Unix epoch (`Timestamp.0`'s own unit).
    t: i64,
}

#[derive(Debug, Deserialize)]
struct PredictRequest {
    /// Registry name (`None` → default model).
    model: Option<String>,
    points: Vec<PointDto>,
}

#[derive(Debug, Deserialize)]
struct PredictBatchRequest {
    model: Option<String>,
    segments: Vec<Vec<PointDto>>,
}

#[derive(Debug, Serialize)]
struct PredictResponse {
    model: String,
    version: u32,
    class: usize,
    label: String,
    scores: Vec<f64>,
    class_names: Vec<String>,
}

#[derive(Debug, Serialize)]
struct BatchItemResponse {
    class: Option<usize>,
    label: Option<String>,
    scores: Option<Vec<f64>>,
    error: Option<String>,
}

#[derive(Debug, Serialize)]
struct PredictBatchResponse {
    model: String,
    version: u32,
    class_names: Vec<String>,
    results: Vec<BatchItemResponse>,
}

#[derive(Debug, Deserialize)]
struct IngestRequest {
    /// Stream owner; shards the server-side session state.
    user: u32,
    /// Registry name (`None` → default model).
    model: Option<String>,
    points: Vec<PointDto>,
    /// Close the user's open segment after this batch.
    flush: Option<bool>,
    /// Idempotency key. `/ingest` is not idempotent, so a proxy that
    /// retries after an ambiguous transport failure (request possibly
    /// applied, response lost) would double-apply the points. With a
    /// key, a repeat of an already-applied `(user, idem)` replays the
    /// recorded response instead of mutating the session again. The
    /// cluster router stamps one on every forwarded request.
    idem: Option<u64>,
}

#[derive(Debug, Serialize)]
struct IngestPrediction {
    user: u32,
    start_t: i64,
    end_t: i64,
    n_points: usize,
    /// Why the segment closed: `gap`, `flush`, `idle` or `eviction`.
    reason: String,
    /// Whether the features were bit-identical to the batch pipeline.
    exact: bool,
    class: usize,
    label: String,
    scores: Vec<f64>,
}

#[derive(Debug, Serialize)]
struct IngestResponse {
    model: String,
    version: u32,
    accepted: usize,
    dropped: usize,
    open_points: usize,
    class_names: Vec<String>,
    predictions: Vec<IngestPrediction>,
}

#[derive(Debug, Serialize)]
struct ErrorResponse {
    error: String,
}

fn error_body(message: &str) -> String {
    serde_json::to_string(&ErrorResponse {
        error: message.to_owned(),
    })
    .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_owned())
}

/// HTTP status of a typed prediction failure: an unfitted model is a
/// conflict with the server's state (409, retryable after retraining), a
/// shutting-down queue is a retryable unavailability (503), anything
/// else is an internal inconsistency (500).
fn predict_error_status(e: PredictError) -> u16 {
    match e {
        PredictError::NotFitted => 409,
        PredictError::WrongWidth { .. } => 500,
        PredictError::ShuttingDown => 503,
    }
}

/// The request's GPS fixes, each checked by `TrajectoryPoint::try_new`
/// (finite, lat in [-90, 90], lon in [-180, 180]) before any featurizer,
/// batcher or session sees it.
fn points_of(dtos: &[PointDto]) -> Result<Vec<traj_geo::TrajectoryPoint>, String> {
    dtos.iter()
        .enumerate()
        .map(|(i, p)| {
            traj_geo::TrajectoryPoint::try_new(p.lat, p.lon, traj_geo::Timestamp(p.t))
                .map_err(|e| format!("point {i}: {e}"))
        })
        .collect()
}

// ---------------------------------------------------------------- routing

/// The WAL + snapshot store handles the admin surface needs to trigger
/// snapshots outside the maintenance thread (handoff imports snapshot
/// immediately so moved sessions are durable on their new owner).
struct DurabilityHandles {
    wal: Arc<Wal>,
    store: Arc<SnapshotStore>,
}

/// Shared state of all workers.
struct AppState {
    /// Writers are rare (artifact rollout, promotion); the hot path
    /// takes the read lock only long enough to clone a model `Arc`.
    registry: RwLock<ModelRegistry>,
    metrics: Arc<ServeMetrics>,
    batcher: MicroBatcher,
    engine: traj_stream::StreamEngine,
    /// Cluster shard identity (labels `/metrics` and health).
    shard_id: Option<u32>,
    /// Flips true once WAL replay + registry warm-up complete; traffic
    /// endpoints answer 503 until then (and again while draining).
    ready: AtomicBool,
    /// Set during boot when durability is configured.
    durability: OnceLock<DurabilityHandles>,
    /// Replayed responses of recently applied keyed `/ingest` requests.
    idem: Mutex<IdemCache>,
    /// The connection reactor's counters (set right after the reactor
    /// spawns); rendered as the `"net"` section of `/metrics`.
    net: OnceLock<Arc<traj_net::NetStats>>,
}

/// Bounded FIFO of `(user, idem key) → response` for `/ingest` retry
/// dedupe. Only responses of requests that reached the engine are
/// recorded — a replayed entry means "the points were applied; here is
/// what you missed". The window only needs to cover a proxy's
/// immediate-retry horizon, so a small cap suffices.
#[derive(Default)]
struct IdemCache {
    responses: HashMap<(u32, u64), (u16, String)>,
    order: VecDeque<(u32, u64)>,
}

impl IdemCache {
    const CAP: usize = 1024;

    fn get(&self, user: u32, key: u64) -> Option<(u16, String)> {
        self.responses.get(&(user, key)).cloned()
    }

    fn put(&mut self, user: u32, key: u64, response: &(u16, String)) {
        if self
            .responses
            .insert((user, key), response.clone())
            .is_none()
        {
            self.order.push_back((user, key));
        }
        while self.order.len() > Self::CAP {
            let oldest = self.order.pop_front().expect("len checked");
            self.responses.remove(&oldest);
        }
    }
}

impl AppState {
    /// Resolves a model by request name under the read lock.
    fn model(&self, name: Option<&str>) -> Option<Arc<LoadedModel>> {
        self.registry.read().expect("registry poisoned").get(name)
    }

    /// The pre-rendered `"shard"` label object, when this server has a
    /// shard identity.
    fn shard_label(&self) -> Option<String> {
        let id = self.shard_id?;
        let versions = self
            .registry
            .read()
            .expect("registry poisoned")
            .active_versions();
        let artifacts = versions
            .iter()
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect::<Vec<String>>()
            .join(", ");
        Some(format!("{{\"id\": {id}, \"artifacts\": {{{artifacts}}}}}"))
    }

    /// Mirrors the engine's (and, when attached, the WAL's)
    /// authoritative counters and gauges into the `/metrics` snapshot.
    fn sync_ingest_metrics(&self) {
        let stats = self.engine.stats();
        self.metrics.ingest.sync_engine(
            &stats,
            self.engine.open_sessions() as u64,
            self.engine.state_bytes() as u64,
        );
        if let Some(wal) = self.engine.wal() {
            self.metrics
                .durability
                .sync_wal(&wal.stats(), stats.wal_append_errors);
        }
    }
}

/// A routed response: status, JSON body and — on admission-control
/// 429s — the queue-drain estimate carried as `Retry-After`.
struct Response {
    status: u16,
    body: String,
    retry_after: Option<Duration>,
}

impl From<(u16, String)> for Response {
    fn from((status, body): (u16, String)) -> Response {
        Response {
            status,
            body,
            retry_after: None,
        }
    }
}

/// Routes one request. Never panics on client input; internal failures
/// map to 500.
///
/// Traffic endpoints (`/predict`, `/predict_batch`, `/ingest`) are
/// gated on readiness: during WAL replay-on-boot, registry warm-up or
/// an explicit drain they answer 503 so a cluster router can steer
/// around this shard. Health, metrics and the admin surface always
/// answer — a draining shard must still serve handoff exports.
fn route(state: &AppState, method: &str, path: &str, body: &[u8]) -> Response {
    let ready = state.ready.load(Ordering::SeqCst);
    match (method, path) {
        ("GET", "/healthz") => handle_healthz(state, ready).into(),
        ("GET", "/readyz") => handle_readyz(state, ready).into(),
        ("GET", "/metrics") => {
            state.sync_ingest_metrics();
            let net = state.net.get().map(|n| n.render_json());
            (
                200,
                state
                    .metrics
                    .render_json_with_net(state.shard_label().as_deref(), net.as_deref()),
            )
                .into()
        }
        ("POST", "/predict" | "/predict_batch" | "/ingest") if !ready => Response {
            status: 503,
            body: error_body("server is not ready (starting or draining); retry"),
            retry_after: Some(Duration::from_secs(1)),
        },
        ("POST", "/predict") => handle_predict(state, body),
        ("POST", "/predict_batch") => handle_predict_batch(state, body),
        ("POST", "/ingest") => handle_ingest(state, body).into(),
        ("POST", "/admin/artifact/stage") => handle_artifact_stage(state, body).into(),
        ("POST", "/admin/artifact/promote") => handle_artifact_rollout(state, body, true).into(),
        ("POST", "/admin/artifact/rollback") => handle_artifact_rollout(state, body, false).into(),
        ("GET", "/admin/sessions") => handle_sessions(state).into(),
        ("POST", "/admin/handoff/export") => handle_handoff_export(state, body).into(),
        ("POST", "/admin/handoff/import") => handle_handoff_import(state, body).into(),
        ("POST", "/admin/handoff/evict") => handle_handoff_evict(state, body).into(),
        ("POST", "/admin/drain") => {
            state.ready.store(false, Ordering::SeqCst);
            (200, "{\"ready\": false}".to_owned()).into()
        }
        ("POST", "/admin/ready") => {
            state.ready.store(true, Ordering::SeqCst);
            (200, "{\"ready\": true}".to_owned()).into()
        }
        ("GET", "/predict" | "/predict_batch" | "/ingest")
        | ("POST", "/healthz" | "/readyz" | "/metrics") => {
            (405, error_body("method not allowed")).into()
        }
        _ => (404, error_body("no such endpoint")).into(),
    }
}

/// The 429 an admission shed maps to.
fn shed_response(retry_after: Duration) -> Response {
    Response {
        status: 429,
        body: error_body("prediction queue is full; retry later"),
        retry_after: Some(retry_after),
    }
}

/// Liveness: answers 200 as soon as the acceptor runs, even while WAL
/// replay is still rebuilding state. Readiness is a separate signal
/// (`/readyz`) so supervisors don't kill a server that is merely busy
/// recovering.
fn handle_healthz(state: &AppState, ready: bool) -> (u16, String) {
    #[derive(Serialize)]
    struct Health {
        status: String,
        ready: bool,
        shard: Option<u32>,
        default_model: Option<String>,
        models: Vec<String>,
    }
    let registry = state.registry.read().expect("registry poisoned");
    let health = Health {
        status: "ok".to_owned(),
        ready,
        shard: state.shard_id,
        default_model: registry.default_name().map(str::to_owned),
        models: registry.keys(),
    };
    drop(registry);
    match serde_json::to_string(&health) {
        Ok(body) => (200, body),
        Err(e) => (500, error_body(&e.to_string())),
    }
}

/// Readiness: 503 until WAL replay + registry warm-up complete (and
/// again once draining); the router's health checks gate traffic on it.
fn handle_readyz(state: &AppState, ready: bool) -> (u16, String) {
    let shard = state
        .shard_id
        .map_or("null".to_owned(), |id| id.to_string());
    if ready {
        (200, format!("{{\"ready\": true, \"shard\": {shard}}}"))
    } else {
        (503, format!("{{\"ready\": false, \"shard\": {shard}}}"))
    }
}

fn handle_predict(state: &AppState, body: &[u8]) -> Response {
    let parsed: PredictRequest = match parse_json_body(body) {
        Ok(p) => p,
        Err(resp) => return resp.into(),
    };
    let Some(model) = state.model(parsed.model.as_deref()) else {
        return (404, error_body("unknown model")).into();
    };
    let row = match points_of(&parsed.points).and_then(|points| model.features_of_points(&points)) {
        Ok(row) => row,
        Err(msg) => return (422, error_body(&msg)).into(),
    };
    // Interactive class: full admission cap, flushed first. The batcher
    // coalesces concurrent /predict rows into one compiled traversal and
    // records the per-model prediction count at flush time.
    let rx = match state
        .batcher
        .submit(Arc::clone(&model), row, Class::Interactive)
    {
        Ok(rx) => rx,
        Err(shed) => return shed_response(shed.retry_after),
    };
    let prediction = match rx.recv() {
        Ok(Ok(p)) => p,
        Ok(Err(e)) => return (predict_error_status(e), error_body(&e.to_string())).into(),
        Err(_) => return (503, error_body("prediction queue unavailable")).into(),
    };
    let response = PredictResponse {
        model: model.artifact.name.clone(),
        version: model.artifact.version,
        class: prediction.class,
        label: prediction.label,
        scores: prediction.scores,
        class_names: class_names_of(&model.artifact.scheme),
    };
    match serde_json::to_string(&response) {
        Ok(body) => (200, body).into(),
        Err(e) => (500, error_body(&e.to_string())).into(),
    }
}

fn handle_predict_batch(state: &AppState, body: &[u8]) -> Response {
    let parsed: PredictBatchRequest = match parse_json_body(body) {
        Ok(p) => p,
        Err(resp) => return resp.into(),
    };
    let Some(model) = state.model(parsed.model.as_deref()) else {
        return (404, error_body("unknown model")).into();
    };
    if parsed.segments.is_empty() {
        return (422, error_body("empty segments array")).into();
    }
    if !model.is_ready() {
        return (409, error_body(&PredictError::NotFitted.to_string())).into();
    }

    // Featurise inline (per-segment, worker-parallel across requests),
    // then push the rows through the shared micro-batcher so concurrent
    // requests coalesce into larger prediction batches (grouped by model
    // and predicted with one compiled traversal per flush). Bulk class:
    // admission rejects the whole request at half the queue cap, keeping
    // headroom for interactive traffic (already-submitted rows are still
    // predicted; their replies go nowhere).
    enum Pending {
        Waiting(Receiver<Result<Prediction, PredictError>>),
        Failed(String),
    }
    let mut pending = Vec::with_capacity(parsed.segments.len());
    for dtos in &parsed.segments {
        match points_of(dtos).and_then(|points| model.features_of_points(&points)) {
            Ok(row) => match state.batcher.submit(Arc::clone(&model), row, Class::Bulk) {
                Ok(rx) => pending.push(Pending::Waiting(rx)),
                Err(shed) => return shed_response(shed.retry_after),
            },
            Err(msg) => pending.push(Pending::Failed(msg)),
        }
    }

    let results: Vec<BatchItemResponse> = pending
        .into_iter()
        .map(|p| match p {
            Pending::Failed(msg) => BatchItemResponse {
                class: None,
                label: None,
                scores: None,
                error: Some(msg),
            },
            Pending::Waiting(rx) => match rx.recv() {
                Ok(Ok(pred)) => BatchItemResponse {
                    class: Some(pred.class),
                    label: Some(pred.label),
                    scores: Some(pred.scores),
                    error: None,
                },
                Ok(Err(e)) => BatchItemResponse {
                    class: None,
                    label: None,
                    scores: None,
                    error: Some(e.to_string()),
                },
                Err(_) => BatchItemResponse {
                    class: None,
                    label: None,
                    scores: None,
                    error: Some("prediction queue unavailable".to_owned()),
                },
            },
        })
        .collect();

    let response = PredictBatchResponse {
        model: model.artifact.name.clone(),
        version: model.artifact.version,
        class_names: class_names_of(&model.artifact.scheme),
        results,
    };
    match serde_json::to_string(&response) {
        Ok(body) => (200, body).into(),
        Err(e) => (500, error_body(&e.to_string())).into(),
    }
}

fn handle_ingest(state: &AppState, body: &[u8]) -> (u16, String) {
    let started = Instant::now();
    let parsed: IngestRequest = match parse_json_body(body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    // A keyed request already applied replays its recorded response —
    // the retry of a request whose response was lost in transit must
    // not push the points into the session a second time. (A retry that
    // races the still-executing original can slip past this check; the
    // router only retries after the original's connection died, so that
    // window is the tail of an already-failed request.)
    if let Some(key) = parsed.idem {
        if let Some(replay) = state
            .idem
            .lock()
            .expect("idem poisoned")
            .get(parsed.user, key)
        {
            return replay;
        }
    }
    let Some(model) = state.model(parsed.model.as_deref()) else {
        return (404, error_body("unknown model"));
    };
    // The engine emits the canonical 70-feature row; models trained on
    // other feature tables cannot consume it.
    if model.artifact.feature_set != crate::featurize::ServeFeatureSet::Paper70 {
        return (
            409,
            error_body(&format!(
                "/ingest requires a Paper70 model; {:?} was trained on {:?}",
                model.artifact.name, model.artifact.feature_set
            )),
        );
    }

    let points = match points_of(&parsed.points) {
        Ok(points) => points,
        Err(msg) => return (422, error_body(&msg)),
    };

    let response = ingest_apply(state, &parsed, &points, &model, started);
    // Record only now that the engine mutated state; the pure-read
    // failures above are safe to re-attempt verbatim.
    if let Some(key) = parsed.idem {
        state
            .idem
            .lock()
            .expect("idem poisoned")
            .put(parsed.user, key, &response);
    }
    response
}

/// The stateful tail of `/ingest`: pushes the points into the engine
/// and predicts every closed segment. Everything past the engine call
/// mutates session state, so the caller records the response under the
/// request's idempotency key no matter which branch returns.
fn ingest_apply(
    state: &AppState,
    parsed: &IngestRequest,
    points: &[traj_geo::TrajectoryPoint],
    model: &Arc<LoadedModel>,
    started: Instant,
) -> (u16, String) {
    let flush = parsed.flush.unwrap_or(false);
    let report = state.engine.ingest(parsed.user, points, flush);
    if let Some(msg) = &report.wal_error {
        // The in-memory state advanced but the WAL rejected the records:
        // the accepted points are NOT durable. Fail the request so the
        // client knows this batch may not survive a restart.
        state.sync_ingest_metrics();
        return (
            500,
            error_body(&format!("wal append failed; batch not durable: {msg}")),
        );
    }

    // Close class: routed through the shared batcher (coalescing with
    // concurrent traffic) but never shed — the engine already consumed
    // these segments, so dropping the prediction would lose paid-for
    // work. Submit every close first so one flush can cover them all.
    let mut waiting = Vec::with_capacity(report.closed.len());
    for closed in &report.closed {
        let scaled = match model.project_scale(&closed.features) {
            Ok(row) => row,
            Err(msg) => return (500, error_body(&msg)),
        };
        match state
            .batcher
            .submit(Arc::clone(model), scaled, Class::Close)
        {
            Ok(rx) => waiting.push(rx),
            // Unreachable by policy (close is never shed); fail loudly
            // rather than silently dropping a close if that changes.
            Err(_) => return (503, error_body("prediction queue rejected a close")),
        }
    }
    let mut predictions = Vec::with_capacity(report.closed.len());
    for (closed, rx) in report.closed.iter().zip(waiting) {
        let prediction = match rx.recv() {
            Ok(Ok(p)) => p,
            Ok(Err(e)) => return (predict_error_status(e), error_body(&e.to_string())),
            Err(_) => return (503, error_body("prediction queue unavailable")),
        };
        state.metrics.ingest.record_close(
            Some(started.elapsed().as_micros() as u64),
            closed.exact,
            closed.sketch_drift,
        );
        predictions.push(IngestPrediction {
            user: closed.user,
            start_t: closed.start.0,
            end_t: closed.end.0,
            n_points: closed.n_points,
            reason: closed.reason.as_str().to_owned(),
            exact: closed.exact,
            class: prediction.class,
            label: prediction.label,
            scores: prediction.scores,
        });
    }
    state.sync_ingest_metrics();

    let response = IngestResponse {
        model: model.artifact.name.clone(),
        version: model.artifact.version,
        accepted: report.accepted,
        dropped: report.dropped,
        open_points: report.open_points,
        class_names: class_names_of(&model.artifact.scheme),
        predictions,
    };
    match serde_json::to_string(&response) {
        Ok(body) => (200, body),
        Err(e) => (500, error_body(&e.to_string())),
    }
}

// ------------------------------------------------------- admin surface
//
// The cluster router drives shards through these endpoints: artifact
// rollout (stage → canary traffic on the pinned key → promote or roll
// back) and session handoff on reshard. They are plain POST routes —
// the HTTP layer parses no query strings — and they bypass the ready
// gate so a draining shard can still export its sessions.

#[derive(Debug, Deserialize)]
struct RolloutRequest {
    name: String,
    version: u32,
}

#[derive(Debug, Deserialize)]
struct HandoffExportRequest {
    users: Vec<u32>,
}

#[derive(Debug, Serialize, Deserialize)]
struct SessionDto {
    user: u32,
    /// Hex-encoded `Session` codec bytes (the WAL/snapshot codec), so
    /// binary state travels inside JSON without loss.
    hex: String,
}

#[derive(Debug, Deserialize)]
struct HandoffImportRequest {
    sessions: Vec<SessionDto>,
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(text: &str) -> Result<Vec<u8>, String> {
    // Work on bytes: indexing the &str would panic mid-character on
    // multibyte UTF-8 client input.
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err("odd-length hex".to_owned());
    }
    let nibble = |b: u8, i: usize| -> Result<u8, String> {
        match b {
            b'0'..=b'9' => Ok(b - b'0'),
            b'a'..=b'f' => Ok(b - b'a' + 10),
            b'A'..=b'F' => Ok(b - b'A' + 10),
            _ => Err(format!("bad hex at byte {i}")),
        }
    };
    bytes
        .chunks_exact(2)
        .enumerate()
        .map(|(pair, chunk)| Ok(nibble(chunk[0], pair * 2)? << 4 | nibble(chunk[1], pair * 2 + 1)?))
        .collect()
}

/// `POST /admin/artifact/stage`: body is a full [`ModelArtifact`] JSON
/// document. Registers it under its pinned `name@vN` key only — default
/// traffic is untouched until an explicit promote.
fn handle_artifact_stage(state: &AppState, body: &[u8]) -> (u16, String) {
    let artifact: ModelArtifact = match parse_json_body(body) {
        Ok(a) => a,
        Err(resp) => return resp,
    };
    let mut registry = state.registry.write().expect("registry poisoned");
    match registry.insert_staged(artifact) {
        Ok(key) => (200, format!("{{\"staged\": \"{key}\"}}")),
        Err(e) => (422, error_body(&e)),
    }
}

/// `POST /admin/artifact/promote` (`promote == true`) repoints default
/// traffic at a staged version; `POST /admin/artifact/rollback` removes
/// a parked pinned version. Both atomic under the registry write lock.
fn handle_artifact_rollout(state: &AppState, body: &[u8], promote: bool) -> (u16, String) {
    let parsed: RolloutRequest = match parse_json_body(body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let mut registry = state.registry.write().expect("registry poisoned");
    // The version default traffic served before a promote, reported back
    // so a cluster orchestrator can compensate a partially-failed
    // cluster-wide promote by re-promoting the previous version.
    let previous = promote
        .then(|| registry.get(Some(&parsed.name)).map(|m| m.artifact.version))
        .flatten();
    let result = if promote {
        registry.promote(&parsed.name, parsed.version)
    } else {
        registry.remove_pinned(&parsed.name, parsed.version)
    };
    match result {
        Ok(()) => {
            let previous = previous.map_or("null".to_owned(), |v| v.to_string());
            let tail = if promote {
                format!(", \"previous\": {previous}")
            } else {
                String::new()
            };
            (
                200,
                format!(
                    "{{\"{}\": \"{}@v{}\"{tail}}}",
                    if promote { "promoted" } else { "rolled_back" },
                    parsed.name,
                    parsed.version
                ),
            )
        }
        Err(e) => (409, error_body(&e)),
    }
}

/// `GET /admin/sessions`: the user ids with open sessions — the reshard
/// planner's input for deciding which sessions move.
fn handle_sessions(state: &AppState) -> (u16, String) {
    let users = state.engine.open_users();
    let list = users
        .iter()
        .map(u32::to_string)
        .collect::<Vec<String>>()
        .join(",");
    (200, format!("{{\"users\": [{list}]}}"))
}

/// `POST /admin/handoff/export`: returns the named sessions' codec
/// bytes hex-encoded, without removing them — export is a pure read, so
/// the source stays authoritative until an explicit
/// `/admin/handoff/evict` after the import succeeded on the new owner.
/// Users without an open session are skipped.
fn handle_handoff_export(state: &AppState, body: &[u8]) -> (u16, String) {
    let parsed: HandoffExportRequest = match parse_json_body(body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let sessions: Vec<SessionDto> = state
        .engine
        .export_sessions(&parsed.users)
        .into_iter()
        .map(|(user, bytes)| SessionDto {
            user,
            hex: hex_encode(&bytes),
        })
        .collect();
    match serde_json::to_string(&sessions) {
        Ok(list) => (200, format!("{{\"sessions\": {list}}}")),
        Err(e) => (500, error_body(&e.to_string())),
    }
}

/// `POST /admin/handoff/evict`: drains the named sessions out of this
/// shard's engine (logging WAL closes so a replay cannot resurrect
/// them). The router calls this only after the new owner acknowledged
/// the import, which is what makes the handoff lossless. Users without
/// an open session are skipped — evicting is idempotent. A WAL failure
/// aborts mid-list with 500 (already-evicted users stay evicted; the
/// router compensates from the exported payload).
fn handle_handoff_evict(state: &AppState, body: &[u8]) -> (u16, String) {
    let parsed: HandoffExportRequest = match parse_json_body(body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let result = state.engine.evict_sessions(&parsed.users);
    state.sync_ingest_metrics();
    match result {
        Ok(evicted) => (200, format!("{{\"evicted\": {evicted}}}")),
        Err(e) => (500, error_body(&e)),
    }
}

/// `POST /admin/handoff/import`: restores exported sessions
/// bit-identically into this shard's engine, then — when durability is
/// attached — snapshots immediately so the moved sessions survive a
/// crash on their new owner.
fn handle_handoff_import(state: &AppState, body: &[u8]) -> (u16, String) {
    let parsed: HandoffImportRequest = match parse_json_body(body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let mut imported = 0usize;
    for dto in &parsed.sessions {
        let bytes = match hex_decode(&dto.hex) {
            Ok(b) => b,
            Err(e) => return (422, error_body(&format!("user {}: {e}", dto.user))),
        };
        if let Err(e) = state.engine.install_session_bytes(dto.user, &bytes) {
            return (422, error_body(&e));
        }
        imported += 1;
    }
    if let Some(handles) = state.durability.get() {
        if let Err(e) = write_snapshot(&state.engine, &handles.store, &handles.wal, &state.metrics)
        {
            return (
                500,
                error_body(&format!(
                    "imported {imported} sessions but not durable: {e}"
                )),
            );
        }
    }
    state.sync_ingest_metrics();
    (200, format!("{{\"imported\": {imported}}}"))
}

fn parse_json_body<T: serde::de::DeserializeOwned>(body: &[u8]) -> Result<T, (u16, String)> {
    let text =
        std::str::from_utf8(body).map_err(|_| (400, error_body("request body is not UTF-8")))?;
    serde_json::from_str(text).map_err(|e| (400, error_body(&format!("invalid JSON: {e}"))))
}

fn class_names_of(scheme: &traj_geo::LabelScheme) -> Vec<String> {
    scheme
        .class_names()
        .into_iter()
        .map(str::to_owned)
        .collect()
}

// ----------------------------------------------------------------- server

/// The WAL + snapshot store of a durably-configured server.
struct DurabilityResources {
    wal: Arc<Wal>,
    store: Arc<SnapshotStore>,
    /// LSN of the snapshot recovery loaded (seeds the skip-if-unchanged
    /// check of the snapshot thread).
    recovered_lsn: u64,
}

/// Encodes the open sessions, writes the snapshot atomically and
/// truncates the WAL past the covered LSN. Returns the snapshot's LSN.
fn write_snapshot(
    engine: &traj_stream::StreamEngine,
    store: &SnapshotStore,
    wal: &Wal,
    metrics: &ServeMetrics,
) -> Result<u64, String> {
    let started = Instant::now();
    let snap = engine.export_snapshot();
    store
        .write(snap.lsn, &snap.payload)
        .map_err(|e| format!("writing snapshot at lsn {}: {e}", snap.lsn))?;
    wal.truncate_until(snap.lsn)
        .map_err(|e| format!("truncating wal to lsn {}: {e}", snap.lsn))?;
    metrics.durability.record_snapshot(
        snap.lsn,
        snap.sessions as u64,
        started.elapsed().as_micros() as u64,
    );
    Ok(snap.lsn)
}

/// A running server; dropping or [`ServerHandle::stop`] shuts it down.
pub struct ServerHandle {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    reactor: Option<traj_net::ReactorHandle>,
    sweep_thread: Option<JoinHandle<()>>,
    wal_thread: Option<JoinHandle<()>>,
    runtime: Option<Arc<traj_runtime::Runtime>>,
    state: Arc<AppState>,
    durability: Option<DurabilityResources>,
    metrics: Arc<ServeMetrics>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics, for in-process inspection.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Whether the server is past WAL replay + warm-up and serving
    /// traffic (the `/readyz` signal, without a socket).
    pub fn is_ready(&self) -> bool {
        self.state.ready.load(Ordering::SeqCst)
    }

    /// Dispatches one request in-process, bypassing sockets — the
    /// cluster router's local backend. Same routing table, readiness
    /// gating and metrics as the HTTP surface; returns `(status, body)`.
    pub fn dispatch(&self, method: &str, path: &str, body: &[u8]) -> (u16, String) {
        let started = Instant::now();
        let response = route(&self.state, method, path, body);
        self.state
            .metrics
            .record_response(response.status, started.elapsed().as_micros() as u64);
        (response.status, response.body)
    }

    /// Stops accepting, drains in-flight connections, joins every thread
    /// and — when durability is configured — performs the final flush:
    /// one WAL sync plus one snapshot of the surviving sessions, so a
    /// restart recovers without replaying the tail.
    ///
    /// `Err` means the server stopped but the final flush failed — the
    /// last accepted batches may not be durable. Callers that promised
    /// durability to their clients must surface this (the CLI and
    /// `stream_replay` exit non-zero).
    pub fn stop(&mut self) -> Result<(), String> {
        if !self.running.swap(false, Ordering::SeqCst) {
            return Ok(());
        }
        // Not ready anymore: routers health-checking mid-shutdown see a
        // 503 instead of racing the dying acceptor.
        self.state.ready.store(false, Ordering::SeqCst);
        // The reactor stops accepting, closes idle connections and
        // drains in-flight responses (bounded by its drain grace).
        if let Some(reactor) = self.reactor.take() {
            reactor.shutdown();
        }
        if let Some(t) = self.sweep_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.wal_thread.take() {
            let _ = t.join();
        }
        // The reactor has exited, so ours is the last reference:
        // dropping it shuts the pool down gracefully — already-queued
        // request tasks are served to completion, then workers are
        // joined. Only after that drain is the engine quiescent enough
        // for the final flush below to cover every accepted point.
        self.runtime.take();

        let mut errors = Vec::new();
        if let Some(res) = self.durability.take() {
            if let Err(e) = res.wal.sync() {
                errors.push(format!("final wal sync: {e}"));
            }
            match write_snapshot(
                &self.state.engine,
                &res.store,
                &res.wal,
                &self.state.metrics,
            ) {
                Ok(_) => {}
                Err(e) => errors.push(format!("final snapshot: {e}")),
            }
            self.state.sync_ingest_metrics();
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Drop still drains and flushes; failures have nowhere to go
        // from a destructor, so callers that care call stop() directly.
        let _ = self.stop();
    }
}

/// Binds `addr` and serves `registry` until the handle is stopped.
///
/// `addr` may use port 0 to let the OS pick; read the effective address
/// off the handle.
pub fn serve(
    addr: &str,
    registry: ModelRegistry,
    config: ServerConfig,
) -> Result<ServerHandle, String> {
    if registry.is_empty() {
        return Err("refusing to serve an empty model registry".to_owned());
    }
    let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let local_addr = listener.local_addr().map_err(|e| e.to_string())?;

    let metrics = Arc::new(ServeMetrics::new(&registry.names()));

    let engine = traj_stream::StreamEngine::new(config.stream);
    let batcher = MicroBatcher::new(config.batch, Arc::clone(&metrics));
    let state = Arc::new(AppState {
        registry: RwLock::new(registry),
        metrics: Arc::clone(&metrics),
        batcher,
        engine,
        shard_id: config.shard_id,
        ready: AtomicBool::new(false),
        durability: OnceLock::new(),
        idem: Mutex::new(IdemCache::default()),
        net: OnceLock::new(),
    });
    let running = Arc::new(AtomicBool::new(true));

    // The reactor starts BEFORE recovery: liveness (`/healthz`) and the
    // admin surface answer immediately, while traffic endpoints 503
    // until the `ready` flip below. One event-loop thread owns every
    // connection; only *complete* requests become tasks on a dedicated
    // work-stealing pool (never the shared compute pool: request tasks
    // block on the micro-batcher's flush). Queueing and shutdown
    // draining come with the pool.
    let workers = config.workers.max(1);
    let runtime = Arc::new(traj_runtime::Runtime::named(workers, "traj-serve"));

    let service = Arc::new(ServeService {
        state: Arc::clone(&state),
        runtime: Arc::clone(&runtime),
    });
    let reactor = traj_net::spawn(
        listener,
        traj_net::ReactorConfig {
            name: "traj-serve".to_owned(),
            max_body_bytes: config.max_body_bytes,
            idle_timeout: config.read_timeout,
            write_stall_timeout: config.write_stall_timeout,
            max_connections: config.max_connections,
            ..traj_net::ReactorConfig::default()
        },
        service,
    )
    .map_err(|e| format!("spawning connection reactor: {e}"))?;
    let _ = state.net.set(reactor.stats());

    // Durable ingest: recover stream state from snapshot + WAL replay.
    // serve() only returns once recovery finished, so in-process callers
    // still get a fully-ready server; concurrent clients see 503s on
    // traffic endpoints meanwhile.
    let mut durability: Option<DurabilityResources> = None;
    if let Some(d) = &config.durability {
        let store = SnapshotStore::open(d.dir.join("snapshots"))
            .map_err(|e| format!("opening snapshot dir under {}: {e}", d.dir.display()))?;
        let (wal, open_report) = Wal::open(WalConfig {
            dir: d.dir.join("wal"),
            segment_bytes: d.segment_bytes,
            fsync: d.fsync,
        })
        .map_err(|e| format!("opening wal under {}: {e}", d.dir.display()))?;
        let wal = Arc::new(wal);
        let report = traj_stream::recover(&state.engine, &store, &wal)
            .map_err(|e| format!("recovering stream state: {e}"))?;
        for diag in open_report.diagnostics.iter().chain(&report.diagnostics) {
            eprintln!("traj-serve durability: {diag}");
        }
        state.engine.attach_wal(Arc::clone(&wal));
        metrics.durability.enable();
        metrics.durability.record_recovery(&report);
        let fsync_metrics = Arc::clone(&metrics);
        wal.set_sync_observer(Box::new(move |us| {
            fsync_metrics.durability.fsync_us.record(us);
        }));
        let store = Arc::new(store);
        let _ = state.durability.set(DurabilityHandles {
            wal: Arc::clone(&wal),
            store: Arc::clone(&store),
        });
        durability = Some(DurabilityResources {
            wal,
            store,
            recovered_lsn: report.snapshot_lsn,
        });
    }

    // Registry warm-up: resolve every key once so first requests pay no
    // lazy cost, then open the traffic gate.
    {
        let registry = state.registry.read().expect("registry poisoned");
        for key in registry.keys() {
            let _ = registry.get(Some(&key));
        }
    }
    state.ready.store(true, Ordering::SeqCst);

    // WAL maintenance: drives the interval fsync policy and writes a
    // snapshot (then truncates the WAL) whenever the log advanced since
    // the last one.
    let mut wal_thread = None;
    if let (Some(res), Some(d)) = (&durability, &config.durability) {
        let wal = Arc::clone(&res.wal);
        let store = Arc::clone(&res.store);
        let thread_state = Arc::clone(&state);
        let thread_running = Arc::clone(&running);
        let interval = d.snapshot_interval;
        let mut last_written = res.recovered_lsn;
        wal_thread = Some(
            std::thread::Builder::new()
                .name("traj-serve-wal".to_owned())
                .spawn(move || {
                    let mut last_snapshot = Instant::now();
                    while thread_running.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(25));
                        // A failed tick poisons the WAL; the next append
                        // surfaces it as a 500, so nothing to do here.
                        let _ = wal.tick();
                        if last_snapshot.elapsed() < interval {
                            continue;
                        }
                        last_snapshot = Instant::now();
                        thread_state.sync_ingest_metrics();
                        if wal.last_lsn() == last_written {
                            continue; // nothing new to cover
                        }
                        match write_snapshot(
                            &thread_state.engine,
                            &store,
                            &wal,
                            &thread_state.metrics,
                        ) {
                            Ok(lsn) => last_written = lsn,
                            Err(e) => {
                                thread_state
                                    .metrics
                                    .durability
                                    .snapshot_errors
                                    .fetch_add(1, Ordering::Relaxed);
                                eprintln!("traj-serve durability: {e}");
                            }
                        }
                    }
                })
                .map_err(|e| format!("spawning wal maintenance: {e}"))?,
        );
    }

    // Idle-session sweeper: closes sessions with no recent points so
    // abandoned streams release their state. The resulting segments have
    // no waiting requester; they only feed the metrics.
    let sweep_state = Arc::clone(&state);
    let sweep_running = Arc::clone(&running);
    let sweep_interval = config.idle_sweep_interval;
    let sweep_thread = std::thread::Builder::new()
        .name("traj-serve-sweep".to_owned())
        .spawn(move || {
            let mut last_sweep = Instant::now();
            while sweep_running.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
                if last_sweep.elapsed() < sweep_interval {
                    continue;
                }
                last_sweep = Instant::now();
                for closed in sweep_state.engine.sweep_idle() {
                    sweep_state.metrics.ingest.record_close(
                        None,
                        closed.exact,
                        closed.sketch_drift,
                    );
                }
                sweep_state.sync_ingest_metrics();
            }
        })
        .map_err(|e| format!("spawning sweeper: {e}"))?;

    Ok(ServerHandle {
        addr: local_addr,
        running,
        reactor: Some(reactor),
        sweep_thread: Some(sweep_thread),
        wal_thread,
        runtime: Some(runtime),
        state,
        durability,
        metrics,
    })
}

/// The reactor→worker bridge: every complete request becomes one task
/// on the dedicated pool, which routes it and hands the response back
/// to the reactor through the [`traj_net::Responder`]. The latency
/// clock starts *before* the spawn so queue wait inside the pool counts
/// toward the recorded latency, exactly like the per-connection-thread
/// model it replaces.
struct ServeService {
    state: Arc<AppState>,
    runtime: Arc<traj_runtime::Runtime>,
}

impl traj_net::Service for ServeService {
    fn call(&self, request: traj_net::Request, responder: traj_net::Responder) {
        let started = Instant::now();
        let state = Arc::clone(&self.state);
        self.runtime.spawn(move || {
            let response = route(&state, &request.method, &request.path, &request.body);
            state
                .metrics
                .record_response(response.status, started.elapsed().as_micros() as u64);
            responder.send(response.status, response.body, response.retry_after);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{ModelArtifact, TrainSpec};
    use std::io::BufReader as ClientBufReader;
    use std::net::TcpStream;
    use traj_geolife::{SynthConfig, SynthDataset};
    use traj_net::client::request as client_request;

    fn test_registry() -> (ModelRegistry, Vec<traj_geo::Segment>) {
        let segs = SynthDataset::generate(&SynthConfig {
            n_users: 4,
            segments_per_user: (4, 6),
            seed: 23,
            ..SynthConfig::default()
        })
        .segments;
        let spec = TrainSpec {
            kind: traj_ml::ClassifierKind::DecisionTree,
            ..TrainSpec::paper_default("tree")
        };
        let mut reg = ModelRegistry::new();
        reg.insert(ModelArtifact::train(&spec, &segs).unwrap())
            .unwrap();
        (reg, segs)
    }

    fn body_of(segment: &traj_geo::Segment) -> String {
        let points: Vec<String> = segment
            .points
            .iter()
            .map(|p| format!("{{\"lat\":{},\"lon\":{},\"t\":{}}}", p.lat, p.lon, p.t.0))
            .collect();
        format!("{{\"points\":[{}]}}", points.join(","))
    }

    /// An `/ingest` body for `user` carrying `segment`'s points.
    fn ingest_body_of(segment: &traj_geo::Segment, user: u32) -> String {
        body_of(segment).replacen('{', &format!("{{\"user\":{user},"), 1)
    }

    /// `body` with the first point's latitude written as `lat`.
    fn with_first_lat(body: &str, segment: &traj_geo::Segment, lat: &str) -> String {
        let first = format!("\"lat\":{}", segment.points[0].lat);
        assert!(body.contains(&first));
        body.replacen(&first, &format!("\"lat\":{lat}"), 1)
    }

    #[test]
    fn server_round_trips_predict_and_metrics() {
        let (registry, segs) = test_registry();
        let mut handle = serve(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("bind");

        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut client = ClientBufReader::new(stream);

        let (status, body) = client_request(&mut client, "GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"tree\""));

        let seg = segs.iter().find(|s| s.len() >= 10).expect("long segment");
        let (status, body) =
            client_request(&mut client, "POST", "/predict", Some(&body_of(seg))).expect("predict");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"label\":"));

        let (status, body) =
            client_request(&mut client, "POST", "/predict", Some("{not json")).expect("bad json");
        assert_eq!(status, 400, "{body}");

        let (status, body) = client_request(&mut client, "GET", "/metrics", None).expect("metrics");
        assert_eq!(status, 200);
        assert!(body.contains("\"requests_total\""));
        assert!(body.contains("\"durability\""));

        handle.stop().expect("stop");
    }

    #[test]
    fn refuses_empty_registry() {
        assert!(serve("127.0.0.1:0", ModelRegistry::new(), ServerConfig::default()).is_err());
    }

    #[test]
    fn readiness_gates_traffic_but_not_health_or_admin() {
        let (registry, segs) = test_registry();
        let mut handle = serve(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                workers: 1,
                shard_id: Some(3),
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        assert!(handle.is_ready());

        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut client = ClientBufReader::new(stream);
        let (status, body) = client_request(&mut client, "GET", "/readyz", None).expect("readyz");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"shard\": 3"), "{body}");

        // Drained: liveness and metrics still answer, traffic 503s.
        let (status, _) =
            client_request(&mut client, "POST", "/admin/drain", Some("{}")).expect("drain");
        assert_eq!(status, 200);
        assert!(!handle.is_ready());
        let (status, _) = client_request(&mut client, "GET", "/readyz", None).expect("readyz");
        assert_eq!(status, 503);
        let (status, body) = client_request(&mut client, "GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"ready\":false"), "{body}");
        let seg = segs.iter().find(|s| s.len() >= 10).expect("long segment");
        let (status, body) =
            client_request(&mut client, "POST", "/predict", Some(&body_of(seg))).expect("predict");
        assert_eq!(status, 503, "{body}");
        let (status, body) = client_request(&mut client, "GET", "/metrics", None).expect("metrics");
        assert_eq!(status, 200);
        assert!(body.contains("\"shard\": {\"id\": 3"), "{body}");

        // Back in rotation.
        let (status, _) =
            client_request(&mut client, "POST", "/admin/ready", Some("{}")).expect("ready");
        assert_eq!(status, 200);
        let (status, body) =
            client_request(&mut client, "POST", "/predict", Some(&body_of(seg))).expect("predict");
        assert_eq!(status, 200, "{body}");

        handle.stop().expect("stop");
    }

    #[test]
    fn artifact_stage_promote_rollback_over_dispatch() {
        let (registry, segs) = test_registry();
        let mut handle = serve(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .expect("bind");

        // Stage v2: pinned key serves, default stays v1.
        let spec = TrainSpec {
            kind: traj_ml::ClassifierKind::DecisionTree,
            version: 2,
            ..TrainSpec::paper_default("tree")
        };
        let v2 = ModelArtifact::train(&spec, &segs).unwrap();
        let (status, body) = handle.dispatch(
            "POST",
            "/admin/artifact/stage",
            v2.to_json().unwrap().as_bytes(),
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("tree@v2"), "{body}");

        let seg = segs.iter().find(|s| s.len() >= 10).expect("long segment");
        let (status, body) = handle.dispatch("POST", "/predict", body_of(seg).as_bytes());
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"version\":1"), "{body}");
        let pinned = body_of(seg).replacen('{', "{\"model\":\"tree@v2\",", 1);
        let (status, body) = handle.dispatch("POST", "/predict", pinned.as_bytes());
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"version\":2"), "{body}");

        // Promote: default traffic flips to v2 atomically.
        let (status, body) = handle.dispatch(
            "POST",
            "/admin/artifact/promote",
            b"{\"name\":\"tree\",\"version\":2}",
        );
        assert_eq!(status, 200, "{body}");
        let (status, body) = handle.dispatch("POST", "/predict", body_of(seg).as_bytes());
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"version\":2"), "{body}");

        // Rollback of the now-active version must refuse; a parked one
        // is removable.
        let (status, body) = handle.dispatch(
            "POST",
            "/admin/artifact/rollback",
            b"{\"name\":\"tree\",\"version\":2}",
        );
        assert_eq!(status, 409, "{body}");
        let (status, body) = handle.dispatch(
            "POST",
            "/admin/artifact/promote",
            b"{\"name\":\"tree\",\"version\":1}",
        );
        assert_eq!(status, 200, "{body}");
        let (status, body) = handle.dispatch(
            "POST",
            "/admin/artifact/rollback",
            b"{\"name\":\"tree\",\"version\":2}",
        );
        assert_eq!(status, 200, "{body}");
        let (status, _) = handle.dispatch("POST", "/predict", pinned.as_bytes());
        assert_eq!(status, 404);

        handle.stop().expect("stop");
    }

    #[test]
    fn handoff_export_import_moves_sessions() {
        let (registry, segs) = test_registry();
        let (registry2, _) = test_registry();
        let mut source = serve("127.0.0.1:0", registry, ServerConfig::default()).expect("bind");
        let mut target = serve("127.0.0.1:0", registry2, ServerConfig::default()).expect("bind");

        // Open two streams on the source (no flush: sessions stay open).
        let seg = segs.iter().find(|s| s.len() >= 10).expect("long segment");
        for user in [7u32, 11] {
            let body = body_of(seg).replacen('{', &format!("{{\"user\":{user},"), 1);
            let (status, body) = source.dispatch("POST", "/ingest", body.as_bytes());
            assert_eq!(status, 200, "{body}");
        }
        let (status, body) = source.dispatch("GET", "/admin/sessions", b"");
        assert_eq!(status, 200);
        assert!(body.contains("[7,11]"), "{body}");

        // Export 7 off the source: a pure copy — the source still owns
        // the session until the explicit evict below.
        let (status, export) = source.dispatch("POST", "/admin/handoff/export", b"{\"users\":[7]}");
        assert_eq!(status, 200, "{export}");
        let (_, body) = source.dispatch("GET", "/admin/sessions", b"");
        assert!(body.contains("[7,11]"), "export must not drain: {body}");
        let sessions = export.trim_start_matches("{\"sessions\": ");
        let import = format!("{{\"sessions\": {}", sessions);
        let (status, body) = target.dispatch("POST", "/admin/handoff/import", import.as_bytes());
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"imported\": 1"), "{body}");
        let (status, body) = source.dispatch("POST", "/admin/handoff/evict", b"{\"users\":[7]}");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"evicted\": 1"), "{body}");

        let (_, body) = source.dispatch("GET", "/admin/sessions", b"");
        assert!(body.contains("[11]"), "{body}");
        let (_, body) = target.dispatch("GET", "/admin/sessions", b"");
        assert!(body.contains("[7]"), "{body}");

        // The moved stream keeps flowing on its new owner.
        let shifted: String = {
            let points: Vec<String> = seg
                .points
                .iter()
                .map(|p| {
                    format!(
                        "{{\"lat\":{},\"lon\":{},\"t\":{}}}",
                        p.lat,
                        p.lon,
                        p.t.0 + 1_000_000_000
                    )
                })
                .collect();
            format!(
                "{{\"user\":7,\"flush\":true,\"points\":[{}]}}",
                points.join(",")
            )
        };
        let (status, body) = target.dispatch("POST", "/ingest", shifted.as_bytes());
        assert_eq!(status, 200, "{body}");

        // Corrupt hex is a 422, not a panic — including multibyte UTF-8,
        // which would panic a byte-indexed &str slice mid-character.
        let (status, _) = target.dispatch(
            "POST",
            "/admin/handoff/import",
            b"{\"sessions\":[{\"user\":9,\"hex\":\"zz\"}]}",
        );
        assert_eq!(status, 422);
        let (status, _) = target.dispatch(
            "POST",
            "/admin/handoff/import",
            "{\"sessions\":[{\"user\":9,\"hex\":\"a\u{00e9}\u{00e9}a\"}]}".as_bytes(),
        );
        assert_eq!(status, 422);

        source.stop().expect("stop source");
        target.stop().expect("stop target");
    }

    #[test]
    fn keyed_ingest_retry_replays_without_double_apply() {
        let (registry, segs) = test_registry();
        let mut handle = serve("127.0.0.1:0", registry, ServerConfig::default()).expect("bind");
        let seg = segs.iter().find(|s| s.len() >= 10).expect("long segment");

        // The same keyed request twice: the replay must return the
        // recorded response and must NOT push the points again.
        let body = body_of(seg).replacen('{', "{\"user\":3,\"idem\":42,", 1);
        let (status, first) = handle.dispatch("POST", "/ingest", body.as_bytes());
        assert_eq!(status, 200, "{first}");
        let (status, replay) = handle.dispatch("POST", "/ingest", body.as_bytes());
        assert_eq!(status, 200);
        assert_eq!(first, replay, "replay must be the recorded response");
        let (_, metrics) = handle.dispatch("GET", "/metrics", b"");
        assert!(
            metrics.contains(&format!("\"points_total\": {}", seg.len())),
            "points were double-applied: {metrics}"
        );

        // A different key applies normally (fresh user: re-sending the
        // same timestamps to user 3 would be dropped as stale).
        let body2 = body_of(seg).replacen('{', "{\"user\":4,\"idem\":43,", 1);
        let (status, second) = handle.dispatch("POST", "/ingest", body2.as_bytes());
        assert_eq!(status, 200, "{second}");
        let (_, metrics) = handle.dispatch("GET", "/metrics", b"");
        assert!(
            metrics.contains(&format!("\"points_total\": {}", 2 * seg.len())),
            "{metrics}"
        );

        handle.stop().expect("stop");
    }

    #[test]
    fn unfitted_model_maps_to_conflict() {
        let (_, segs) = test_registry();
        // An artifact whose model never saw fit(): the typed NotFitted
        // error must surface as 409, not a worker panic or a 500.
        let spec = TrainSpec {
            kind: traj_ml::ClassifierKind::DecisionTree,
            ..TrainSpec::paper_default("hollow")
        };
        let mut artifact = ModelArtifact::train(&spec, &segs).unwrap();
        artifact.model = traj_ml::ErasedModel::new(spec.kind, 0);
        let mut registry = ModelRegistry::new();
        registry.insert(artifact).unwrap();

        let mut handle = serve(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut client = ClientBufReader::new(stream);

        let seg = segs.iter().find(|s| s.len() >= 10).expect("long segment");
        let (status, body) =
            client_request(&mut client, "POST", "/predict", Some(&body_of(seg))).expect("predict");
        assert_eq!(status, 409, "{body}");
        assert!(body.contains("unfitted"), "{body}");

        let points_json = body_of(seg); // {"points":[...]}
        let batch = format!(
            "{{\"segments\":[{}]}}",
            &points_json[10..points_json.len() - 1]
        );
        let (status, body) = client_request(&mut client, "POST", "/predict_batch", Some(&batch))
            .expect("predict_batch");
        assert_eq!(status, 409, "{body}");

        handle.stop().expect("stop");
    }

    #[test]
    fn ingest_out_of_range_point_is_422_and_the_user_keeps_streaming() {
        let (registry, segs) = test_registry();
        let mut handle = serve("127.0.0.1:0", registry, ServerConfig::default()).expect("bind");
        let seg = segs.iter().find(|s| s.len() >= 10).expect("long segment");
        let body = ingest_body_of(seg, 5);
        let bad = with_first_lat(&body, seg, "1000");
        let (status, reply) = handle.dispatch("POST", "/ingest", bad.as_bytes());
        assert_eq!(status, 422, "{reply}");
        assert!(reply.contains("latitude"), "{reply}");
        let (_, sessions) = handle.dispatch("GET", "/admin/sessions", b"");
        assert!(
            !sessions.contains("[5]"),
            "no point reached the engine: {sessions}"
        );

        let (status, reply) = handle.dispatch("POST", "/ingest", body.as_bytes());
        assert_eq!(status, 200, "{reply}");
        handle.stop().expect("stop");
    }

    #[test]
    fn predict_out_of_range_point_is_422() {
        let (registry, segs) = test_registry();
        let mut handle = serve("127.0.0.1:0", registry, ServerConfig::default()).expect("bind");
        let seg = segs.iter().find(|s| s.len() >= 10).expect("long segment");
        let body = body_of(seg);
        let bad = with_first_lat(&body, seg, "1000");
        let (status, reply) = handle.dispatch("POST", "/predict", bad.as_bytes());
        assert_eq!(status, 422, "{reply}");
        assert!(reply.contains("latitude"), "{reply}");

        // In a batch, only the bad segment's own item carries the error.
        let points = |b: &str| b["{\"points\":".len()..b.len() - 1].to_owned();
        let batch = format!("{{\"segments\":[{},{}]}}", points(&bad), points(&body));
        let (status, reply) = handle.dispatch("POST", "/predict_batch", batch.as_bytes());
        assert_eq!(status, 200, "{reply}");
        let doc = serde_json::parse_value(&reply).expect("valid JSON");
        let serde::Value::Map(doc) = doc else {
            panic!("{reply}")
        };
        let Some(serde::Value::Seq(results)) = serde::map_get(&doc, "results") else {
            panic!("{reply}")
        };
        let error = |i: usize| match &results[i] {
            serde::Value::Map(item) => serde::map_get(item, "error").cloned(),
            _ => None,
        };
        assert!(matches!(error(0), Some(serde::Value::Str(e)) if e.contains("latitude")));
        assert_eq!(error(1), Some(serde::Value::Null), "{reply}");
        handle.stop().expect("stop");
    }

    #[test]
    fn ingest_overflowing_latitude_is_400_and_ingest_keeps_serving() {
        // `1e400` used to decode to +inf and panic a session's quantile
        // sketch while it held the engine shard's lock, poisoning
        // `/ingest` for every user.
        let (registry, segs) = test_registry();
        let mut handle = serve("127.0.0.1:0", registry, ServerConfig::default()).expect("bind");
        let seg = segs.iter().find(|s| s.len() >= 10).expect("long segment");
        let bad = with_first_lat(&ingest_body_of(seg, 1), seg, "1e400");
        let (status, reply) = handle.dispatch("POST", "/ingest", bad.as_bytes());
        assert_eq!(status, 400, "{reply}");
        let (status, reply) = handle.dispatch("POST", "/ingest", ingest_body_of(seg, 2).as_bytes());
        assert_eq!(status, 200, "{reply}");
        handle.stop().expect("stop");
    }
}
