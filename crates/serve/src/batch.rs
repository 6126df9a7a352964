//! SLO-aware micro-batching: concurrent prediction jobs are coalesced
//! into batches by a pluggable scheduling policy, behind bounded-queue
//! admission control.
//!
//! Feature extraction stays on the request workers (it is per-segment and
//! embarrassingly parallel); only the scaled model-input rows flow through
//! the batcher. A flush groups the queued jobs by model and pushes each
//! group through [`LoadedModel::predict_scaled_batch`] — one compiled
//! level-synchronous traversal per model instead of a per-row walk. Each
//! job carries a reply channel; callers block on it.
//!
//! Two policies are available (see [`SchedulerPolicy`]), both proven in
//! the `traj-sim` discrete-event simulator before landing here:
//!
//! * **Fixed** — the classic `max_batch`/`max_delay` rule. Under
//!   closed-loop load below `max_batch` concurrency it is *wait-bound*:
//!   every batch pays the full `max_delay`, capping throughput at
//!   roughly `connections / max_delay` regardless of CPU headroom.
//! * **Adaptive** — deadline-driven (Nexus-style): never wait while the
//!   executor is idle, size each flush from queue depth, and cap it so
//!   the oldest job's predicted completion (from an online EWMA
//!   service-time model) still meets its `slo` deadline. Batch size
//!   self-regulates: under load, jobs accumulate *during* the previous
//!   flush, so batches grow exactly when batching pays.
//!
//! Admission control sheds work *before* it queues: when the queue holds
//! `queue_cap` jobs, interactive submissions are rejected with a
//! [`ShedError`] carrying a drain-time `Retry-After` estimate; bulk
//! submissions are rejected at half the cap so interactive headroom
//! survives a bulk flood; close-time jobs (`/ingest`) are never shed —
//! the stream engine already consumed the segment, so the prediction is
//! paid-for work. Every admitted job is answered exactly once, including
//! across shutdown: jobs still queued when the batcher stops receive
//! [`PredictError::ShuttingDown`] instead of a dropped channel.

use crate::metrics::ServeMetrics;
use crate::registry::{LoadedModel, Prediction};
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use traj_ml::{PredictError, RowMatrix};
use traj_sim::{adaptive_batch_size, Class};

/// Which batching policy the flush thread runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Flush on size or age — the pre-SLO default, kept as the
    /// benchmark baseline and for explicit opt-in.
    Fixed {
        /// Flush when this many jobs are queued.
        max_batch: usize,
        /// Flush when the oldest *visible* job is this old.
        max_delay: Duration,
    },
    /// Deadline-driven adaptive batching (the default).
    Adaptive {
        /// Hard flush-size cap (bounds scratch memory).
        max_batch: usize,
    },
}

impl SchedulerPolicy {
    /// The policy's flush-size cap.
    pub fn max_batch(&self) -> usize {
        match *self {
            SchedulerPolicy::Fixed { max_batch, .. } => max_batch,
            SchedulerPolicy::Adaptive { max_batch } => max_batch,
        }
    }

    /// Display name.
    pub fn as_str(&self) -> &'static str {
        match self {
            SchedulerPolicy::Fixed { .. } => "fixed",
            SchedulerPolicy::Adaptive { .. } => "adaptive",
        }
    }
}

/// Scheduling configuration of the [`MicroBatcher`].
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// The batching policy.
    pub policy: SchedulerPolicy,
    /// Per-job scheduling deadline, measured from admission; the
    /// adaptive policy sizes batches to hold it and `/metrics` counts
    /// misses against it.
    pub slo: Duration,
    /// Admission cap on queued jobs; 0 disables shedding.
    pub queue_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            policy: SchedulerPolicy::Adaptive { max_batch: 128 },
            slo: Duration::from_millis(50),
            queue_cap: 1024,
        }
    }
}

impl BatchConfig {
    /// The pre-SLO fixed policy (`max_batch` = 32, `max_delay` = 2 ms)
    /// with this config's SLO and cap — the benchmark baseline.
    pub fn fixed_baseline() -> BatchConfig {
        BatchConfig {
            policy: SchedulerPolicy::Fixed {
                max_batch: 32,
                max_delay: Duration::from_millis(2),
            },
            ..BatchConfig::default()
        }
    }
}

/// An admission rejection: the queue is full for this priority class.
/// Maps to HTTP 429 with a `Retry-After` derived from `retry_after`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedError {
    /// Estimated time until the queue drains below the cap.
    pub retry_after: Duration,
}

/// One queued prediction.
struct Job {
    model: Arc<LoadedModel>,
    row: Vec<f64>,
    reply: SyncSender<Result<Prediction, PredictError>>,
    enqueued: Instant,
    deadline: Instant,
}

/// Online EWMA estimate of flush duration per power-of-two batch-size
/// bucket — the serving twin of the simulator's fitted affine
/// [`traj_sim::ServiceModel`], learned on the fly instead of offline.
#[derive(Debug, Clone)]
struct ServiceEstimator {
    /// `ewma_ns[i]` covers batch sizes in `(2^(i-1), 2^i]`.
    ewma_ns: [f64; Self::BUCKETS],
    seen: [bool; Self::BUCKETS],
}

impl ServiceEstimator {
    const BUCKETS: usize = 13; // batch sizes up to 4096
    const ALPHA: f64 = 0.3;

    fn new() -> ServiceEstimator {
        ServiceEstimator {
            ewma_ns: [0.0; Self::BUCKETS],
            seen: [false; Self::BUCKETS],
        }
    }

    fn bucket(batch: usize) -> usize {
        let b = batch.max(1);
        if b == 1 {
            0
        } else {
            ((b - 1).ilog2() as usize + 1).min(Self::BUCKETS - 1)
        }
    }

    fn observe(&mut self, batch: usize, dur_ns: f64) {
        let i = Self::bucket(batch);
        self.ewma_ns[i] = if self.seen[i] {
            (1.0 - Self::ALPHA) * self.ewma_ns[i] + Self::ALPHA * dur_ns
        } else {
            dur_ns
        };
        self.seen[i] = true;
    }

    /// Predicted flush duration for `batch` rows, ns. Unseen buckets
    /// extrapolate from the nearest observed one (scaling up per-row
    /// from below, taking the pessimistic value from above); with no
    /// observations at all the estimate is 0 — optimistically large
    /// first batches, corrected after one flush.
    fn estimate_ns(&self, batch: usize) -> u64 {
        let i = Self::bucket(batch);
        if self.seen[i] {
            return self.ewma_ns[i] as u64;
        }
        for d in 1..Self::BUCKETS {
            if i >= d && self.seen[i - d] {
                let scale = batch.max(1) as f64 / (1usize << (i - d)) as f64;
                return (self.ewma_ns[i - d] * scale) as u64;
            }
            if i + d < Self::BUCKETS && self.seen[i + d] {
                return self.ewma_ns[i + d] as u64;
            }
        }
        0
    }

    /// Estimated time to drain `depth` queued jobs in `max_batch`-sized
    /// flushes — the `Retry-After` hint on sheds.
    fn drain_estimate(&self, depth: usize, max_batch: usize) -> Duration {
        let per = self.estimate_ns(depth.min(max_batch));
        let flushes = depth.div_ceil(max_batch.max(1)) as u64;
        let ns = (per * flushes).clamp(1_000_000, 2_000_000_000);
        Duration::from_nanos(ns)
    }
}

/// Queue state shared between submitters and the flush thread.
struct Inner {
    /// One FIFO per priority class, drained highest class first.
    queues: [VecDeque<Job>; 3],
    /// Total queued jobs across classes.
    depth: usize,
    shutdown: bool,
    est: ServiceEstimator,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Signals the flush thread: new job, or shutdown.
    cond: Condvar,
}

/// Handle to the batching thread. Dropping it stops the thread; queued
/// jobs are answered with [`PredictError::ShuttingDown`], never dropped.
pub struct MicroBatcher {
    shared: Arc<Shared>,
    config: BatchConfig,
    metrics: Arc<ServeMetrics>,
    worker: Option<JoinHandle<()>>,
}

impl MicroBatcher {
    /// Spawns the batching thread.
    pub fn new(config: BatchConfig, metrics: Arc<ServeMetrics>) -> MicroBatcher {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                depth: 0,
                shutdown: false,
                est: ServiceEstimator::new(),
            }),
            cond: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread_metrics = Arc::clone(&metrics);
        let worker = std::thread::Builder::new()
            .name("traj-serve-batcher".to_owned())
            .spawn(move || batch_loop(&thread_shared, config, &thread_metrics))
            .expect("spawn batcher thread");
        MicroBatcher {
            shared,
            config,
            metrics,
            worker: Some(worker),
        }
    }

    /// Enqueues one scaled row for `model` at `priority`.
    ///
    /// On admission the prediction arrives on the returned channel after
    /// the batch it joins is flushed (a [`PredictError::ShuttingDown`]
    /// reply if the batcher stops first). A full queue rejects
    /// synchronously with [`ShedError`] — nothing was enqueued and no
    /// reply will arrive.
    pub fn submit(
        &self,
        model: Arc<LoadedModel>,
        row: Vec<f64>,
        priority: Class,
    ) -> Result<Receiver<Result<Prediction, PredictError>>, ShedError> {
        let (reply, result) = sync_channel(1);
        let mut inner = self.shared.inner.lock().expect("batcher lock");
        if inner.shutdown {
            // Typed terminal reply instead of a dropped channel.
            self.metrics
                .scheduler
                .shutdown_rejects
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let _ = reply.send(Err(PredictError::ShuttingDown));
            return Ok(result);
        }
        let cap = self.config.queue_cap;
        if cap > 0 {
            let limit = match priority {
                Class::Interactive => Some(cap),
                // Never shed close-time jobs: the stream engine already
                // consumed the segment.
                Class::Close => None,
                Class::Bulk => Some((cap / 2).max(1)),
            };
            if limit.is_some_and(|l| inner.depth >= l) {
                let retry_after = inner
                    .est
                    .drain_estimate(inner.depth, self.config.policy.max_batch().max(1));
                self.metrics.scheduler.record_shed(priority);
                return Err(ShedError { retry_after });
            }
        }
        let now = Instant::now();
        inner.queues[priority as usize].push_back(Job {
            model,
            row,
            reply,
            enqueued: now,
            deadline: now + self.config.slo,
        });
        inner.depth += 1;
        drop(inner);
        self.shared.cond.notify_one();
        Ok(result)
    }

    /// Jobs currently queued (all classes).
    pub fn queue_depth(&self) -> usize {
        self.shared.inner.lock().expect("batcher lock").depth
    }

    /// Begins shutdown without waiting for the worker: queued jobs are
    /// answered with [`PredictError::ShuttingDown`] and later submits
    /// are rejected the same way. `Drop` joins the worker thread.
    pub fn shutdown(&self) {
        self.shared.inner.lock().expect("batcher lock").shutdown = true;
        self.shared.cond.notify_all();
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn batch_loop(shared: &Shared, config: BatchConfig, metrics: &ServeMetrics) {
    let mut batch: Vec<Job> = Vec::new();
    let mut scratch = FlushScratch::default();
    // Fixed policy: absolute flush time, armed when the thread first
    // sees a job with the executor idle (this thread *is* the executor,
    // so "first sees" is exactly the old recv()-then-arm semantics).
    let mut armed: Option<Instant> = None;

    let mut inner = shared.inner.lock().expect("batcher lock");
    loop {
        if inner.shutdown {
            // Answer everything still queued; exactly-once, typed.
            for class in &mut inner.queues {
                for job in class.drain(..) {
                    let _ = job.reply.send(Err(PredictError::ShuttingDown));
                }
            }
            inner.depth = 0;
            return;
        }
        if inner.depth == 0 {
            armed = None;
            inner = shared.cond.wait(inner).expect("batcher lock");
            continue;
        }

        let now = Instant::now();
        let take = match config.policy {
            SchedulerPolicy::Fixed {
                max_batch,
                max_delay,
            } => {
                let max_batch = max_batch.max(1);
                if inner.depth >= max_batch {
                    armed = None;
                    max_batch
                } else {
                    let flush_at = *armed.get_or_insert(now + max_delay);
                    if now < flush_at {
                        let (guard, _) = shared
                            .cond
                            .wait_timeout(inner, flush_at - now)
                            .expect("batcher lock");
                        inner = guard;
                        continue; // re-check depth / shutdown / clock
                    }
                    armed = None;
                    inner.depth
                }
            }
            SchedulerPolicy::Adaptive { max_batch } => {
                let headroom = Class::ALL
                    .iter()
                    .filter_map(|&p| inner.queues[p as usize].front())
                    .map(|job| job.deadline)
                    .min()
                    .expect("depth > 0")
                    .saturating_duration_since(now);
                adaptive_batch_size(inner.depth, max_batch, headroom.as_nanos() as u64, |b| {
                    inner.est.estimate_ns(b)
                })
            }
        };

        // Pop `take` jobs in priority order, recording queue wait.
        for class in Class::ALL {
            while batch.len() < take {
                let Some(job) = inner.queues[class as usize].pop_front() else {
                    break;
                };
                metrics
                    .scheduler
                    .queue_wait_us
                    .record(now.saturating_duration_since(job.enqueued).as_micros() as u64);
                batch.push(job);
            }
        }
        inner.depth -= batch.len();
        drop(inner); // flush outside the lock: submits stay non-blocking

        metrics.batch_size.record(batch.len() as u64);
        let rows = batch.len();
        let started = Instant::now();
        flush(&batch, &mut scratch, metrics);
        let elapsed = started.elapsed();
        let done = started + elapsed;
        let misses = batch.iter().filter(|j| done > j.deadline).count();
        if misses > 0 {
            metrics
                .scheduler
                .deadline_misses
                .fetch_add(misses as u64, std::sync::atomic::Ordering::Relaxed);
        }
        batch.clear();

        inner = shared.inner.lock().expect("batcher lock");
        inner.est.observe(rows, elapsed.as_nanos() as f64);
    }
}

/// Per-flush scratch, reused across flushes so the steady state
/// allocates nothing: one row matrix (re-armed per group via
/// [`RowMatrix::reset`]) and the model-grouping table.
#[derive(Default)]
struct FlushScratch {
    rows: RowMatrix,
    groups: Vec<(Arc<LoadedModel>, Vec<usize>)>,
}

/// Answers every job of one flush: jobs are grouped by model (a batch
/// usually holds one, `Arc::ptr_eq` keeps grouping O(groups·jobs)), each
/// group runs as one call to [`LoadedModel::predict_scaled_batch`], and
/// per-group errors fan back out to every affected reply channel.
fn flush(batch: &[Job], scratch: &mut FlushScratch, metrics: &ServeMetrics) {
    scratch.groups.clear();
    for (i, job) in batch.iter().enumerate() {
        match scratch
            .groups
            .iter_mut()
            .find(|(model, _)| Arc::ptr_eq(model, &job.model))
        {
            Some((_, ixs)) => ixs.push(i),
            None => scratch.groups.push((Arc::clone(&job.model), vec![i])),
        }
    }

    for (model, ixs) in &scratch.groups {
        let width = model.input_width();
        let (ixs, bad): (Vec<usize>, Vec<usize>) =
            ixs.iter().partition(|&&i| batch[i].row.len() == width);
        for i in bad {
            let _ = batch[i].reply.send(Err(PredictError::WrongWidth {
                expected: width,
                got: batch[i].row.len(),
            }));
        }
        if ixs.is_empty() {
            continue;
        }
        scratch.rows.reset(width);
        for &i in &ixs {
            scratch.rows.push_row(&batch[i].row);
        }
        match model.predict_scaled_batch(&scratch.rows) {
            Ok(predictions) => {
                metrics.record_predictions(&model.artifact.name, ixs.len() as u64);
                for (&i, prediction) in ixs.iter().zip(predictions) {
                    let _ = batch[i].reply.send(Ok(prediction));
                }
            }
            Err(e) => {
                for &i in &ixs {
                    let _ = batch[i].reply.send(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{ModelArtifact, TrainSpec};
    use crate::registry::ModelRegistry;
    use traj_geolife::{SynthConfig, SynthDataset};

    fn loaded_model() -> Arc<LoadedModel> {
        let segs = SynthDataset::generate(&SynthConfig {
            n_users: 3,
            segments_per_user: (4, 6),
            seed: 13,
            ..SynthConfig::default()
        })
        .segments;
        let spec = TrainSpec {
            kind: traj_ml::ClassifierKind::DecisionTree,
            ..TrainSpec::paper_default("batcher-test")
        };
        let mut reg = ModelRegistry::new();
        reg.insert(ModelArtifact::train(&spec, &segs).unwrap())
            .unwrap();
        reg.get(None).unwrap()
    }

    #[test]
    fn batcher_answers_every_submission() {
        let model = loaded_model();
        let metrics = Arc::new(ServeMetrics::new(&["batcher-test".to_owned()]));
        let batcher = MicroBatcher::new(
            BatchConfig {
                policy: SchedulerPolicy::Fixed {
                    max_batch: 4,
                    max_delay: Duration::from_millis(5),
                },
                ..BatchConfig::default()
            },
            Arc::clone(&metrics),
        );

        let n_features = model.artifact.feature_names.len();
        let receivers: Vec<_> = (0..10)
            .map(|i| {
                batcher
                    .submit(
                        Arc::clone(&model),
                        vec![i as f64 * 0.05; n_features],
                        Class::Interactive,
                    )
                    .expect("admitted")
            })
            .collect();
        for rx in receivers {
            let pred = rx.recv().expect("reply").expect("fitted model");
            assert!(pred.class < model.artifact.scheme.n_classes());
        }
        assert!(metrics.batch_size.count() > 0);
        assert!(metrics.scheduler.queue_wait_us.count() >= 10);
        drop(batcher);
        // All 10 predictions were counted.
        assert!(metrics.render_json().contains("\"batcher-test\": 10"));
    }

    #[test]
    fn wrong_width_rows_error_instead_of_killing_the_batcher() {
        let model = loaded_model();
        let metrics = Arc::new(ServeMetrics::new(&["batcher-test".to_owned()]));
        let batcher = MicroBatcher::new(BatchConfig::default(), Arc::clone(&metrics));

        let bad = batcher
            .submit(Arc::clone(&model), vec![0.0; 3], Class::Interactive)
            .expect("admitted");
        let err = bad.recv().expect("reply").expect_err("width mismatch");
        assert!(matches!(err, PredictError::WrongWidth { .. }), "{err:?}");

        // The batcher thread survived: a well-formed row still answers.
        let n_features = model.artifact.feature_names.len();
        let good = batcher
            .submit(
                Arc::clone(&model),
                vec![0.1; n_features],
                Class::Interactive,
            )
            .expect("admitted");
        assert!(good.recv().expect("reply").is_ok());
    }

    #[test]
    fn submit_after_shutdown_replies_shutting_down() {
        let model = loaded_model();
        let metrics = Arc::new(ServeMetrics::new(&["batcher-test".to_owned()]));
        let batcher = MicroBatcher::new(BatchConfig::default(), Arc::clone(&metrics));
        // Simulate the race where a request worker holds the batcher
        // across shutdown: mark shutdown, keep the handle alive.
        {
            let mut inner = batcher.shared.inner.lock().unwrap();
            inner.shutdown = true;
        }
        batcher.shared.cond.notify_all();
        let n_features = model.artifact.feature_names.len();
        let rx = batcher
            .submit(
                Arc::clone(&model),
                vec![0.1; n_features],
                Class::Interactive,
            )
            .expect("typed reply, not a shed");
        assert_eq!(
            rx.recv().expect("reply"),
            Err(PredictError::ShuttingDown),
            "shutdown must answer with the typed error, not drop the channel"
        );
    }

    #[test]
    fn full_queue_sheds_bulk_before_interactive() {
        let model = loaded_model();
        let metrics = Arc::new(ServeMetrics::new(&["batcher-test".to_owned()]));
        let batcher = MicroBatcher::new(
            BatchConfig {
                queue_cap: 8,
                ..BatchConfig::default()
            },
            Arc::clone(&metrics),
        );
        // Wedge the queue by pre-filling while the flush thread is
        // blocked behind the lock.
        let n_features = model.artifact.feature_names.len();
        let mut receivers = Vec::new();
        {
            let mut inner = batcher.shared.inner.lock().unwrap();
            for _ in 0..8 {
                let (reply, rx) = sync_channel(1);
                let now = Instant::now();
                inner.queues[Class::Interactive as usize].push_back(Job {
                    model: Arc::clone(&model),
                    row: vec![0.1; n_features],
                    reply,
                    enqueued: now,
                    deadline: now + Duration::from_millis(50),
                });
                inner.depth += 1;
                receivers.push(rx);
            }
            // Depth 8 = cap: bulk (limit 4) and interactive (limit 8)
            // must both shed; close must not.
            drop(inner);
            let bulk = batcher.submit(Arc::clone(&model), vec![0.1; n_features], Class::Bulk);
            assert!(bulk.is_err(), "bulk must shed at cap");
            let interactive = batcher.submit(
                Arc::clone(&model),
                vec![0.1; n_features],
                Class::Interactive,
            );
            let shed = interactive.expect_err("interactive must shed at cap");
            assert!(shed.retry_after >= Duration::from_millis(1));
            let close = batcher
                .submit(Arc::clone(&model), vec![0.1; n_features], Class::Close)
                .expect("close is never shed");
            receivers.push(close);
        }
        batcher.shared.cond.notify_one();
        for rx in receivers {
            assert!(rx.recv().expect("reply").is_ok());
        }
        assert!(
            metrics
                .scheduler
                .shed_bulk
                .load(std::sync::atomic::Ordering::Relaxed)
                == 1
        );
        assert!(
            metrics
                .scheduler
                .shed_interactive
                .load(std::sync::atomic::Ordering::Relaxed)
                == 1
        );
    }

    #[test]
    fn service_estimator_extrapolates_sanely() {
        let mut est = ServiceEstimator::new();
        assert_eq!(est.estimate_ns(16), 0, "no data yet");
        est.observe(8, 80_000.0);
        assert_eq!(est.estimate_ns(8), 80_000);
        // Above the seen bucket: per-row scale-up from below.
        assert_eq!(est.estimate_ns(16), 160_000);
        // Below the seen bucket: pessimistic value from above.
        assert_eq!(est.estimate_ns(2), 80_000);
        // EWMA converges toward repeated observations.
        for _ in 0..50 {
            est.observe(8, 40_000.0);
        }
        let settled = est.estimate_ns(8);
        assert!((39_000..=41_000).contains(&settled), "{settled}");
        assert!(est.drain_estimate(100, 32) >= Duration::from_millis(1));
    }
}
