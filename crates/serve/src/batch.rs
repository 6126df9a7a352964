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
//! The queues, admission, the batching decision and the shutdown drain
//! are [`traj_sim::Scheduler`], the core the `traj-sim` discrete-event
//! simulator runs on virtual time; this module drives it on wall-clock
//! nanoseconds from one batcher thread and owns what the simulator does
//! not model: reply channels, the flush itself, metrics and the online
//! service-time estimate. Two policies are available (see
//! [`SchedulerKind`]):
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
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use traj_ml::{PredictError, RowMatrix};
pub use traj_sim::SchedulerKind;
use traj_sim::{Class, Decision, Queued, Scheduler};

/// Scheduling configuration of the [`MicroBatcher`].
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// The batching policy (adaptive by default).
    pub policy: SchedulerKind,
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
            policy: SchedulerKind::Adaptive { max_batch: 128 },
            slo: Duration::from_millis(50),
            queue_cap: 1024,
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
    sched: Scheduler<Job>,
    shutdown: bool,
    est: ServiceEstimator,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Signals the flush thread: new job, or shutdown.
    cond: Condvar,
    /// Zero of the nanosecond clock the scheduler runs on.
    epoch: Instant,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Handle to the batching thread. Dropping it stops the thread; queued
/// jobs are answered with [`PredictError::ShuttingDown`], never dropped.
pub struct MicroBatcher {
    shared: Arc<Shared>,
    metrics: Arc<ServeMetrics>,
    worker: Option<JoinHandle<()>>,
}

impl MicroBatcher {
    /// Spawns the batching thread.
    pub fn new(config: BatchConfig, metrics: Arc<ServeMetrics>) -> MicroBatcher {
        let slo_ns = u64::try_from(config.slo.as_nanos()).unwrap_or(u64::MAX);
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                sched: Scheduler::new(config.policy, slo_ns, config.queue_cap),
                shutdown: false,
                est: ServiceEstimator::new(),
            }),
            cond: Condvar::new(),
            epoch: Instant::now(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread_metrics = Arc::clone(&metrics);
        let worker = std::thread::Builder::new()
            .name("traj-serve-batcher".to_owned())
            .spawn(move || batch_loop(&thread_shared, &thread_metrics))
            .expect("spawn batcher thread");
        MicroBatcher {
            shared,
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
        let mut guard = self.shared.inner.lock().expect("batcher lock");
        if guard.shutdown {
            // Typed terminal reply instead of a dropped channel.
            self.metrics
                .scheduler
                .shutdown_rejects
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let _ = reply.send(Err(PredictError::ShuttingDown));
            return Ok(result);
        }
        let now = self.shared.now_ns();
        let inner = &mut *guard;
        let job = Job { model, row, reply };
        if inner.sched.admit(priority, job, now).is_err() {
            let max_batch = inner.sched.kind().max_batch().max(1);
            let retry_after = inner.est.drain_estimate(inner.sched.depth(), max_batch);
            self.metrics.scheduler.record_shed(priority);
            return Err(ShedError { retry_after });
        }
        drop(guard);
        self.shared.cond.notify_one();
        Ok(result)
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

fn batch_loop(shared: &Shared, metrics: &ServeMetrics) {
    let mut batch: Vec<Queued<Job>> = Vec::new();
    let mut scratch = FlushScratch::default();

    let mut guard = shared.inner.lock().expect("batcher lock");
    loop {
        let inner = &mut *guard;
        if inner.shutdown {
            // Answer everything still queued; exactly-once, typed.
            for job in inner.sched.drain() {
                let _ = job.reply.send(Err(PredictError::ShuttingDown));
            }
            return;
        }

        // This thread is the executor, so it first sees a job when it
        // polls: the fixed policy's timer anchors at `now`.
        let now = shared.now_ns();
        let est = &inner.est;
        match inner.sched.poll(now, now, |b| est.estimate_ns(b)) {
            Decision::Idle => {
                guard = shared.cond.wait(guard).expect("batcher lock");
                continue;
            }
            Decision::WaitUntil(at) => {
                let timeout = Duration::from_nanos(at - now);
                (guard, _) = shared
                    .cond
                    .wait_timeout(guard, timeout)
                    .expect("batcher lock");
                continue; // re-check shutdown / depth / clock
            }
            Decision::Flush(n) => batch.extend(inner.sched.pop(n)),
        }
        drop(guard); // flush outside the lock: submits stay non-blocking

        for queued in &batch {
            let wait_ns = now.saturating_sub(queued.enqueue_ns);
            metrics.scheduler.queue_wait_us.record(wait_ns / 1_000);
        }

        metrics.batch_size.record(batch.len() as u64);
        let rows = batch.len();
        let started = shared.now_ns();
        flush(&batch, &mut scratch, metrics);
        let done = shared.now_ns();
        let misses = batch.iter().filter(|q| done > q.deadline_ns).count();
        if misses > 0 {
            metrics
                .scheduler
                .deadline_misses
                .fetch_add(misses as u64, std::sync::atomic::Ordering::Relaxed);
        }
        batch.clear();

        guard = shared.inner.lock().expect("batcher lock");
        guard.est.observe(rows, done.saturating_sub(started) as f64);
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
fn flush(batch: &[Queued<Job>], scratch: &mut FlushScratch, metrics: &ServeMetrics) {
    scratch.groups.clear();
    for (i, Queued { job, .. }) in batch.iter().enumerate() {
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
            ixs.iter().partition(|&&i| batch[i].job.row.len() == width);
        for i in bad {
            let _ = batch[i].job.reply.send(Err(PredictError::WrongWidth {
                expected: width,
                got: batch[i].job.row.len(),
            }));
        }
        if ixs.is_empty() {
            continue;
        }
        scratch.rows.reset(width);
        for &i in &ixs {
            scratch.rows.push_row(&batch[i].job.row);
        }
        match model.predict_scaled_batch(&scratch.rows) {
            Ok(predictions) => {
                metrics.record_predictions(&model.artifact.name, ixs.len() as u64);
                for (&i, prediction) in ixs.iter().zip(predictions) {
                    let _ = batch[i].job.reply.send(Ok(prediction));
                }
            }
            Err(e) => {
                for &i in &ixs {
                    let _ = batch[i].job.reply.send(Err(e));
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
                policy: SchedulerKind::Fixed {
                    max_batch: 4,
                    max_delay_us: 5_000,
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
        // Wedge the queue by pre-filling through the scheduler while the
        // flush thread is blocked behind the lock (admitting here does
        // not wake it).
        let n_features = model.artifact.feature_names.len();
        let mut receivers = Vec::new();
        {
            let mut inner = batcher.shared.inner.lock().unwrap();
            for _ in 0..8 {
                let (reply, rx) = sync_channel(1);
                let job = Job {
                    model: Arc::clone(&model),
                    row: vec![0.1; n_features],
                    reply,
                };
                let now = batcher.shared.now_ns();
                assert!(inner.sched.admit(Class::Interactive, job, now).is_ok());
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
