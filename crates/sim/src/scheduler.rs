//! Pluggable batching policies.
//!
//! The simulator's schedulers mirror the real ones in
//! `traj_serve::batch` — same decision rules, same constants — so a
//! policy proven here transfers directly. [`SchedulerKind::Fixed`]
//! reproduces the pre-SLO `max_batch`/`max_delay` micro-batcher
//! (including its timer anchor: the delay clock starts when the batcher
//! thread *sees* the head job, not when the job arrived), and
//! [`SchedulerKind::Adaptive`] is the Nexus-style deadline-driven
//! policy: never wait while the executor is idle, and cap the flush size
//! so the oldest queued job's predicted completion still meets its
//! deadline.

use crate::service::ServiceModel;

/// Request priority class, highest first: the classes both this
/// simulator and `traj_serve::batch` schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `/predict` — a user is waiting.
    Interactive = 0,
    /// `/ingest` close-time predictions — work already paid for.
    Close = 1,
    /// `/predict_batch` — bulk scoring.
    Bulk = 2,
}

impl Class {
    /// All classes, highest priority first (drain order).
    pub const ALL: [Class; 3] = [Class::Interactive, Class::Close, Class::Bulk];

    /// Display name.
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Interactive => "interactive",
            Class::Close => "close",
            Class::Bulk => "bulk",
        }
    }
}

/// Which batching policy the simulated batcher runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Flush on size or age: the pre-SLO `traj-serve` default
    /// (`max_batch = 32`, `max_delay = 2 ms`).
    Fixed {
        /// Flush when this many jobs are queued.
        max_batch: usize,
        /// Flush when the head job has been *visible* this long, µs.
        max_delay_us: u64,
    },
    /// Deadline-driven adaptive batching: flush immediately whenever the
    /// executor is idle, sizing the batch from queue depth capped so the
    /// oldest job's deadline still holds under the service-time model.
    Adaptive {
        /// Hard flush-size cap (scratch-memory bound).
        max_batch: usize,
    },
}

impl SchedulerKind {
    /// Display name used in reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            SchedulerKind::Fixed { .. } => "fixed",
            SchedulerKind::Adaptive { .. } => "adaptive",
        }
    }
}

/// Everything a policy may consult when the executor is idle and jobs
/// are queued.
#[derive(Debug)]
pub struct QueueView<'a> {
    /// Simulation clock, ns.
    pub now_ns: u64,
    /// Queued jobs across all classes.
    pub depth: usize,
    /// Enqueue time of the oldest queued job, ns.
    pub oldest_enqueue_ns: u64,
    /// Deadline of the oldest queued job, ns.
    pub oldest_deadline_ns: u64,
    /// When the batcher thread last became schedulable, ns: the later
    /// of the executor going idle and a CPU core coming free (the fixed
    /// policy's timer anchor — the real batcher thread cannot see jobs
    /// mid-flush, nor while preprocessing saturates every core).
    pub idle_since_ns: u64,
    /// The fixed policy's latched delay timer, if armed. The real
    /// batcher arms the timer once per idle period and flushes whatever
    /// is queued when it fires: a job that enqueues late misses the
    /// round and waits out its own timer — it never postpones the
    /// cohort's flush.
    pub armed_flush_at_ns: Option<u64>,
    /// The service-time model.
    pub model: &'a ServiceModel,
}

/// A policy's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Pop this many jobs (priority order) and execute them now.
    Flush(usize),
    /// Re-poll at this absolute time (ns) unless something changes first.
    WaitUntil(u64),
}

/// The adaptive flush-size rule, shared verbatim with
/// `traj_serve::batch`: take everything queued up to `max_batch`, but
/// shrink while the predicted service time would push the oldest job
/// past its remaining headroom. If even a single-row flush misses the
/// deadline, the deadline is already lost — take the full batch and
/// maximize throughput instead.
pub fn adaptive_batch_size(
    depth: usize,
    max_batch: usize,
    headroom_ns: u64,
    service_ns: impl Fn(usize) -> u64,
) -> usize {
    let cap = depth.min(max_batch.max(1)).max(1);
    let mut b = cap;
    while b > 1 && service_ns(b) > headroom_ns {
        b -= 1;
    }
    if service_ns(b) <= headroom_ns {
        b
    } else {
        cap
    }
}

impl SchedulerKind {
    /// Decides what the batcher does given `view`. Only called when the
    /// executor is idle and at least one job is queued.
    pub fn poll(&self, view: &QueueView) -> Decision {
        match *self {
            SchedulerKind::Fixed {
                max_batch,
                max_delay_us,
            } => {
                if view.depth >= max_batch {
                    return Decision::Flush(max_batch);
                }
                // The real batcher arms its delay timer when the thread
                // receives the head job — the later of the job's enqueue
                // and the executor going idle — and then *latches* it:
                // later arrivals join the pending round, they do not
                // restart the clock.
                let deadline = view.armed_flush_at_ns.unwrap_or_else(|| {
                    view.oldest_enqueue_ns.max(view.idle_since_ns) + max_delay_us * 1_000
                });
                if view.now_ns >= deadline {
                    Decision::Flush(view.depth)
                } else {
                    Decision::WaitUntil(deadline)
                }
            }
            SchedulerKind::Adaptive { max_batch } => {
                let headroom = view.oldest_deadline_ns.saturating_sub(view.now_ns);
                Decision::Flush(adaptive_batch_size(view.depth, max_batch, headroom, |b| {
                    view.model.flush_ns(b)
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ServiceModel {
        ServiceModel {
            alpha_ns: 20_000.0,
            beta_ns: 3_000.0,
            pre_ns: 50_000.0,
        }
    }

    fn view(model: &ServiceModel, depth: usize, now_ns: u64) -> QueueView<'_> {
        QueueView {
            now_ns,
            depth,
            oldest_enqueue_ns: 0,
            oldest_deadline_ns: 10_000_000, // 10 ms SLO from enqueue at 0
            idle_since_ns: 0,
            armed_flush_at_ns: None,
            model,
        }
    }

    #[test]
    fn fixed_waits_out_the_delay_below_max_batch() {
        let m = model();
        let fixed = SchedulerKind::Fixed {
            max_batch: 32,
            max_delay_us: 2_000,
        };
        assert_eq!(fixed.poll(&view(&m, 4, 0)), Decision::WaitUntil(2_000_000));
        assert_eq!(fixed.poll(&view(&m, 4, 2_000_000)), Decision::Flush(4));
        assert_eq!(fixed.poll(&view(&m, 40, 10)), Decision::Flush(32));
    }

    #[test]
    fn fixed_anchors_the_timer_at_executor_idle() {
        let m = model();
        let fixed = SchedulerKind::Fixed {
            max_batch: 32,
            max_delay_us: 2_000,
        };
        // Job enqueued at 0 but the executor was busy until t=5ms: the
        // 2 ms clock starts at 5 ms, not 0.
        let v = QueueView {
            now_ns: 5_000_000,
            depth: 3,
            oldest_enqueue_ns: 0,
            oldest_deadline_ns: 10_000_000,
            idle_since_ns: 5_000_000,
            armed_flush_at_ns: None,
            model: &m,
        };
        assert_eq!(fixed.poll(&v), Decision::WaitUntil(7_000_000));
    }

    #[test]
    fn fixed_honors_a_latched_timer_over_the_current_head() {
        let m = model();
        let fixed = SchedulerKind::Fixed {
            max_batch: 32,
            max_delay_us: 2_000,
        };
        // Timer latched at 2 ms for an earlier cohort; a job that
        // enqueued at 1.5 ms neither restarts the clock nor delays it.
        let mut v = view(&m, 4, 1_600_000);
        v.oldest_enqueue_ns = 1_500_000;
        v.armed_flush_at_ns = Some(2_000_000);
        assert_eq!(fixed.poll(&v), Decision::WaitUntil(2_000_000));
        v.now_ns = 2_000_000;
        assert_eq!(fixed.poll(&v), Decision::Flush(4));
    }

    #[test]
    fn adaptive_never_waits() {
        let m = model();
        let adaptive = SchedulerKind::Adaptive { max_batch: 128 };
        assert_eq!(adaptive.poll(&view(&m, 1, 0)), Decision::Flush(1));
        assert_eq!(adaptive.poll(&view(&m, 40, 0)), Decision::Flush(40));
    }

    #[test]
    fn adaptive_shrinks_the_batch_to_hold_the_deadline() {
        // headroom 50 µs, s(b) = 20 + 3b µs → largest b with s(b) ≤ 50 is 10.
        let b = adaptive_batch_size(64, 128, 50_000, |b| 20_000 + 3_000 * b as u64);
        assert_eq!(b, 10);
    }

    #[test]
    fn adaptive_takes_the_full_batch_once_the_deadline_is_lost() {
        // Even b=1 exceeds 10 µs headroom → throughput mode.
        let b = adaptive_batch_size(64, 128, 10_000, |b| 20_000 + 3_000 * b as u64);
        assert_eq!(b, 64);
    }
}
