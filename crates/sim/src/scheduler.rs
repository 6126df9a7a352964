//! The batching scheduler: one clock-free core that `traj_serve::batch`
//! runs on wall-clock nanoseconds and [`Sim`](crate::Sim) runs on
//! virtual time, so the policy the server ships is the policy the
//! simulator proves.
//!
//! [`Scheduler`] holds the per-class FIFO queues, admission control,
//! the batching decision ([`Scheduler::poll`]), the priority-ordered pop
//! and the shutdown drain. It reads no clock: every call takes the time,
//! and `poll` takes the service-time estimate as a closure (the server's
//! online EWMA, the simulator's fitted affine model).
//! [`SchedulerKind::Fixed`] is the pre-SLO `max_batch`/`max_delay`
//! micro-batcher (including its timer anchor: the delay clock starts
//! when the batcher thread *sees* the head job, not when the job
//! arrived), and [`SchedulerKind::Adaptive`] is the Nexus-style
//! deadline-driven policy: never wait while the executor is idle, and
//! cap the flush size so the oldest queued job's predicted completion
//! still meets its deadline.

use std::collections::VecDeque;

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

/// Which batching policy a [`Scheduler`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Flush on size or age: the pre-SLO `traj-serve` default.
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
    /// The pre-SLO fixed policy (`max_batch` = 32, `max_delay` = 2 ms):
    /// `bench_serve`'s baseline and the simulator's calibration target.
    pub const FIXED_BASELINE: SchedulerKind = SchedulerKind::Fixed {
        max_batch: 32,
        max_delay_us: 2_000,
    };

    /// Display name used in reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            SchedulerKind::Fixed { .. } => "fixed",
            SchedulerKind::Adaptive { .. } => "adaptive",
        }
    }

    /// The policy's flush-size cap.
    pub fn max_batch(&self) -> usize {
        match *self {
            SchedulerKind::Fixed { max_batch, .. } | SchedulerKind::Adaptive { max_batch } => {
                max_batch
            }
        }
    }
}

/// A policy's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Pop this many jobs ([`Scheduler::pop`]) and execute them now;
    /// at least one, at most the queue depth.
    Flush(usize),
    /// Re-poll at this absolute time (ns) unless something changes first.
    WaitUntil(u64),
    /// Nothing is queued: sleep until the next admission.
    Idle,
}

/// The adaptive flush-size rule: take everything queued up to
/// `max_batch`, but shrink while the predicted service time would push
/// the oldest job past its remaining headroom. If even a single-row
/// flush misses the deadline, the deadline is already lost — take the
/// full batch and maximize throughput instead.
fn adaptive_batch_size(
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

/// One queued job and the times the policy schedules it by.
#[derive(Debug)]
pub struct Queued<J> {
    /// The caller's payload (the server's reply-carrying job, the simulator's request id).
    pub job: J,
    /// Admission time, ns.
    pub enqueue_ns: u64,
    /// Scheduling deadline: admission time plus the SLO, ns.
    pub deadline_ns: u64,
}

/// The scheduling core, generic over the job payload `J`. Call
/// [`poll`](Scheduler::poll) only while the executor is idle; on
/// [`Decision::Flush`], [`pop`](Scheduler::pop) the batch and run it.
pub struct Scheduler<J> {
    kind: SchedulerKind,
    slo_ns: u64,
    queue_cap: usize,
    /// One FIFO per class, indexed by `Class as usize`: drain order.
    queues: [VecDeque<Queued<J>>; 3],
    /// Queued jobs across all classes.
    depth: usize,
    /// Fixed policy only: the latched flush time. The batcher arms its
    /// delay timer once per idle period and flushes whatever is queued
    /// when it fires: jobs admitted meanwhile join the round, they never
    /// restart the clock.
    armed_at_ns: Option<u64>,
}

impl<J> Scheduler<J> {
    /// An empty scheduler running `kind`. Each job's deadline is its
    /// admission time plus `slo_ns`; `queue_cap` bounds the queue (0
    /// disables shedding).
    pub fn new(kind: SchedulerKind, slo_ns: u64, queue_cap: usize) -> Scheduler<J> {
        Scheduler {
            kind,
            slo_ns,
            queue_cap,
            queues: Default::default(),
            depth: 0,
            armed_at_ns: None,
        }
    }

    /// The policy this scheduler runs.
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Queued jobs across all classes.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The fixed policy's latched flush time, if its timer is armed.
    pub fn armed_at(&self) -> Option<u64> {
        self.armed_at_ns
    }

    /// Admission control: queues `job` at `now_ns`, or hands it back if
    /// its class is shed. `Interactive` sheds once `queue_cap` jobs are
    /// queued; `Bulk` at half the cap (at least 1), so interactive
    /// headroom survives a bulk flood; `Close` never sheds, since the
    /// stream engine already consumed the segment. A cap of 0 sheds
    /// nothing.
    pub fn admit(&mut self, class: Class, job: J, now_ns: u64) -> Result<(), J> {
        let limit = match class {
            Class::Interactive => self.queue_cap,
            Class::Close => usize::MAX,
            Class::Bulk => (self.queue_cap / 2).max(1),
        };
        if self.queue_cap > 0 && self.depth >= limit {
            return Err(job);
        }
        self.queues[class as usize].push_back(Queued {
            job,
            enqueue_ns: now_ns,
            deadline_ns: now_ns.saturating_add(self.slo_ns),
        });
        self.depth += 1;
        Ok(())
    }

    /// Decides what the idle executor does at `now_ns`. `idle_since_ns`
    /// is when the batcher thread could last observe the queue (the
    /// fixed policy's timer anchor); `service_ns(b)` predicts one flush
    /// of `b` rows (the adaptive policy's deadline check).
    pub fn poll(
        &mut self,
        now_ns: u64,
        idle_since_ns: u64,
        service_ns: impl Fn(usize) -> u64,
    ) -> Decision {
        let Some((oldest_enqueue, oldest_deadline)) = self
            .queues
            .iter()
            .filter_map(VecDeque::front)
            .map(|q| (q.enqueue_ns, q.deadline_ns))
            .min()
        else {
            // A stale timer must not carry over to the next cohort.
            self.armed_at_ns = None;
            return Decision::Idle;
        };
        let decision = match self.kind {
            SchedulerKind::Fixed {
                max_batch,
                max_delay_us,
            } => {
                let max_batch = max_batch.max(1);
                if self.depth >= max_batch {
                    Decision::Flush(max_batch)
                } else {
                    let flush_at = *self.armed_at_ns.get_or_insert_with(|| {
                        oldest_enqueue
                            .max(idle_since_ns)
                            .saturating_add(max_delay_us.saturating_mul(1_000))
                    });
                    if now_ns >= flush_at {
                        Decision::Flush(self.depth)
                    } else {
                        Decision::WaitUntil(flush_at)
                    }
                }
            }
            SchedulerKind::Adaptive { max_batch } => {
                let headroom = oldest_deadline.saturating_sub(now_ns);
                Decision::Flush(adaptive_batch_size(
                    self.depth, max_batch, headroom, service_ns,
                ))
            }
        };
        if let Decision::Flush(_) = decision {
            self.armed_at_ns = None;
        }
        decision
    }

    /// Pops up to `n` jobs: highest class first, FIFO within a class.
    /// Each job leaves the queue as the iterator yields it.
    pub fn pop(&mut self, n: usize) -> impl Iterator<Item = Queued<J>> + '_ {
        let Scheduler { queues, depth, .. } = self;
        std::iter::from_fn(move || {
            let queued = queues.iter_mut().find_map(VecDeque::pop_front)?;
            *depth -= 1;
            Some(queued)
        })
        .take(n)
    }

    /// Empties every queue in drain order and disarms the timer: the
    /// shutdown path, which answers each job without running it.
    pub fn drain(&mut self) -> impl Iterator<Item = J> + '_ {
        self.armed_at_ns = None;
        self.pop(usize::MAX).map(|queued| queued.job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// `s(b) = 20 + 3b` µs.
    fn service_ns(b: usize) -> u64 {
        20_000 + 3_000 * b as u64
    }

    /// A scheduler with `n` interactive jobs admitted at `at_ns`, 10 ms SLO.
    fn queued(kind: SchedulerKind, n: u64, at_ns: u64) -> Scheduler<u64> {
        let mut sched = Scheduler::new(kind, 10_000_000, 0);
        for id in 0..n {
            assert!(sched.admit(Class::Interactive, id, at_ns).is_ok());
        }
        sched
    }

    #[test]
    fn fixed_waits_out_the_delay_below_max_batch() {
        let fixed = SchedulerKind::FIXED_BASELINE;
        let mut sched = queued(fixed, 4, 0);
        assert_eq!(sched.poll(0, 0, service_ns), Decision::WaitUntil(2_000_000));
        assert_eq!(sched.poll(2_000_000, 0, service_ns), Decision::Flush(4));
        assert_eq!(sched.armed_at(), None, "a flush disarms");
        assert_eq!(sched.pop(4).count(), 4);
        assert_eq!(sched.poll(2_000_001, 0, service_ns), Decision::Idle);
        assert_eq!(
            queued(fixed, 40, 0).poll(10, 0, service_ns),
            Decision::Flush(32)
        );
    }

    #[test]
    fn fixed_anchors_the_timer_at_executor_idle() {
        // Jobs enqueued at 0 but the executor was busy until t=5ms: the
        // 2 ms clock starts at 5 ms, not 0.
        let mut sched = queued(SchedulerKind::FIXED_BASELINE, 3, 0);
        assert_eq!(
            sched.poll(5_000_000, 5_000_000, service_ns),
            Decision::WaitUntil(7_000_000)
        );
    }

    #[test]
    fn fixed_honors_a_latched_timer_over_the_current_head() {
        // Timer latched at 2 ms for an earlier job; a job that enqueues
        // at 1.5 ms neither restarts the clock nor delays it.
        let mut sched = queued(SchedulerKind::FIXED_BASELINE, 1, 0);
        assert_eq!(sched.poll(0, 0, service_ns), Decision::WaitUntil(2_000_000));
        assert!(sched.admit(Class::Interactive, 1, 1_500_000).is_ok());
        assert_eq!(
            sched.poll(1_600_000, 1_600_000, service_ns),
            Decision::WaitUntil(2_000_000)
        );
        assert_eq!(
            sched.poll(2_000_000, 1_600_000, service_ns),
            Decision::Flush(2)
        );
    }

    #[test]
    fn adaptive_never_waits() {
        let adaptive = SchedulerKind::Adaptive { max_batch: 128 };
        assert_eq!(
            queued(adaptive, 1, 0).poll(0, 0, service_ns),
            Decision::Flush(1)
        );
        assert_eq!(
            queued(adaptive, 40, 0).poll(0, 0, service_ns),
            Decision::Flush(40)
        );
    }

    #[test]
    fn adaptive_shrinks_the_batch_to_hold_the_deadline() {
        // headroom 50 µs, s(b) = 20 + 3b µs → largest b with s(b) ≤ 50 is 10.
        assert_eq!(adaptive_batch_size(64, 128, 50_000, service_ns), 10);
    }

    #[test]
    fn adaptive_takes_the_full_batch_once_the_deadline_is_lost() {
        // Even b=1 exceeds 10 µs headroom → throughput mode.
        assert_eq!(adaptive_batch_size(64, 128, 10_000, service_ns), 64);
    }

    /// Seeded random sequences of admit, poll, pop and drain, checked
    /// against a model of three FIFOs: admission follows the class
    /// limits, pops follow drain order, flushes stay within the depth and
    /// `max_batch`, and every admitted id comes out exactly once.
    #[test]
    fn random_sequences_keep_the_scheduling_contract() {
        let kinds = [
            SchedulerKind::FIXED_BASELINE,
            SchedulerKind::Fixed {
                max_batch: 3,
                max_delay_us: 40,
            },
            SchedulerKind::Adaptive { max_batch: 4 },
            SchedulerKind::Adaptive { max_batch: 128 },
        ];
        for seed in 0..40 {
            for kind in kinds {
                // (admission cap, the cap's bulk limit)
                for (cap, bulk_cap) in [(0, 0), (1, 1), (2, 1), (8, 4), (64, 32)] {
                    check_random_sequence(seed, kind, cap, bulk_cap);
                }
            }
        }
    }

    fn check_random_sequence(seed: u64, kind: SchedulerKind, cap: usize, bulk_cap: usize) {
        let mut rng = SimRng::new(seed);
        // From poll-heavy to admit-heavy, so some runs fill the queue
        // past every cap.
        let admit_pct = 40 + 5 * (seed % 12);
        let mut sched = Scheduler::new(kind, 200_000, cap);
        let mut model: [VecDeque<u64>; 3] = Default::default();
        let (mut now, mut admitted, mut out) = (0u64, 0u64, 0u64);
        let mut take = |id: u64, model: &mut [VecDeque<u64>; 3]| {
            let front = model.iter_mut().find_map(VecDeque::pop_front);
            assert_eq!(Some(id), front, "drain order, exactly once");
            out += 1;
        };
        for step in 0..400u64 {
            now += rng.next_below(20_000);
            match rng.next_below(100) {
                r if r < admit_pct => {
                    let class = Class::ALL[rng.next_below(3) as usize];
                    let depth = sched.depth();
                    let refused = sched.admit(class, step, now).is_err();
                    match class {
                        Class::Close => assert!(!refused, "close is never shed"),
                        _ if cap == 0 => assert!(!refused, "cap 0 never sheds"),
                        Class::Interactive => assert_eq!(refused, depth >= cap),
                        Class::Bulk => assert_eq!(refused, depth >= bulk_cap),
                    }
                    if !refused {
                        model[class as usize].push_back(step);
                        admitted += 1;
                    }
                }
                r if r < 99 => {
                    let depth = sched.depth();
                    let idle_since = now - rng.next_below(now + 1);
                    match sched.poll(now, idle_since, |b| 1_000 + 500 * b as u64) {
                        Decision::Idle => assert_eq!(depth, 0),
                        Decision::WaitUntil(at) => assert!(depth > 0 && at > now),
                        Decision::Flush(n) => {
                            assert!(n >= 1 && n <= depth, "flush {n} of {depth}");
                            assert!(n <= kind.max_batch().max(1));
                            for queued in sched.pop(n) {
                                take(queued.job, &mut model);
                            }
                            assert_eq!(sched.depth(), depth - n);
                        }
                    }
                }
                _ => {
                    for id in sched.drain() {
                        take(id, &mut model);
                    }
                    assert_eq!(sched.depth(), 0);
                }
            }
        }
        for id in sched.drain() {
            take(id, &mut model);
        }
        assert!(model.iter().all(VecDeque::is_empty), "no job left behind");
        assert_eq!(out, admitted, "seed {seed} {kind:?} cap {cap}");
    }
}
