//! The discrete-event core: a deterministic replay of the `traj-serve`
//! pipeline — arrivals → request workers (preprocessing) → the shared
//! [`Scheduler`] (admission control, batching policy) → executor. The
//! scheduler is the very core `traj_serve::batch` runs, driven here on
//! virtual time.
//!
//! Two resource constraints shape the latency curves:
//!
//! * **Request workers** (`workers`): each in-flight request holds one
//!   worker thread through preprocessing, exactly like the server's
//!   connection pool.
//! * **CPU cores** (`cores`): every unit of work — per-request
//!   preprocessing *and* batch execution — runs on a FIFO-granted pool
//!   of `cores` processors. On the 1-core containers the benches run on,
//!   this shared constraint (not the batcher) bounds peak throughput,
//!   and modeling it is what makes the sim-vs-real p99 agreement check
//!   meaningful.
//!
//! Determinism: the event heap orders by `(time, sequence)`, every
//! random draw comes from seeded [`SimRng`](crate::rng::SimRng) streams,
//! and no wall-clock values enter the state — identical configs produce
//! identical traces.

use crate::arrival::{ArrivalGen, ArrivalProcess, NS_PER_S};
use crate::report::{ClassStats, SimReport, TraceEvent};
use crate::rng::SimRng;
use crate::scheduler::{Class, Decision, Queued, Scheduler, SchedulerKind};
use crate::service::ServiceModel;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Full simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// How requests arrive.
    pub arrival: ArrivalProcess,
    /// The batching policy under test.
    pub scheduler: SchedulerKind,
    /// Measured service-time model of the pipeline.
    pub service: ServiceModel,
    /// Per-request scheduling deadline (queue wait + flush), µs.
    pub slo_us: u64,
    /// Batch-queue admission cap; 0 disables shedding.
    pub queue_cap: usize,
    /// Request-worker threads (the server's connection pool).
    pub workers: usize,
    /// CPU cores shared by preprocessing and batch execution.
    pub cores: usize,
    /// Traffic mix over [interactive, close, bulk]; normalized on use.
    pub class_mix: [f64; 3],
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Seed for every random stream.
    pub seed: u64,
    /// Closed-loop only: how long a shed client backs off before
    /// retrying, µs (models honoring `Retry-After`).
    pub shed_backoff_us: u64,
    /// Scale of the OS-scheduling jitter taxed onto every preprocessing
    /// task and timer wake, µs (0 = pristine machine): 98% of draws are
    /// exponential with this mean, 2% are lost timeslices ten times
    /// longer (overall mean 1.18× the scale). On a saturated host,
    /// threads are routinely preempted mid-request; without this tax the
    /// simulated tail is implausibly clean.
    pub sched_jitter_us: f64,
    /// Collect chrome-trace events (bounded; see [`Sim::TRACE_CAP`]).
    pub trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            arrival: ArrivalProcess::Poisson { rate: 5_000.0 },
            scheduler: SchedulerKind::Adaptive { max_batch: 128 },
            service: ServiceModel {
                alpha_ns: 20_000.0,
                beta_ns: 2_600.0, // ~381k rows/s: BENCH_predict.json forest
                pre_ns: 60_000.0,
            },
            slo_us: 10_000,
            queue_cap: 256,
            workers: 4,
            cores: 1,
            class_mix: [1.0, 0.0, 0.0],
            duration_s: 10.0,
            seed: 42,
            shed_backoff_us: 1_000,
            sched_jitter_us: 0.0,
            trace: false,
        }
    }
}

/// One simulated request's lifecycle timestamps (ns).
#[derive(Debug, Clone)]
struct Request {
    class: Class,
    /// When the request entered the system (client send).
    arrival_ns: u64,
    /// Closed-loop client that issued it, if any.
    client: Option<usize>,
}

/// Units of CPU work.
#[derive(Debug)]
enum CpuTask {
    /// Preprocessing of one request.
    Pre(usize),
    /// One flush of the requests popped at `popped_ns`.
    Exec {
        popped_ns: u64,
        jobs: Vec<Queued<usize>>,
    },
}

/// Heap events; `seq` makes equal-time ordering deterministic.
#[derive(Debug)]
enum Ev {
    /// Open-loop arrival (class pre-drawn).
    Arrival(Class),
    /// Closed-loop client issues its next request.
    ClientIssue(usize),
    /// A CPU task completed.
    CpuDone(CpuTask),
    /// The batching policy asked to be re-polled.
    BatcherWake,
}

struct HeapEntry {
    at: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The simulator. Build with a [`SimConfig`], consume with [`Sim::run`].
pub struct Sim {
    config: SimConfig,
    clock_ns: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    requests: Vec<Request>,
    // Request-worker pool.
    workers_busy: usize,
    worker_wait: VecDeque<usize>,
    // CPU pool (FIFO grant).
    cpu_busy: usize,
    cpu_queue: VecDeque<(CpuTask, u64)>,
    /// `Some(t)`: at least one core has been free since `t`. `None`
    /// while the pool is saturated. The batcher thread needs a core to
    /// observe its queue, so policy timers cannot anchor earlier than
    /// this — on one core a preprocessing backlog delays the fixed
    /// policy's delay clock, exactly as it does in `traj-serve`.
    cpu_free_since_ns: Option<u64>,
    /// The batch queue and policy; jobs are request ids.
    sched: Scheduler<usize>,
    exec_busy: bool,
    exec_idle_since_ns: u64,
    // Outcome accumulators.
    stats: [ClassStats; 3],
    trace: Vec<TraceEvent>,
    class_rng: SimRng,
    jitter_rng: SimRng,
    horizon_ns: u64,
}

impl Sim {
    /// Trace events are capped so long simulations stay bounded.
    pub const TRACE_CAP: usize = 100_000;

    /// A simulator ready to run `config`.
    pub fn new(config: SimConfig) -> Sim {
        let horizon_ns = (config.duration_s * NS_PER_S as f64) as u64;
        let class_rng = SimRng::new(config.seed ^ 0x0c1a_55e5);
        let jitter_rng = SimRng::new(config.seed ^ 0x5c4e_d111);
        let sched = Scheduler::new(
            config.scheduler,
            config.slo_us.saturating_mul(1_000),
            config.queue_cap,
        );
        Sim {
            config,
            clock_ns: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            requests: Vec::new(),
            workers_busy: 0,
            worker_wait: VecDeque::new(),
            cpu_busy: 0,
            cpu_queue: VecDeque::new(),
            cpu_free_since_ns: Some(0),
            sched,
            exec_busy: false,
            exec_idle_since_ns: 0,
            stats: [
                ClassStats::default(),
                ClassStats::default(),
                ClassStats::default(),
            ],
            trace: Vec::new(),
            class_rng,
            jitter_rng,
            horizon_ns,
        }
    }

    /// One seeded scheduling-jitter draw, ns (0 when the model is
    /// disabled). A two-component mixture: 98% routine wake-to-run
    /// delays, exponential with mean `sched_jitter_us`; 2% lost
    /// timeslices, an order of magnitude longer. The heavy tail is what
    /// makes the fixed policy's round-misses reproducible — a purely
    /// exponential tax never produces the multi-millisecond preemptions
    /// real saturated hosts do.
    fn jitter_ns(&mut self) -> u64 {
        let m = self.config.sched_jitter_us;
        if m <= 0.0 {
            return 0;
        }
        let mean_ns = if self.jitter_rng.next_f64() < 0.02 {
            m * 10_000.0
        } else {
            m * 1_000.0
        };
        self.jitter_rng.next_exp(1.0 / mean_ns) as u64
    }

    /// Preprocessing cost of one request: the calibrated mean plus a
    /// scheduling-jitter draw.
    fn pre_duration_ns(&mut self) -> u64 {
        self.config.service.pre_ns as u64 + self.jitter_ns()
    }

    fn push(&mut self, at: u64, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse(HeapEntry {
            at,
            seq: self.seq,
            ev,
        }));
    }

    fn draw_class(&mut self) -> Class {
        let mix = self.config.class_mix;
        let total: f64 = mix.iter().sum();
        if total <= 0.0 {
            return Class::Interactive;
        }
        let u = self.class_rng.next_f64() * total;
        if u < mix[0] {
            Class::Interactive
        } else if u < mix[0] + mix[1] {
            Class::Close
        } else {
            Class::Bulk
        }
    }

    /// Runs to completion and produces the report.
    pub fn run(mut self) -> SimReport {
        // Seed the initial events.
        match self.config.arrival {
            ArrivalProcess::ClosedLoop { clients, .. } => {
                for c in 0..clients.max(1) {
                    self.push(0, Ev::ClientIssue(c));
                }
            }
            _ => {
                let mut gen = ArrivalGen::new(self.config.arrival, self.config.seed);
                // Pre-draw the whole open-loop arrival schedule: draws
                // are then independent of event interleaving.
                let mut t = 0u64;
                while let Some(next) = gen.next_arrival_ns(t) {
                    if next > self.horizon_ns {
                        break;
                    }
                    t = next;
                    let class = self.draw_class();
                    self.push(t, Ev::Arrival(class));
                }
            }
        }

        while let Some(Reverse(entry)) = self.heap.pop() {
            self.clock_ns = entry.at;
            match entry.ev {
                Ev::Arrival(class) => self.on_request(class, None),
                Ev::ClientIssue(client) => {
                    if self.clock_ns <= self.horizon_ns {
                        let class = self.draw_class();
                        self.on_request(class, Some(client));
                    }
                }
                Ev::CpuDone(task) => self.on_cpu_done(task),
                Ev::BatcherWake => self.try_flush(),
            }
        }

        self.finish()
    }

    /// A new request enters: record it and claim a worker.
    fn on_request(&mut self, class: Class, client: Option<usize>) {
        let id = self.requests.len();
        self.requests.push(Request {
            class,
            arrival_ns: self.clock_ns,
            client,
        });
        self.stats[class as usize].offered += 1;
        if self.workers_busy < self.config.workers.max(1) {
            self.workers_busy += 1;
            let dur = self.pre_duration_ns();
            self.submit_cpu(CpuTask::Pre(id), dur);
        } else {
            self.worker_wait.push_back(id);
        }
    }

    fn submit_cpu(&mut self, task: CpuTask, dur_ns: u64) {
        let cores = self.config.cores.max(1);
        if self.cpu_busy < cores {
            self.cpu_busy += 1;
            if self.cpu_busy == cores {
                self.cpu_free_since_ns = None;
            }
            self.push(self.clock_ns + dur_ns, Ev::CpuDone(task));
        } else {
            self.cpu_queue.push_back((task, dur_ns));
        }
    }

    fn on_cpu_done(&mut self, task: CpuTask) {
        // Free the core and grant it to the next queued task first, so
        // completion side effects below see a consistent pool.
        self.cpu_busy -= 1;
        if let Some((next, dur)) = self.cpu_queue.pop_front() {
            self.cpu_busy += 1;
            self.push(self.clock_ns + dur, Ev::CpuDone(next));
        }
        if self.cpu_busy < self.config.cores.max(1) && self.cpu_free_since_ns.is_none() {
            self.cpu_free_since_ns = Some(self.clock_ns);
        }
        match task {
            CpuTask::Pre(id) => self.on_pre_done(id),
            CpuTask::Exec { popped_ns, jobs } => self.on_exec_done(popped_ns, &jobs),
        }
    }

    /// Preprocessing finished: release the worker and run admission.
    fn on_pre_done(&mut self, id: usize) {
        self.workers_busy -= 1;
        if let Some(next) = self.worker_wait.pop_front() {
            self.workers_busy += 1;
            let dur = self.pre_duration_ns();
            self.submit_cpu(CpuTask::Pre(next), dur);
        }

        let class = self.requests[id].class;
        if self.sched.admit(class, id, self.clock_ns).is_err() {
            self.stats[class as usize].shed += 1;
            let arrival = self.requests[id].arrival_ns;
            self.trace_event("shed", class, arrival, self.clock_ns - arrival);
            if let Some(client) = self.requests[id].client {
                // The client saw a 429: back off, then retry.
                if let ArrivalProcess::ClosedLoop { think_us, .. } = self.config.arrival {
                    let wait = (think_us + self.config.shed_backoff_us) * 1_000;
                    self.push(self.clock_ns + wait, Ev::ClientIssue(client));
                }
            }
            return;
        }

        self.try_flush();
    }

    /// Polls the scheduler while the executor is idle.
    fn try_flush(&mut self) {
        if self.exec_busy {
            return;
        }
        // The batcher thread last got the floor when the executor was
        // idle AND a core was free to schedule it on.
        let idle_since = self
            .exec_idle_since_ns
            .max(self.cpu_free_since_ns.unwrap_or(self.clock_ns));
        let armed = self.sched.armed_at();
        let service = self.config.service;
        match self
            .sched
            .poll(self.clock_ns, idle_since, |b| service.flush_ns(b))
        {
            Decision::Flush(n) => {
                let jobs: Vec<_> = self.sched.pop(n).collect();
                self.exec_busy = true;
                let dur = service.flush_ns(jobs.len());
                let popped_ns = self.clock_ns;
                self.submit_cpu(CpuTask::Exec { popped_ns, jobs }, dur);
            }
            // A newly armed timer: wakes overshoot on a busy host, since
            // the batcher thread must win the core back first. A latched
            // timer's wake is already in the heap.
            Decision::WaitUntil(at) if armed.is_none() => {
                let wake = at + self.jitter_ns();
                self.push(wake, Ev::BatcherWake);
            }
            Decision::WaitUntil(_) | Decision::Idle => {}
        }
    }

    /// A flush completed: answer every job, then re-poll the policy.
    fn on_exec_done(&mut self, popped_ns: u64, jobs: &[Queued<usize>]) {
        for queued in jobs {
            let req = self.requests[queued.job].clone();
            let stats = &mut self.stats[req.class as usize];
            stats.completed += 1;
            stats
                .latencies_us
                .push((self.clock_ns - req.arrival_ns) / 1_000);
            stats
                .queue_wait_us
                .push((popped_ns - queued.enqueue_ns) / 1_000);
            if self.clock_ns > queued.deadline_ns {
                stats.deadline_misses += 1;
            }
            self.trace_event(
                "request",
                req.class,
                req.arrival_ns,
                self.clock_ns - req.arrival_ns,
            );
            if let Some(client) = req.client {
                if let ArrivalProcess::ClosedLoop { think_us, .. } = self.config.arrival {
                    self.push(self.clock_ns + think_us * 1_000, Ev::ClientIssue(client));
                }
            }
        }
        let batch = jobs.len();
        self.stats[0].flushes += 1; // flush count kept on the overall row
        self.stats[0].batched_rows += batch as u64;
        self.exec_busy = false;
        self.exec_idle_since_ns = self.clock_ns;
        self.try_flush();
    }

    fn trace_event(&mut self, name: &'static str, class: Class, start_ns: u64, dur_ns: u64) {
        if self.config.trace && self.trace.len() < Sim::TRACE_CAP {
            self.trace.push(TraceEvent {
                name,
                class,
                start_us: start_ns / 1_000,
                dur_us: dur_ns.max(1) / 1_000,
            });
        }
    }

    fn finish(self) -> SimReport {
        SimReport::build(
            self.config.scheduler.as_str(),
            self.config.slo_us,
            self.config.duration_s,
            self.stats,
            self.trace,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config() -> SimConfig {
        SimConfig {
            arrival: ArrivalProcess::Poisson { rate: 3_000.0 },
            duration_s: 4.0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn fixed_policy_pays_the_delay_floor() {
        // At moderate load the fixed batcher waits out its 2 ms timer on
        // nearly every batch: p50 latency must sit above the delay while
        // the adaptive policy stays well below it.
        let fixed = Sim::new(SimConfig {
            scheduler: SchedulerKind::FIXED_BASELINE,
            ..base_config()
        })
        .run();
        let adaptive = Sim::new(SimConfig {
            scheduler: SchedulerKind::Adaptive { max_batch: 128 },
            ..base_config()
        })
        .run();
        // Jobs land uniformly inside the 2 ms window, so the fixed
        // policy's p50 sits near half the delay and its p99 near the
        // full delay; the adaptive policy never arms the timer at all.
        assert!(
            fixed.overall.p50_us >= 1_000,
            "fixed p50 {} must reflect the delay window",
            fixed.overall.p50_us
        );
        assert!(
            fixed.overall.p99_us >= 2_000,
            "fixed p99 {} must include the full 2 ms delay",
            fixed.overall.p99_us
        );
        assert!(
            adaptive.overall.p99_us < 1_000,
            "adaptive p99 {} must avoid the delay",
            adaptive.overall.p99_us
        );
        assert_eq!(fixed.overall.shed, 0);
        assert_eq!(adaptive.overall.shed, 0);
    }

    #[test]
    fn overload_sheds_instead_of_collapsing() {
        // Offered ~2× what one core sustains, with a worker pool wide
        // enough that the backlog lands on the batch queue (mirroring a
        // server whose HTTP threads outnumber the admission cap): sheds
        // must appear and queue wait must stay bounded by the cap.
        let report = Sim::new(SimConfig {
            arrival: ArrivalProcess::Poisson { rate: 80_000.0 },
            service: ServiceModel {
                alpha_ns: 20_000.0,
                beta_ns: 2_600.0,
                pre_ns: 20_000.0,
            },
            workers: 256,
            queue_cap: 64,
            duration_s: 3.0,
            ..SimConfig::default()
        })
        .run();
        assert!(report.overall.shed > 0, "overload must shed");
        // 64 queued × ~2.6 µs/row service plus one flush ahead: queue
        // wait stays in the low milliseconds instead of growing with the
        // 4× backlog (which would be seconds by the end of the run).
        assert!(
            report.overall.queue_wait_p99_us < 50_000,
            "queue wait p99 {} µs must stay bounded",
            report.overall.queue_wait_p99_us
        );
    }

    #[test]
    fn closed_loop_matches_client_count() {
        let report = Sim::new(SimConfig {
            arrival: ArrivalProcess::ClosedLoop {
                clients: 4,
                think_us: 0,
            },
            duration_s: 2.0,
            ..SimConfig::default()
        })
        .run();
        assert!(report.overall.completed > 1_000);
        assert_eq!(report.overall.shed, 0);
        // Closed loop: in-flight never exceeds the client count, so
        // latency ≈ clients × per-request work stays in the hundreds of µs.
        assert!(
            report.overall.p99_us < 5_000,
            "p99 {}",
            report.overall.p99_us
        );
    }

    #[test]
    fn bulk_floods_shed_before_interactive() {
        let report = Sim::new(SimConfig {
            arrival: ArrivalProcess::Poisson { rate: 80_000.0 },
            class_mix: [0.2, 0.0, 0.8],
            workers: 256,
            queue_cap: 64,
            service: ServiceModel {
                alpha_ns: 20_000.0,
                beta_ns: 2_600.0,
                pre_ns: 20_000.0,
            },
            duration_s: 3.0,
            ..SimConfig::default()
        })
        .run();
        let interactive = &report.classes[0];
        let bulk = &report.classes[2];
        assert!(bulk.shed > 0, "bulk must shed under a flood");
        let bulk_rate = bulk.shed as f64 / bulk.offered.max(1) as f64;
        let int_rate = interactive.shed as f64 / interactive.offered.max(1) as f64;
        assert!(
            bulk_rate > int_rate,
            "bulk shed rate {bulk_rate:.3} must exceed interactive {int_rate:.3}"
        );
    }
}
