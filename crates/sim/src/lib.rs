//! `traj-sim`: a deterministic discrete-event simulator of the
//! `traj-serve` pipeline.
//!
//! Why simulate a server we can just run? Because scheduling policies
//! are cheap to evaluate in virtual time and expensive in wall time: a
//! sweep over arrival rates × schedulers × queue caps that would take
//! hours of load testing runs in seconds here, deterministically, with
//! no measurement noise. The simulator and `traj_serve::batch` run one
//! scheduling core, [`Scheduler`], so the policy that wins here — the
//! deadline-driven adaptive batcher — is the code the server ships, and
//! `bench_serve` closes the loop by checking the simulator's latency
//! predictions against the real server on the same hardware.
//!
//! The model (see [`engine`]) is deliberately small: an arrival process
//! feeds requests through a bounded worker pool (preprocessing), an
//! admission-controlled priority queue, a pluggable batching policy, and
//! an executor — all contending for a FIFO-granted pool of CPU cores,
//! which is what makes single-core containers behave like single-core
//! containers. Service times come from an affine model fitted to
//! measured per-batch timings ([`service::ServiceModel::fit`]).
//!
//! ```
//! use traj_sim::{ArrivalProcess, SchedulerKind, Sim, SimConfig};
//!
//! let report = Sim::new(SimConfig {
//!     arrival: ArrivalProcess::Poisson { rate: 4_000.0 },
//!     scheduler: SchedulerKind::Adaptive { max_batch: 128 },
//!     duration_s: 2.0,
//!     ..SimConfig::default()
//! })
//! .run();
//! assert!(report.overall.completed > 0);
//! println!("{}", report.to_json());
//! ```
//!
//! Everything is dependency-free and seed-deterministic: identical
//! configs produce byte-identical reports and traces.

pub mod arrival;
pub mod engine;
pub mod report;
pub mod rng;
pub mod scheduler;
pub mod service;

pub use arrival::{ArrivalProcess, NS_PER_S};
pub use engine::{Sim, SimConfig};
pub use report::{percentile_us, ClassReport, ClassStats, SimReport, TraceEvent};
pub use rng::SimRng;
pub use scheduler::{Class, Decision, Queued, Scheduler, SchedulerKind};
pub use service::ServiceModel;
