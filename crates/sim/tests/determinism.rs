//! Determinism pin: identical configs (including seed) must produce
//! byte-identical reports and traces; a different seed must not.

use traj_sim::{ArrivalProcess, SchedulerKind, Sim, SimConfig};

fn config(seed: u64) -> SimConfig {
    SimConfig {
        arrival: ArrivalProcess::Mmpp {
            base_rate: 2_000.0,
            burst_rate: 12_000.0,
            mean_base_s: 0.4,
            mean_burst_s: 0.2,
        },
        scheduler: SchedulerKind::Adaptive { max_batch: 128 },
        queue_cap: 128,
        class_mix: [0.6, 0.1, 0.3],
        duration_s: 3.0,
        seed,
        trace: true,
        ..SimConfig::default()
    }
}

#[test]
fn identical_seeds_produce_identical_runs() {
    let a = Sim::new(config(7)).run();
    let b = Sim::new(config(7)).run();
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.trace_json(), b.trace_json());
    // The run must have exercised the interesting paths for the pin to
    // mean anything.
    assert!(a.overall.completed > 1_000, "{}", a.overall.completed);
    assert!(!a.trace.is_empty());
}

#[test]
fn different_seeds_diverge() {
    let a = Sim::new(config(7)).run();
    let b = Sim::new(config(8)).run();
    assert_ne!(a.to_json(), b.to_json());
}

#[test]
fn fixed_scheduler_is_deterministic_too() {
    let make = || SimConfig {
        scheduler: SchedulerKind::FIXED_BASELINE,
        ..config(21)
    };
    let a = Sim::new(make()).run();
    let b = Sim::new(make()).run();
    assert_eq!(a.to_json(), b.to_json());
    assert!(a.overall.completed > 1_000);
}
