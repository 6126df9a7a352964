//! `simrun` — run one `traj-sim` scenario from the command line.
//!
//! ```text
//! simrun [--scheduler fixed|adaptive] [--arrival poisson|mmpp|diurnal|closed]
//!        [--rate RPS] [--clients N] [--think-us US] [--duration-s S]
//!        [--slo-ms MS] [--queue-cap N] [--max-batch N] [--max-delay-us US]
//!        [--workers N] [--cores N] [--seed S] [--bulk-frac F]
//!        [--trace PATH] [--json]
//! ```
//!
//! Prints a human summary (or the full JSON report with `--json`) and
//! optionally writes a chrome-trace file loadable in Perfetto.

use std::collections::HashMap;
use std::process::ExitCode;
use traj_sim::{ArrivalProcess, SchedulerKind, ServiceModel, Sim, SimConfig};

struct Args {
    config: SimConfig,
    trace_path: Option<String>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = HashMap::new();
    let mut flags = Vec::new();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter().peekable();
    while let Some(arg) = iter.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        if key == "json" {
            flags.push(key.to_owned());
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("--{key} requires a value"))?;
        map.insert(key.to_owned(), value.clone());
    }
    let num = |key: &str, default: f64| -> Result<f64, String> {
        match map.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{key} {v:?}")),
        }
    };

    let rate = num("rate", 5_000.0)?;
    let arrival = match map.get("arrival").map(String::as_str).unwrap_or("poisson") {
        "poisson" => ArrivalProcess::Poisson { rate },
        "mmpp" => ArrivalProcess::Mmpp {
            base_rate: rate,
            burst_rate: num("burst-rate", rate * 4.0)?,
            mean_base_s: num("mean-base-s", 1.0)?,
            mean_burst_s: num("mean-burst-s", 0.25)?,
        },
        "diurnal" => ArrivalProcess::Diurnal {
            low_rate: num("low-rate", rate * 0.1)?,
            high_rate: rate,
            period_s: num("period-s", 10.0)?,
        },
        "closed" => ArrivalProcess::ClosedLoop {
            clients: num("clients", 8.0)? as usize,
            think_us: num("think-us", 0.0)? as u64,
        },
        other => return Err(format!("unknown --arrival {other:?}")),
    };

    let SchedulerKind::Fixed {
        max_batch: fixed_batch,
        max_delay_us,
    } = SchedulerKind::FIXED_BASELINE
    else {
        unreachable!("the baseline is a fixed policy")
    };
    let scheduler = match map
        .get("scheduler")
        .map(String::as_str)
        .unwrap_or("adaptive")
    {
        "adaptive" => SchedulerKind::Adaptive {
            max_batch: num("max-batch", 128.0)? as usize,
        },
        "fixed" => SchedulerKind::Fixed {
            max_batch: num("max-batch", fixed_batch as f64)? as usize,
            max_delay_us: num("max-delay-us", max_delay_us as f64)? as u64,
        },
        other => return Err(format!("unknown --scheduler {other:?}")),
    };

    let bulk_frac = num("bulk-frac", 0.0)?.clamp(0.0, 1.0);
    let config = SimConfig {
        arrival,
        scheduler,
        service: ServiceModel {
            alpha_ns: num("alpha-us", 20.0)? * 1_000.0,
            beta_ns: num("beta-us", 2.6)? * 1_000.0,
            pre_ns: num("pre-us", 60.0)? * 1_000.0,
        },
        slo_us: (num("slo-ms", 10.0)? * 1_000.0) as u64,
        queue_cap: num("queue-cap", 256.0)? as usize,
        workers: num("workers", 4.0)? as usize,
        cores: num("cores", 1.0)? as usize,
        class_mix: [1.0 - bulk_frac, 0.0, bulk_frac],
        duration_s: num("duration-s", 10.0)?,
        seed: num("seed", 42.0)? as u64,
        shed_backoff_us: num("shed-backoff-us", 1_000.0)? as u64,
        sched_jitter_us: num("jitter-us", 0.0)?,
        trace: map.contains_key("trace"),
    };
    Ok(Args {
        config,
        trace_path: map.get("trace").cloned(),
        json: flags.iter().any(|f| f == "json"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: simrun [--scheduler fixed|adaptive] \
                 [--arrival poisson|mmpp|diurnal|closed] [--rate RPS] \
                 [--clients N] [--think-us US] [--duration-s S] [--slo-ms MS] \
                 [--queue-cap N] [--max-batch N] [--max-delay-us US] \
                 [--workers N] [--cores N] [--seed S] [--bulk-frac F] \
                 [--jitter-us US] [--trace PATH] [--json]"
            );
            return ExitCode::FAILURE;
        }
    };

    let report = Sim::new(args.config).run();

    if let Some(path) = &args.trace_path {
        if let Err(e) = std::fs::write(path, report.trace_json()) {
            eprintln!("error: writing trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace: {} events -> {path}", report.trace.len());
    }

    if args.json {
        print!("{}", report.to_json());
        return ExitCode::SUCCESS;
    }

    println!(
        "simrun: scheduler={} slo={}ms duration={:.1}s",
        report.scheduler,
        report.slo_us / 1_000,
        report.duration_s
    );
    println!(
        "offered:     {:>9}    completed: {:>9}    shed: {:>7}",
        report.overall.offered, report.overall.completed, report.overall.shed
    );
    println!(
        "throughput:  {:>9.1} req/s    goodput: {:>9.1} req/s    deadline misses: {}",
        report.overall.throughput_rps, report.overall.goodput_rps, report.overall.deadline_misses
    );
    println!(
        "latency:     p50 {} µs   p95 {} µs   p99 {} µs",
        report.overall.p50_us, report.overall.p95_us, report.overall.p99_us
    );
    println!(
        "queue wait:  p50 {} µs   p99 {} µs    flushes: {} (mean batch {:.1})",
        report.overall.queue_wait_p50_us,
        report.overall.queue_wait_p99_us,
        report.flushes,
        report.mean_batch
    );
    for class in &report.classes {
        if class.offered == 0 {
            continue;
        }
        println!(
            "  {:<12} offered {:>8}  completed {:>8}  shed {:>6}  p99 {} µs",
            class.name, class.offered, class.completed, class.shed, class.p99_us
        );
    }
    ExitCode::SUCCESS
}
