//! The repository benchmark: workloads, checks and metrics.
//!
//! ```text
//! perfbench --cli PATH/trajlib-cli --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `predict_interactive`, `ingest_routed`, `paper_cv` (see
//! `perfbench/METRICS.md`). Untraced runs print the end-to-end metrics;
//! traced runs print the per-layer metrics and write a chrome-trace span
//! file plus a self-time table under `.perfbench_out/`. Every run checks
//! the program's outputs; the last stdout line is the JSON result and
//! the exit code is non-zero when a check fails.

mod ingest;
mod layers;
mod load;
mod metricsdoc;
mod paper_cv;
mod plan;
mod predict;
mod procs;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::SpanLog;

/// Set-ups per untraced run; `setup_s` reports their median.
pub const SETUP_REPEATS: usize = 5;

const WORKLOADS: [&str; 3] = ["predict_interactive", "ingest_routed", "paper_cv"];

const END_TO_END: [&str; 5] = [
    "setup_s",
    "throughput_items_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "rss_peak_mb",
];

const PER_LAYER: [&str; 35] = [
    "geolife.synth_s",
    "net.parse_us",
    "net.render_us",
    "net.outside_server_us",
    "serve.json_decode_us",
    "serve.json_encode_us",
    "serve.server_p50_us",
    "serve.queue_wait_p50_us",
    "serve.queue_wait_p95_us",
    "serve.batch_rows_mean",
    "serve.shed",
    "serve.deadline_misses",
    "serve.unaccounted_us",
    "features.segment_us",
    "features.corpus_s",
    "ml.artifact_train_s",
    "ml.predict_row_us",
    "ml.cv_s.xgboost",
    "ml.cv_s.svm",
    "ml.cv_s.tree",
    "ml.cv_s.forest",
    "ml.cv_s.mlp",
    "ml.cv_s.adaboost",
    "select.topk_s",
    "runtime.speedup",
    "stream.ingest_us_per_point",
    "stream.state_bytes_per_session",
    "stream.open_sessions_peak",
    "wal.append_us_per_record",
    "wal.fsync_p50_us",
    "wal.fsync_p95_us",
    "wal.bytes_per_point",
    "cluster.forward_us",
    "cluster.retries",
    "trace.overhead_pct",
];

/// What every workload needs to run.
#[derive(Clone)]
pub struct Ctx {
    /// The `trajlib-cli` binary under test.
    pub cli: PathBuf,
    /// Workload seed; all inputs derive from it.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Scratch directory (artifacts, WALs), removed at exit.
    pub work: PathBuf,
    /// Common origin of every span.
    pub origin: Instant,
}

/// A workload's metrics, checks, accounting and spans.
#[derive(Default)]
pub struct Outcome {
    /// `name → (value, unit)`.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed correctness checks.
    pub problems: Vec<String>,
    /// Accounting lines printed before the result.
    pub notes: Vec<String>,
    /// Span logs of the traced run.
    pub logs: Vec<SpanLog>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    fn absorb(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.notes.extend(other.notes);
        self.logs.extend(other.logs);
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.0)
    }
}

/// Median of durations, in seconds.
pub fn median_s(times: &[Duration]) -> f64 {
    let mut ns: Vec<u64> = times.iter().map(|d| d.as_nanos() as u64).collect();
    traj_sim::percentile_us(&mut ns, 50.0) as f64 / 1e9
}

struct Args {
    cli: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    for pair in raw.chunks(2) {
        let key = pair[0]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {:?}", pair[0]))?;
        let value = pair
            .get(1)
            .ok_or_else(|| format!("--{key} requires a value"))?;
        map.insert(key.to_owned(), value.clone());
    }
    let get = |key: &str| {
        map.get(key)
            .cloned()
            .ok_or_else(|| format!("missing --{key}"))
    };
    let workload = get("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_owned())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        cli: PathBuf::from(get("cli")?),
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer".to_owned())?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        workload,
    })
}

fn run_workload(
    ctx: &Ctx,
    workload: &str,
    traced: bool,
    overhead: bool,
) -> Result<Outcome, String> {
    match workload {
        "predict_interactive" => predict::run(ctx, traced, overhead),
        "ingest_routed" => ingest::run(ctx, traced, overhead),
        _ => paper_cv::run(ctx, traced, overhead),
    }
}

/// The traced run: the in-process layer timings, then every workload's
/// live path with spans on (the selected one at full length and with
/// its tracing overhead, the others shortened), so each per-layer metric
/// has exactly one source.
fn traced(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    let mut all = Outcome::default();
    let mut log = SpanLog::new(ctx.origin, 0, true);
    layers::run(ctx, &mut all, &mut log)?;
    all.logs.push(log);
    let short = Ctx {
        seconds: ctx.seconds.min(4.0),
        ..ctx.clone()
    };
    for w in WORKLOADS {
        let primary = w == workload;
        let mut part = run_workload(if primary { ctx } else { &short }, w, true, primary)?;
        // A traced run reports per-layer metrics only.
        part.metrics
            .retain(|name, _| !END_TO_END.contains(&name.as_str()));
        all.absorb(part);
    }
    let terms = [
        "serve.json_decode_us",
        "features.segment_us",
        "serve.queue_wait_p50_us",
        "ml.predict_row_us",
        "serve.json_encode_us",
    ];
    let accounted: f64 = terms.iter().map(|t| all.value(t)).sum();
    all.set(
        "serve.unaccounted_us",
        all.value("serve.server_p50_us") - accounted,
        "us",
    );
    Ok(all)
}

fn json_result(outcome: &Outcome, names: &[&str], correct: bool) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            // Unmeasured or non-finite values were already reported as
            // failed checks; 0 keeps the line valid JSON.
            let (value, unit) = outcome
                .metrics
                .get(*name)
                .copied()
                .filter(|(v, _)| v.is_finite())
                .unwrap_or((0.0, "?"));
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Writes the traced run's span file and per-layer table.
fn write_trace_files(args: &Args, outcome: &Outcome, spans: &[trace::Span]) -> Result<(), String> {
    let dir = PathBuf::from(".perfbench_out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let mut table = String::from("metric                              value  unit\n");
    for name in PER_LAYER {
        let (value, unit) = outcome.metrics.get(name).copied().unwrap_or((0.0, "?"));
        table.push_str(&format!("{name:<32} {value:>12.3}  {unit}\n"));
    }
    table.push_str("\nself time by layer (all traced spans)\n");
    table.push_str(&trace::self_time_table(spans));
    std::fs::write(dir.join(format!("{stem}.layers.txt")), &table).map_err(|e| e.to_string())?;
    std::fs::write(
        dir.join(format!("{stem}.trace.json")),
        trace::chrome_trace_json(spans),
    )
    .map_err(|e| e.to_string())?;
    println!("{table}");
    println!("wrote .perfbench_out/{stem}.layers.txt and .perfbench_out/{stem}.trace.json");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --cli PATH --workload NAME --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(format!(
        ".perfbench_work/{}-{}",
        args.workload,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        cli: args.cli.clone(),
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
        origin: Instant::now(),
    };
    let result = if args.trace {
        traced(&ctx, &args.workload)
    } else {
        run_workload(&ctx, &args.workload, false, false)
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in names {
        match outcome.metrics.get(*name) {
            Some((v, _)) if v.is_finite() => {}
            Some(_) => outcome
                .problems
                .push(format!("{name} is not a finite number")),
            None => outcome.problems.push(format!("{name} was not measured")),
        }
    }
    for line in &outcome.notes {
        println!("{line}");
    }
    if args.trace {
        let spans = trace::merge(std::mem::take(&mut outcome.logs));
        if let Err(e) = write_trace_files(&args, &outcome, &spans) {
            outcome.problems.push(format!("writing trace files: {e}"));
        }
    } else {
        for name in names {
            if let Some((value, unit)) = outcome.metrics.get(*name) {
                println!("{name:<20} {value:>14.4} {unit}");
            }
        }
    }
    for p in &outcome.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = outcome.problems.is_empty();
    println!("{}", json_result(&outcome, names, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
