//! `paper_cv`: the paper's §4.4 experiment (Etemad et al., Fig. 4) —
//! `run_cv_comparison` with its defaults, in-process: the 69-user
//! cohort, the top-20 features by RF importance, the paper's six
//! classifiers, random versus user-oriented 5-fold CV.
//!
//! Each run does one untimed warm-up job (the cold first pass varies
//! several-fold per stage), then repeats the job. The traced run times
//! the same public calls one by one and checks that their composition
//! equals `run_cv_comparison`.

use crate::procs;
use crate::trace::SpanLog;
use crate::{median_s, Ctx, Outcome};
use std::time::{Duration, Instant};
use trajlib::experiments::comparison::top_k_features;
use trajlib::experiments::cv_comparison::{CvComparisonResult, CvComparisonRow};
use trajlib::experiments::{run_cv_comparison, CvComparisonConfig, DataConfig};
use trajlib::ml::cv::{cross_validate, mean_accuracy, mean_f1_weighted, GroupKFold, KFold};
use trajlib::ml::ClassifierKind;
use trajlib::{Pipeline, PipelineConfig};

/// Timed jobs per run at least, so the median job ignores one outlier.
const MIN_JOBS: usize = 3;

/// The experiment's defaults, with the cohort and CV seeded by the run.
pub fn config(seed: u64) -> CvComparisonConfig {
    CvComparisonConfig {
        data: DataConfig {
            seed,
            ..DataConfig::full()
        },
        seed,
        ..CvComparisonConfig::default()
    }
}

/// Span and per-layer metric names of one classifier's CV.
fn cv_names(kind: ClassifierKind) -> (&'static str, &'static str) {
    match kind {
        ClassifierKind::XgBoost => ("ml.cv.xgboost", "ml.cv_s.xgboost"),
        ClassifierKind::Svm => ("ml.cv.svm", "ml.cv_s.svm"),
        ClassifierKind::DecisionTree => ("ml.cv.tree", "ml.cv_s.tree"),
        ClassifierKind::RandomForest => ("ml.cv.forest", "ml.cv_s.forest"),
        ClassifierKind::NeuralNetwork => ("ml.cv.mlp", "ml.cv_s.mlp"),
        ClassifierKind::AdaBoost => ("ml.cv.adaboost", "ml.cv_s.adaboost"),
        _ => ("ml.cv.other", "ml.cv_s.other"),
    }
}

/// `run_cv_comparison`, spelled out as the public calls it makes, each
/// in a span and timed. Returns the result and `(metric, seconds)`.
pub fn composed(
    cfg: &CvComparisonConfig,
    log: &mut SpanLog,
    job: u64,
) -> (CvComparisonResult, Vec<(&'static str, f64)>) {
    let mut times = Vec::new();
    log.enter("job.cv_comparison", job);
    let t = Instant::now();
    let synth = log.time("geolife.synth", job, || cfg.data.generate());
    times.push(("geolife.synth_s", t.elapsed().as_secs_f64()));
    let pipeline = Pipeline::new(PipelineConfig::paper(cfg.scheme));
    let t = Instant::now();
    let full = log.time("features.corpus", job, || {
        pipeline.dataset_from_segments(&synth.segments)
    });
    times.push(("features.corpus_s", t.elapsed().as_secs_f64()));
    let dataset = match cfg.top_k {
        Some(k) => {
            let t = Instant::now();
            let selected = log.time("select.topk", job, || top_k_features(&full, k, cfg.seed));
            times.push(("select.topk_s", t.elapsed().as_secs_f64()));
            full.select_features(&selected)
        }
        None => full,
    };
    let random = KFold::new(cfg.folds, cfg.seed);
    let grouped = GroupKFold {
        n_splits: cfg.folds,
    };
    let mut rows = Vec::with_capacity(cfg.classifiers.len());
    for &kind in &cfg.classifiers {
        let (span, metric) = cv_names(kind);
        let factory = move |seed: u64| kind.build(seed);
        let t = Instant::now();
        let (r, g) = log.time(span, job, || {
            (
                cross_validate(&factory, &dataset, &random, cfg.seed),
                cross_validate(&factory, &dataset, &grouped, cfg.seed),
            )
        });
        times.push((metric, t.elapsed().as_secs_f64()));
        let (r, g) = (
            r.expect("experiment folds fit the cohort"),
            g.expect("experiment folds fit the cohort"),
        );
        rows.push(CvComparisonRow {
            kind,
            random_accuracy: mean_accuracy(&r),
            random_f1: mean_f1_weighted(&r),
            user_accuracy: mean_accuracy(&g),
            user_f1: mean_f1_weighted(&g),
        });
    }
    log.exit();
    let mean_gap = if rows.is_empty() {
        0.0
    } else {
        rows.iter().map(|r| r.accuracy_gap()).sum::<f64>() / rows.len() as f64
    };
    (CvComparisonResult { rows, mean_gap }, times)
}

/// The paper's Fig. 4 finding: random CV is optimistic for the forest.
fn check_finding(result: &CvComparisonResult, out: &mut Outcome) {
    match result
        .rows
        .iter()
        .find(|r| r.kind == ClassifierKind::RandomForest)
    {
        Some(rf) if rf.random_accuracy >= rf.user_accuracy => {}
        Some(rf) => out.problems.push(format!(
            "paper_cv: RF random-CV accuracy {} < user-CV accuracy {}",
            rf.random_accuracy, rf.user_accuracy
        )),
        None => out
            .problems
            .push("paper_cv: no RandomForest row".to_owned()),
    }
}

fn timed_job(cfg: &CvComparisonConfig) -> (CvComparisonResult, Duration) {
    let t = Instant::now();
    let r = run_cv_comparison(cfg);
    (r, t.elapsed())
}

/// Runs the workload. Untraced: warm-up, then timed jobs for
/// `ctx.seconds` (at least [`MIN_JOBS`]). Traced: the spelled-out composition,
/// checked against `run_cv_comparison`, plus the single-thread job for
/// the runtime's speedup; `overhead` adds an untraced job to compare.
pub fn run(ctx: &Ctx, traced: bool, overhead: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = config(ctx.seed);
    let repeats = if traced { 1 } else { crate::SETUP_REPEATS };
    let mut setup_times = Vec::new();
    let mut segments = 0usize;
    for _ in 0..repeats {
        let t = Instant::now();
        segments = cfg.data.generate().segments.len();
        setup_times.push(t.elapsed());
    }

    if traced {
        let mut log = SpanLog::new(ctx.origin, 20, true);
        let t = Instant::now();
        let (result, times) = composed(&cfg, &mut log, 1);
        let composed_time = t.elapsed();
        for (metric, secs) in times {
            out.set(metric, secs, "s");
        }
        check_finding(&result, &mut out);
        let one = trajlib::runtime::Runtime::new(1);
        let (single, single_time) = one.install(|| timed_job(&cfg));
        out.set(
            "runtime.speedup",
            single_time.as_secs_f64() / composed_time.as_secs_f64(),
            "x",
        );
        if single != result {
            out.problems.push(
                "paper_cv: the single-thread job differs from the spelled-out composition"
                    .to_owned(),
            );
        }
        if overhead {
            let (plain, plain_time) = timed_job(&cfg);
            if plain != result {
                out.problems.push(
                    "paper_cv: run_cv_comparison differs from its spelled-out composition"
                        .to_owned(),
                );
            }
            out.set(
                "trace.overhead_pct",
                100.0 * (1.0 - plain_time.as_secs_f64() / composed_time.as_secs_f64()),
                "%",
            );
        }
        out.attempted += 2;
        out.logs.push(log);
        return Ok(out);
    }

    let (baseline, _) = timed_job(&cfg);
    check_finding(&baseline, &mut out);
    let mut jobs = Vec::new();
    let mut total = Duration::ZERO;
    while jobs.len() < MIN_JOBS || total.as_secs_f64() < ctx.seconds {
        let (result, took) = timed_job(&cfg);
        if result != baseline {
            out.problems
                .push("paper_cv: a repeated job's result differs from the first".to_owned());
        }
        total += took;
        jobs.push(took);
    }
    let mut job_ns: Vec<u64> = jobs.iter().map(|d| d.as_nanos() as u64).collect();
    out.set("setup_s", median_s(&setup_times), "s");
    // The median job, not the sum: one job slowed by a neighbour on a
    // shared machine must not move the run's figure.
    out.set(
        "throughput_items_s",
        segments as f64 / median_s(&jobs),
        "1/s",
    );
    out.set(
        "latency_p50_ms",
        traj_sim::percentile_us(&mut job_ns, 50.0) as f64 / 1e6,
        "ms",
    );
    out.set(
        "latency_p90_ms",
        traj_sim::percentile_us(&mut job_ns, 90.0) as f64 / 1e6,
        "ms",
    );
    out.set(
        "rss_peak_mb",
        procs::peak_rss_mb("/proc/self/status"),
        "MiB",
    );
    out.attempted += jobs.len() as u64 + 1;
    out.notes.push(format!(
        "paper_cv: {segments} labelled segments per job; timed jobs after one warm-up: {:?} ms",
        jobs.iter().map(Duration::as_millis).collect::<Vec<_>>()
    ));
    Ok(out)
}
