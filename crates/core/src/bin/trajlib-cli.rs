//! `trajlib-cli` — the framework as a command-line tool.
//!
//! ```text
//! trajlib-cli synth   --users 8 --seed 42 --out ./cohort        # GeoLife-layout export
//! trajlib-cli extract --geolife ./cohort --scheme dabiri --out features.csv [--extended]
//! trajlib-cli train   --csv features.csv --model rf --out model.json [--seed 7]
//! trajlib-cli predict --csv features.csv --model-file model.json
//! trajlib-cli cv      --csv features.csv --model rf --folds 5 [--grouped]
//! trajlib-cli train-artifact --out rf.json [--geolife DIR | --users 8] --model rf [--top-k 20]
//! trajlib-cli serve   --artifacts DIR [--addr 127.0.0.1:8080] [--workers N]
//! trajlib-cli cluster --shards 127.0.0.1:8080,127.0.0.1:8081 [--addr 127.0.0.1:8090]
//! ```
//!
//! `extract` consumes either a real GeoLife download or the output of
//! `synth`; `train`/`predict`/`cv` work on the CSV feature tables, so the
//! three stages can run on different machines.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use traj_cluster::{ClusterConfig, ClusterRouter, HttpBackend};
use traj_serve::artifact::{ModelArtifact, TrainSpec};
use traj_serve::batch::SchedulerKind;
use traj_serve::featurize::ServeFeatureSet;
use traj_serve::registry::ModelRegistry;
use traj_serve::server::{serve, DurabilityConfig, ServerConfig};
use trajlib::geolife::loader::LoaderOptions;
use trajlib::ml::metrics::ClassificationReport;
use trajlib::ml::ErasedModel;
use trajlib::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `trajlib-cli help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("missing subcommand".to_owned());
    };
    let opts = parse_options(&args[1..])?;
    match command.as_str() {
        "synth" => cmd_synth(&opts),
        "extract" => cmd_extract(&opts),
        "train" => cmd_train(&opts),
        "predict" => cmd_predict(&opts),
        "cv" => cmd_cv(&opts),
        "train-artifact" => cmd_train_artifact(&opts),
        "serve" => cmd_serve(&opts),
        "cluster" => cmd_cluster(&opts),
        "help" | "--help" | "-h" => {
            println!(
                "trajlib-cli — transportation-mode prediction (Etemad et al., 2019)\n\n\
                 subcommands:\n\
                 \x20 synth   --users N [--seed S] --out DIR\n\
                 \x20 extract --geolife DIR [--scheme raw|dabiri|endo] [--extended] --out FILE.csv\n\
                 \x20 train   --csv FILE --model rf|xgb|tree|ada|svm|mlp|knn [--seed S] --out MODEL.json\n\
                 \x20 predict --csv FILE --model-file MODEL.json\n\
                 \x20 cv      --csv FILE --model KIND [--folds K] [--grouped] [--seed S]\n\
                 \x20 train-artifact --out FILE.json [--geolife DIR | --users N [--synth-seed S]]\n\
                 \x20         [--name NAME] [--version V] [--model KIND] [--scheme raw|dabiri|endo]\n\
                 \x20         [--top-k K] [--extended] [--seed S]\n\
                 \x20 serve   (--artifacts DIR | --artifact FILE.json) [--addr HOST:PORT]\n\
                 \x20         [--workers N] [--idle-timeout-s SECS]\n\
                 \x20         [--scheduler adaptive|fixed] [--slo-ms MS]\n\
                 \x20         [--queue-cap N] [--batch-max N] [--batch-delay-ms MS]\n\
                 \x20         [--ingest-gap-s SECS] [--ingest-min-points N] [--ingest-exact-cap N]\n\
                 \x20         [--ingest-max-sessions N] [--ingest-idle-s SECS]\n\
                 \x20         [--wal-dir DIR] [--wal-fsync always|interval|onclose]\n\
                 \x20         [--wal-fsync-ms MS] [--wal-segment-bytes N] [--snapshot-interval-s SECS]\n\
                 \x20 cluster --shards HOST:PORT,HOST:PORT[,...] [--addr HOST:PORT]\n\
                 \x20         [--vnodes N] [--retries N] [--backoff-ms MS]\n\
                 \x20         [--mirror-every K] [--health-interval-ms MS]"
            );
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

type Options = HashMap<String, String>;

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = HashMap::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument {arg:?}"));
        };
        // Boolean flags take no value.
        if matches!(key, "extended" | "grouped") {
            opts.insert(key.to_owned(), "true".to_owned());
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("--{key} requires a value"))?;
        opts.insert(key.to_owned(), value.clone());
    }
    Ok(opts)
}

fn required<'a>(opts: &'a Options, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required option --{key}"))
}

fn parsed<T: std::str::FromStr>(opts: &Options, key: &str, default: T) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid --{key} value {v:?}")),
    }
}

fn scheme_of(opts: &Options) -> Result<LabelScheme, String> {
    match opts.get("scheme").map(String::as_str) {
        None | Some("dabiri") => Ok(LabelScheme::Dabiri),
        Some("endo") => Ok(LabelScheme::Endo),
        Some("raw") => Ok(LabelScheme::Raw),
        Some(other) => Err(format!("unknown scheme {other:?}; use raw|dabiri|endo")),
    }
}

fn cmd_synth(opts: &Options) -> Result<(), String> {
    let users: usize = parsed(opts, "users", 8)?;
    let seed: u64 = parsed(opts, "seed", 42)?;
    let out = PathBuf::from(required(opts, "out")?);
    let synth = SynthDataset::generate(&SynthConfig {
        n_users: users,
        segments_per_user: (10, 20),
        seed,
        ..SynthConfig::default()
    });
    trajlib::geolife::write_geolife_layout(&synth.to_raw_trajectories(2), &out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "wrote {} users / {} segments in GeoLife layout under {}",
        users,
        synth.segments.len(),
        out.display()
    );
    Ok(())
}

fn cmd_extract(opts: &Options) -> Result<(), String> {
    let dir = PathBuf::from(required(opts, "geolife")?);
    let out = PathBuf::from(required(opts, "out")?);
    let scheme = scheme_of(opts)?;
    let trajectories = trajlib::geolife::load_geolife_directory(&dir, &LoaderOptions::default())
        .map_err(|e| format!("loading {}: {e}", dir.display()))?;
    let mut builder = PipelineConfig::builder(scheme);
    if opts.contains_key("extended") {
        builder = builder.feature_set(FeatureSet::Extended80);
    }
    let config = builder.build();
    let dataset = Pipeline::new(config).dataset_from_raw(&trajectories);
    std::fs::write(&out, dataset.to_csv())
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "extracted {} samples × {} features ({} users) → {}",
        dataset.len(),
        dataset.n_features(),
        dataset.distinct_groups().len(),
        out.display()
    );
    Ok(())
}

fn load_csv(path: &Path) -> Result<Dataset, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Dataset::from_csv(&text)
}

fn cmd_train(opts: &Options) -> Result<(), String> {
    let dataset = load_csv(Path::new(required(opts, "csv")?))?;
    let seed: u64 = parsed(opts, "seed", 0)?;
    let out = PathBuf::from(required(opts, "out")?);
    let mut model = ErasedModel::from_cli_name(required(opts, "model")?, seed)?;
    model.fit(&dataset);
    let train_acc = accuracy(&dataset.y, &model.predict(&dataset));
    let json = serde_json::to_string(&model).map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "trained on {} samples (training accuracy {:.3}) → {}",
        dataset.len(),
        train_acc,
        out.display()
    );
    Ok(())
}

fn cmd_predict(opts: &Options) -> Result<(), String> {
    let dataset = load_csv(Path::new(required(opts, "csv")?))?;
    let model_path = Path::new(required(opts, "model-file")?);
    let json = std::fs::read_to_string(model_path)
        .map_err(|e| format!("reading {}: {e}", model_path.display()))?;
    let model: ErasedModel = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    let pred = model.predict(&dataset);
    let report = ClassificationReport::compute(&dataset.y, &pred, dataset.n_classes);
    println!(
        "accuracy {:.4}  macro-F1 {:.4}  weighted-F1 {:.4}  ({} samples)",
        report.accuracy,
        report.f1_macro(),
        report.f1_weighted(),
        dataset.len()
    );
    Ok(())
}

fn cmd_cv(opts: &Options) -> Result<(), String> {
    let dataset = load_csv(Path::new(required(opts, "csv")?))?;
    let folds: usize = parsed(opts, "folds", 5)?;
    let seed: u64 = parsed(opts, "seed", 0)?;
    let kind = required(opts, "model")?.to_owned();
    // Validate the model kind once, eagerly.
    ErasedModel::from_cli_name(&kind, 0)?;
    let factory = move |s: u64| -> Box<dyn Classifier> {
        Box::new(ErasedModel::from_cli_name(&kind, s).expect("kind validated above"))
    };

    let scores = if opts.contains_key("grouped") {
        cross_validate(&factory, &dataset, &GroupKFold { n_splits: folds }, seed)
    } else {
        cross_validate(&factory, &dataset, &KFold::new(folds, seed), seed)
    }
    .map_err(|e| format!("cross-validation: {e}"))?;
    for (i, s) in scores.iter().enumerate() {
        println!(
            "fold {i}: accuracy {:.4}  weighted-F1 {:.4}",
            s.accuracy, s.f1_weighted
        );
    }
    println!(
        "mean accuracy {:.4}  mean weighted-F1 {:.4}",
        trajlib::ml::cv::mean_accuracy(&scores),
        trajlib::ml::cv::mean_f1_weighted(&scores)
    );
    Ok(())
}

/// Collects labeled segments either from a GeoLife-layout directory
/// (paper segmentation) or from the synthetic generator.
fn load_segments(opts: &Options) -> Result<Vec<Segment>, String> {
    if let Some(dir) = opts.get("geolife") {
        let dir = PathBuf::from(dir);
        let trajectories =
            trajlib::geolife::load_geolife_directory(&dir, &LoaderOptions::default())
                .map_err(|e| format!("loading {}: {e}", dir.display()))?;
        Ok(trajlib::geo::segmentation::segment_all(
            &trajectories,
            &SegmentationConfig::paper(),
        ))
    } else {
        let users: usize = parsed(opts, "users", 8)?;
        let synth_seed: u64 = parsed(opts, "synth-seed", 42)?;
        Ok(SynthDataset::generate(&SynthConfig {
            n_users: users,
            seed: synth_seed,
            ..SynthConfig::default()
        })
        .segments)
    }
}

fn cmd_train_artifact(opts: &Options) -> Result<(), String> {
    let out = PathBuf::from(required(opts, "out")?);
    let model_name = opts.get("model").map(String::as_str).unwrap_or("rf");
    let kind = ErasedModel::from_cli_name(model_name, 0)?.kind();

    let mut spec = TrainSpec::paper_default(
        opts.get("name")
            .cloned()
            .unwrap_or_else(|| model_name.to_owned()),
    );
    spec.version = parsed(opts, "version", 1)?;
    spec.scheme = scheme_of(opts)?;
    spec.kind = kind;
    spec.seed = parsed(opts, "seed", 0)?;
    if opts.contains_key("extended") {
        spec.feature_set = ServeFeatureSet::Extended80;
    }
    spec.top_k = match opts.get("top-k") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("invalid --top-k value {v:?}"))?,
        ),
    };

    let segments = load_segments(opts)?;
    let artifact = ModelArtifact::train(&spec, &segments)?;
    let train_acc = artifact.training_accuracy(&segments);
    artifact.save(&out)?;
    println!(
        "trained artifact {}@v{} ({:?}, {} features, {} segments, training accuracy {:.3}) -> {}",
        artifact.name,
        artifact.version,
        spec.kind,
        artifact.feature_names.len(),
        segments.len(),
        train_acc,
        out.display()
    );
    Ok(())
}

fn cmd_serve(opts: &Options) -> Result<(), String> {
    let mut registry = ModelRegistry::new();
    match (opts.get("artifacts"), opts.get("artifact")) {
        (Some(dir), _) => {
            let n = registry.load_dir(Path::new(dir))?;
            if n == 0 {
                return Err(format!("no *.json artifacts found under {dir}"));
            }
        }
        (None, Some(file)) => registry.load_file(Path::new(file))?,
        (None, None) => return Err("serve needs --artifacts DIR or --artifact FILE".to_owned()),
    }

    let mut config = ServerConfig::default();
    config.workers = parsed(opts, "workers", config.workers)?;
    // Idle/slow-client deadline of the connection reactor. Soak runs
    // that park idle keep-alive connections (loadgen --idle) need this
    // above their duration, or the reaper closes the herd mid-run.
    config.read_timeout = Duration::from_secs(parsed(
        opts,
        "idle-timeout-s",
        config.read_timeout.as_secs(),
    )?);
    // Scheduler: adaptive (deadline-aware, the default) or the fixed
    // size-or-delay baseline. Passing --batch-delay-ms implies fixed,
    // since only the fixed policy has a delay knob.
    let max_batch = parsed(opts, "batch-max", config.batch.policy.max_batch())?;
    let has_delay = opts.contains_key("batch-delay-ms");
    let fixed = match opts.get("scheduler").map(String::as_str) {
        Some("fixed") => true,
        Some("adaptive") if has_delay => {
            return Err("--batch-delay-ms only applies to --scheduler fixed".to_owned())
        }
        Some("adaptive") => false,
        None => has_delay,
        Some(other) => return Err(format!("unknown --scheduler {other:?}; use fixed|adaptive")),
    };
    config.batch.policy = if fixed {
        SchedulerKind::Fixed {
            max_batch,
            max_delay_us: parsed::<u64>(opts, "batch-delay-ms", 2)?.saturating_mul(1_000),
        }
    } else {
        SchedulerKind::Adaptive { max_batch }
    };
    config.batch.slo =
        Duration::from_millis(parsed(opts, "slo-ms", config.batch.slo.as_millis() as u64)?);
    config.batch.queue_cap = parsed(opts, "queue-cap", config.batch.queue_cap)?;
    let (scheduler_name, slo_ms, queue_cap) = (
        config.batch.policy.as_str(),
        config.batch.slo.as_millis(),
        config.batch.queue_cap,
    );
    config.stream.max_gap_s = parsed(opts, "ingest-gap-s", config.stream.max_gap_s)?;
    config.stream.min_points = parsed(opts, "ingest-min-points", config.stream.min_points)?;
    config.stream.exact_cap = parsed(opts, "ingest-exact-cap", config.stream.exact_cap)?;
    config.stream.max_sessions = parsed(opts, "ingest-max-sessions", config.stream.max_sessions)?;
    config.stream.idle_timeout_s = parsed(opts, "ingest-idle-s", config.stream.idle_timeout_s)?;

    if let Some(dir) = opts.get("wal-dir") {
        let mut durability = DurabilityConfig::new(dir);
        let fsync_ms: u64 = parsed(opts, "wal-fsync-ms", 50)?;
        if let Some(name) = opts.get("wal-fsync") {
            durability.fsync =
                traj_serve::server::FsyncPolicy::parse(name, Duration::from_millis(fsync_ms))
                    .ok_or_else(|| {
                        format!("unknown --wal-fsync {name:?}; use always|interval|onclose")
                    })?;
        } else if opts.contains_key("wal-fsync-ms") {
            durability.fsync =
                traj_serve::server::FsyncPolicy::Interval(Duration::from_millis(fsync_ms));
        }
        durability.segment_bytes = parsed(opts, "wal-segment-bytes", durability.segment_bytes)?;
        durability.snapshot_interval = Duration::from_secs(parsed(
            opts,
            "snapshot-interval-s",
            durability.snapshot_interval.as_secs(),
        )?);
        config.durability = Some(durability);
    } else if opts
        .keys()
        .any(|k| k.starts_with("wal-") || k == "snapshot-interval-s")
    {
        return Err(
            "--wal-fsync/--wal-fsync-ms/--wal-segment-bytes/--snapshot-interval-s \
                    require --wal-dir"
                .to_owned(),
        );
    }

    let addr = opts
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:8080");
    let names = registry.names();
    let durability_line = config.durability.as_ref().map(|d| {
        format!(
            "durable ingest: {} (fsync {}, {} MiB segments, snapshot every {}s)",
            d.dir.display(),
            d.fsync.as_str(),
            d.segment_bytes / (1024 * 1024),
            d.snapshot_interval.as_secs()
        )
    });
    let handle = serve(addr, registry, config)?;
    println!(
        "serving {} model(s) [{}] on http://{} ({} scheduler, slo {}ms, queue cap {})",
        names.len(),
        names.join(", "),
        handle.addr(),
        scheduler_name,
        slo_ms,
        queue_cap,
    );
    if let Some(line) = durability_line {
        println!("{line}");
    }
    println!(
        "endpoints: POST /predict  POST /predict_batch  POST /ingest  GET /healthz  GET /metrics"
    );
    // Block forever; Ctrl-C tears the process down.
    loop {
        std::thread::park();
    }
}

fn cmd_cluster(opts: &Options) -> Result<(), String> {
    let shards: Vec<SocketAddr> = required(opts, "shards")?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|_| format!("invalid shard address {s:?}"))
        })
        .collect::<Result<_, String>>()?;
    if shards.is_empty() {
        return Err("--shards needs at least one HOST:PORT".to_owned());
    }

    let mut config = ClusterConfig::default();
    config.vnodes = parsed(opts, "vnodes", config.vnodes)?;
    config.retries = parsed(opts, "retries", config.retries)?;
    config.backoff = Duration::from_millis(parsed(
        opts,
        "backoff-ms",
        config.backoff.as_millis() as u64,
    )?);
    config.mirror_every = parsed(opts, "mirror-every", config.mirror_every)?;
    config.health_interval = Duration::from_millis(parsed(
        opts,
        "health-interval-ms",
        config.health_interval.as_millis() as u64,
    )?);
    let read_timeout = config.read_timeout;

    // Shard ids follow list order, so re-launching with the same list
    // reproduces the same ring assignment.
    let router = ClusterRouter::new(config);
    for (id, addr) in shards.iter().enumerate() {
        router
            .add_shard(id as u32, Box::new(HttpBackend::new(*addr, read_timeout)))
            .map_err(|e| format!("adding shard {id} ({addr}): {e}"))?;
    }
    let _health = router.start_health_checks();

    let addr = opts
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:8090");
    let front = router.serve_http(addr)?;
    println!(
        "routing {} shard(s) [{}] on http://{}",
        shards.len(),
        shards
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        front.addr()
    );
    println!(
        "endpoints: POST /predict  POST /predict_batch  POST /ingest  GET /healthz  GET /readyz\n\
         \x20          GET /metrics  POST /admin/rollout/{{stage,promote,rollback}}  \
         GET /admin/rollout/status"
    );
    // Block forever; Ctrl-C tears the process down.
    loop {
        std::thread::park();
    }
}
