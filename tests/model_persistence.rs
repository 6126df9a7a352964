//! Model persistence: every fitted model serialises through serde (JSON)
//! and the deserialised copy predicts identically — the property a
//! downstream deployment (train offline, ship the model) relies on.

use trajlib::ml::boosting::{AdaBoost, AdaBoostConfig, GbdtConfig, GradientBoosting};
use trajlib::ml::forest::ForestConfig;
use trajlib::ml::linear::{LinearSvm, SvmConfig};
use trajlib::ml::neural::{Mlp, MlpConfig};
use trajlib::ml::tree::{DecisionTree, TreeConfig};
use trajlib::prelude::*;

fn dataset() -> Dataset {
    let synth = SynthDataset::generate(&SynthConfig {
        n_users: 5,
        segments_per_user: (6, 9),
        seed: 31,
        ..SynthConfig::default()
    });
    Pipeline::new(PipelineConfig::paper(LabelScheme::Dabiri)).dataset_from_segments(&synth.segments)
}

fn assert_identical_predictions<M>(model: &M, data: &Dataset)
where
    M: serde::Serialize + serde::de::DeserializeOwned + Classifier,
{
    let json = serde_json::to_string(model).expect("serialise");
    let restored: M = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(model.predict(data), restored.predict(data));
}

#[test]
fn decision_tree_round_trips() {
    let data = dataset();
    let mut tree = DecisionTree::new(TreeConfig::default());
    Classifier::fit(&mut tree, &data);
    assert_identical_predictions(&tree, &data);
}

#[test]
fn random_forest_round_trips() {
    let data = dataset();
    let mut forest = RandomForest::new(ForestConfig {
        n_estimators: 8,
        ..ForestConfig::default()
    });
    Classifier::fit(&mut forest, &data);
    assert_identical_predictions(&forest, &data);

    // Importances and OOB survive the round trip too.
    let json = serde_json::to_string(&forest).unwrap();
    let restored: RandomForest = serde_json::from_str(&json).unwrap();
    assert_eq!(forest.feature_importances(), restored.feature_importances());
    assert_eq!(forest.oob_score(), restored.oob_score());
}

#[test]
fn gradient_boosting_round_trips() {
    let data = dataset();
    let mut gbdt = GradientBoosting::new(GbdtConfig {
        n_rounds: 4,
        ..GbdtConfig::default()
    });
    Classifier::fit(&mut gbdt, &data);
    assert_identical_predictions(&gbdt, &data);
}

#[test]
fn adaboost_round_trips() {
    let data = dataset();
    let mut ada = AdaBoost::new(AdaBoostConfig {
        n_estimators: 6,
        ..AdaBoostConfig::default()
    });
    Classifier::fit(&mut ada, &data);
    assert_identical_predictions(&ada, &data);
}

#[test]
fn svm_round_trips() {
    let data = dataset();
    let mut svm = LinearSvm::new(SvmConfig {
        epochs: 3,
        ..SvmConfig::default()
    });
    Classifier::fit(&mut svm, &data);
    assert_identical_predictions(&svm, &data);
}

#[test]
fn mlp_round_trips() {
    let data = dataset();
    let mut mlp = Mlp::new(MlpConfig {
        epochs: 3,
        hidden: vec![8],
        ..MlpConfig::default()
    });
    Classifier::fit(&mut mlp, &data);
    assert_identical_predictions(&mlp, &data);
}

#[test]
fn scaler_round_trips() {
    let rows = vec![vec![0.0, 5.0], vec![2.0, 9.0], vec![1.0, 7.0]];
    let scaler = MinMaxScaler::fit(&rows);
    let json = serde_json::to_string(&scaler).unwrap();
    let restored: MinMaxScaler = serde_json::from_str(&json).unwrap();
    let mut a = vec![1.5, 6.0];
    let mut b = a.clone();
    scaler.transform_row(&mut a);
    restored.transform_row(&mut b);
    assert_eq!(a, b);
}

#[test]
fn erased_model_round_trips_for_every_kind() {
    // The serving stack persists classifiers through the type-erased enum;
    // every roster entry must survive JSON and predict identically.
    let data = dataset();
    for kind in ["rf", "xgb", "tree", "ada", "svm", "mlp", "knn"] {
        let mut model = trajlib::ml::ErasedModel::from_cli_name(kind, 5).expect("known kind");
        model.fit(&data);
        assert_identical_predictions(&model, &data);
    }
}

#[test]
fn erased_model_json_matches_inner_model_wire_format() {
    // ErasedModel is externally tagged with the same variant names the CLI
    // used before it existed, so artifacts are readable either way: the
    // tagged payload equals the plain model's own serialisation.
    let data = dataset();
    let mut forest = RandomForest::new(ForestConfig {
        n_estimators: 8,
        ..ForestConfig::default()
    });
    Classifier::fit(&mut forest, &data);
    let mut erased = trajlib::ml::ErasedModel::from_cli_name("rf", 5).unwrap();
    Classifier::fit(&mut erased, &data);

    let erased_json = serde_json::to_string(&erased).unwrap();
    assert!(erased_json.starts_with("{\"RandomForest\":"));
    let inner = erased_json
        .strip_prefix("{\"RandomForest\":")
        .and_then(|s| s.strip_suffix('}'))
        .expect("externally tagged");
    let restored: RandomForest = serde_json::from_str(inner).expect("payload is a plain forest");
    assert_eq!(erased.predict(&data), restored.predict(&data));
}

#[test]
fn model_artifact_round_trips_through_registry() {
    // The full serving artifact — scaler, selected feature names and the
    // fitted model — survives save/load and predicts identically on raw
    // GPS points.
    use traj_serve::artifact::{ModelArtifact, TrainSpec};
    use traj_serve::registry::ModelRegistry;

    let synth = SynthDataset::generate(&SynthConfig {
        n_users: 5,
        segments_per_user: (6, 9),
        seed: 31,
        ..SynthConfig::default()
    });
    let mut spec = TrainSpec::paper_default("rf");
    spec.top_k = Some(20);
    spec.seed = 5;
    let artifact = ModelArtifact::train(&spec, &synth.segments).expect("train");
    assert_eq!(artifact.feature_names.len(), 20);

    let dir = std::env::temp_dir().join("trajlib_model_persistence_registry");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rf.json");
    artifact.save(&path).expect("save");

    let mut registry = ModelRegistry::new();
    registry.load_dir(&dir).expect("load_dir");
    let model = registry.get(None).expect("default model");
    let restored = registry.get(Some("rf@v1")).expect("pinned version");

    let probe = synth
        .segments
        .iter()
        .find(|s| s.len() >= traj_serve::artifact::MIN_SEGMENT_POINTS)
        .expect("a long-enough segment");
    let a = model.predict_points(&probe.points).expect("predict");
    let b = restored.predict_points(&probe.points).expect("predict");
    assert_eq!(a.class, b.class);
    assert_eq!(a.scores, b.scores);
    assert_eq!(a.label, b.label);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipeline_config_round_trips() {
    let config = PipelineConfig::builder(LabelScheme::Endo)
        .select_features(["speed_p90"])
        .noise(NoiseConfig::enabled())
        .build();
    let json = serde_json::to_string(&config).unwrap();
    let restored: PipelineConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(config, restored);
}

#[test]
fn served_predict_matches_in_process_model_bit_for_bit() {
    // The benchmark's verification pass in small: the server loads saved
    // artifacts and decodes request bodies written with `Display`, as
    // clients write them; class and scores must equal the in-process
    // model's on the same points, bit for bit. The forest is the model
    // the benchmark serves; the SVM's softmax scores move with the last
    // bit of any feature, so a float-parse or artifact-decode drift
    // fails here.
    use serde::Deserialize;
    use std::fmt::Write as _;
    use traj_serve::artifact::MIN_SEGMENT_POINTS;
    use traj_serve::{serve, LoadedModel, ModelArtifact, ModelRegistry, ServerConfig, TrainSpec};
    use trajlib::ml::ClassifierKind;

    let training = SynthDataset::generate(&SynthConfig {
        n_users: 5,
        segments_per_user: (6, 9),
        seed: 31,
        ..SynthConfig::default()
    });
    let dir = std::env::temp_dir().join("trajlib_model_persistence_served_predict");
    std::fs::create_dir_all(&dir).unwrap();
    let mut models = Vec::new();
    for (name, kind) in [
        ("rf", ClassifierKind::RandomForest),
        ("svm", ClassifierKind::Svm),
    ] {
        let spec = TrainSpec {
            kind,
            seed: 7,
            ..TrainSpec::paper_default(name)
        };
        let artifact = ModelArtifact::train(&spec, &training.segments).expect("train");
        artifact
            .save(&dir.join(format!("{name}.json")))
            .expect("save");
        models.push((name, LoadedModel::new(artifact).expect("in-process model")));
    }
    let mut registry = ModelRegistry::new();
    registry.load_dir(&dir).expect("load_dir");
    let mut handle = serve(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let requests = SynthDataset::generate(&SynthConfig {
        n_users: 12,
        segments_per_user: (1, 1),
        seed: 4,
        max_points_per_segment: 300,
        ..SynthConfig::default()
    });
    let mut checked = 0;
    for segment in requests
        .segments
        .iter()
        .filter(|s| s.len() >= MIN_SEGMENT_POINTS)
    {
        let mut points = String::new();
        for (i, p) in segment.points.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(
                points,
                "{sep}{{\"lat\":{},\"lon\":{},\"t\":{}}}",
                p.lat, p.lon, p.t.0
            )
            .unwrap();
        }
        for (name, model) in &models {
            let body = format!("{{\"model\":\"{name}\",\"points\":[{points}]}}");
            let (status, reply) = handle.dispatch("POST", "/predict", body.as_bytes());
            assert_eq!(status, 200, "{reply}");

            let want = model.predict_points(&segment.points).expect("predict");
            let doc = serde_json::parse_value(&reply).expect("reply is JSON");
            let serde::Value::Map(doc) = doc else {
                panic!("{reply}")
            };
            let class = serde::map_get(&doc, "class").expect("class");
            assert_eq!(
                usize::from_value(class).unwrap(),
                want.class,
                "{name}: {reply}"
            );
            let Some(serde::Value::Seq(scores)) = serde::map_get(&doc, "scores") else {
                panic!("{reply}")
            };
            let got: Vec<u64> = scores
                .iter()
                .map(|s| f64::from_value(s).unwrap().to_bits())
                .collect();
            let want: Vec<u64> = want.scores.iter().map(|s| s.to_bits()).collect();
            assert_eq!(got, want, "{name}: {reply}");
        }
        checked += 1;
    }
    assert!(checked >= 8, "only {checked} segments long enough");
    handle.stop().expect("stop");
    std::fs::remove_dir_all(&dir).ok();
}
