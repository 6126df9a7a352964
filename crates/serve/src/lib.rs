//! # traj-serve
//!
//! Online transportation-mode inference over the trained classifiers of
//! the Etemad et al. (2019) reproduction — the "deploy the model" half
//! the paper's offline evaluation stops short of.
//!
//! The crate is dependency-light by construction (the workspace builds
//! offline): connections live in the [`traj_net`] epoll reactor, which
//! hands each complete request to a worker pool (one worker per core by
//! default), and all JSON goes through the workspace's serde stack.
//!
//! * [`artifact`] — the trained-model bundle: classifier + selected
//!   feature names + Min–Max parameters + label scheme, one JSON file.
//! * [`registry`] — name → versioned model map with resolved feature
//!   projections; the per-request hot path.
//! * [`featurize`] — steps 2–3 of the paper's pipeline as a pure
//!   function of one segment, shared by training and serving.
//! * [`server`] — `POST /predict`, `POST /predict_batch`,
//!   `GET /healthz`, `GET /metrics`.
//! * [`batch`] — SLO-aware micro-batching with admission control behind
//!   every prediction: `/predict`, `/predict_batch` and `/ingest` closes.
//! * [`metrics`] — lock-free counters and latency/batch histograms.
//!
//! ```no_run
//! use traj_serve::artifact::{ModelArtifact, TrainSpec};
//! use traj_serve::registry::ModelRegistry;
//! use traj_serve::server::{serve, ServerConfig};
//! use traj_geolife::{SynthConfig, SynthDataset};
//!
//! let segments = SynthDataset::generate(&SynthConfig::small(7)).segments;
//! let artifact = ModelArtifact::train(&TrainSpec::paper_default("rf"), &segments).unwrap();
//! let mut registry = ModelRegistry::new();
//! registry.insert(artifact).unwrap();
//! let handle = serve("127.0.0.1:8080", registry, ServerConfig::default()).unwrap();
//! println!("serving on {}", handle.addr());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod batch;
pub mod featurize;
pub mod metrics;
pub mod registry;
pub mod server;

pub use artifact::{ModelArtifact, TrainSpec};
pub use registry::{LoadedModel, ModelRegistry, Prediction};
pub use server::{serve, DurabilityConfig, ServerConfig, ServerHandle};
