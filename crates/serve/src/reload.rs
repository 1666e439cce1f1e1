//! Atomic hot model reload.
//!
//! The server keeps one [`ModelSlot`] shared by every shard. Scorer
//! threads clone the current [`ModelVersion`] `Arc` once per batch, so
//! a reload takes effect exactly at a batch boundary: in-flight batches
//! finish against the weights they started with, later batches pick up
//! the new generation, and no response ever mixes the two.
//!
//! [`load_model`] accepts three artifact shapes at a single path:
//! a [`DetectorPipeline`] JSON export, a bare [`Network`] JSON export,
//! or a training checkpoint directory (`checkpoint.json` inside). A JSON
//! file is parsed once: its top-level keys tell a pipeline from a bare
//! network. Loading validates the model itself (layer shapes, finite
//! weights and biases); the candidate is then checked against the
//! serving pipeline (input dimension, binary head) before it is
//! installed, so a bad artifact leaves the current generation untouched.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use maleva_core::DetectorPipeline;
use maleva_nn::{Network, TrainCheckpoint};
use serde::{Content, ContentDeserializer, Deserialize, Deserializer};

use crate::error::ServeError;

/// One immutable set of weights plus the generation it was installed
/// as. Generation 0 is the boot model; reloads count up from 1.
#[derive(Debug)]
pub struct ModelVersion {
    /// The scoring network.
    pub network: Network,
    /// Monotonic install counter (0 = the weights the server booted
    /// with).
    pub generation: u64,
}

/// Shared, swappable handle to the current [`ModelVersion`].
///
/// Readers call [`ModelSlot::current`] (a cheap lock + `Arc` clone) at
/// most once per batch; [`ModelSlot::generation`] is a lock-free read
/// for cache-validity checks on the hot path.
#[derive(Debug)]
pub struct ModelSlot {
    current: Mutex<Arc<ModelVersion>>,
    generation: AtomicU64,
}

impl ModelSlot {
    /// Wraps the boot network as generation 0.
    pub fn new(network: Network) -> Self {
        ModelSlot {
            current: Mutex::new(Arc::new(ModelVersion {
                network,
                generation: 0,
            })),
            generation: AtomicU64::new(0),
        }
    }

    /// The live version; clones the `Arc`, never the weights.
    pub fn current(&self) -> Arc<ModelVersion> {
        match self.current.lock() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// The live generation, readable without touching the slot lock.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Installs `network` as the next generation and returns it. The
    /// swap is atomic from a reader's point of view: `current()`
    /// observes either the old or the new version, never a torn mix.
    pub fn install(&self, network: Network) -> u64 {
        let mut guard = match self.current.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let next = guard.generation + 1;
        *guard = Arc::new(ModelVersion {
            network,
            generation: next,
        });
        self.generation.store(next, Ordering::Release);
        next
    }
}

/// Loads candidate weights from `path` and validates them against the
/// serving `pipeline`. Accepts a pipeline JSON file, a network JSON
/// file, or a checkpoint directory; any parse or shape problem maps to
/// [`ServeError::ReloadFailed`] without touching the live model.
pub fn load_model(path: &str, pipeline: &DetectorPipeline) -> Result<Network, ServeError> {
    let network = read_network(Path::new(path))?;
    let want_dim = pipeline.features().dim();
    if network.input_dim() != want_dim {
        return Err(ServeError::ReloadFailed {
            detail: format!(
                "input dimension mismatch: model expects {}, pipeline produces {want_dim}",
                network.input_dim()
            ),
        });
    }
    if network.num_classes() != 2 {
        return Err(ServeError::ReloadFailed {
            detail: format!(
                "expected a binary head, model has {} classes",
                network.num_classes()
            ),
        });
    }
    Ok(network)
}

fn read_network(path: &Path) -> Result<Network, ServeError> {
    if path.is_dir() {
        return match TrainCheckpoint::load(path) {
            Ok(Some(checkpoint)) => Ok(checkpoint.network),
            Ok(None) => Err(ServeError::ReloadFailed {
                detail: format!("no checkpoint found in {}", path.display()),
            }),
            Err(e) => Err(ServeError::ReloadFailed {
                detail: format!("checkpoint load failed: {e}"),
            }),
        };
    }
    let json = std::fs::read_to_string(path).map_err(|e| ServeError::ReloadFailed {
        detail: format!("cannot read {}: {e}", path.display()),
    })?;
    serde_json::from_str::<Export>(&json)
        .map(|export| export.0)
        .map_err(|e| ServeError::ReloadFailed {
            detail: format!(
                "{} is not a valid pipeline or network export: {e}",
                path.display()
            ),
        })
}

/// The network of a JSON export: a pipeline export carries it under its
/// top-level `network` key, and anything else is read as a bare network.
struct Export(Network);

impl<'de> Deserialize<'de> for Export {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let content = d.content()?;
        let pipeline =
            matches!(&content, Content::Map(keys) if keys.iter().any(|(k, _)| k == "network"));
        let d = ContentDeserializer::<D::Error>::new(content);
        if pipeline {
            DetectorPipeline::deserialize(d).map(|p| Export(p.network().clone()))
        } else {
            Network::deserialize(d).map(Export)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maleva_core::{ExperimentContext, ExperimentScale};
    use maleva_nn::{Activation, NetworkBuilder};
    use std::sync::OnceLock;

    fn ctx() -> &'static ExperimentContext {
        static CTX: OnceLock<ExperimentContext> = OnceLock::new();
        CTX.get_or_init(|| {
            ExperimentContext::build(ExperimentScale::tiny(), 42).expect("tiny context")
        })
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("maleva-reload-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn slot_swaps_atomically_and_counts_generations() {
        let pipeline = &ctx().detector;
        let slot = ModelSlot::new(pipeline.network().clone());
        assert_eq!(slot.generation(), 0);
        assert_eq!(slot.current().generation, 0);
        let g1 = slot.install(pipeline.network().clone());
        assert_eq!(g1, 1);
        assert_eq!(slot.generation(), 1);
        let old = slot.current();
        let g2 = slot.install(pipeline.network().clone());
        assert_eq!(g2, 2);
        // A reader holding the old Arc still sees a coherent version.
        assert_eq!(old.generation, 1);
        assert_eq!(slot.current().generation, 2);
    }

    #[test]
    fn loads_a_network_export_and_a_pipeline_export() {
        let pipeline = &ctx().detector;
        let dir = scratch("exports");
        let net_path = dir.join("network.json");
        std::fs::write(&net_path, pipeline.network().to_json().expect("to_json"))
            .expect("write network");
        let loaded = load_model(net_path.to_str().expect("utf8"), pipeline).expect("load network");
        assert_eq!(loaded.input_dim(), pipeline.features().dim());

        let pipe_path = dir.join("pipeline.json");
        std::fs::write(&pipe_path, pipeline.to_json().expect("to_json")).expect("write pipeline");
        load_model(pipe_path.to_str().expect("utf8"), pipeline).expect("load pipeline");
    }

    #[test]
    fn rejects_missing_files_shape_mismatches_and_empty_checkpoints() {
        let pipeline = &ctx().detector;
        let err = load_model("/nonexistent/model.json", pipeline).expect_err("missing file");
        assert_eq!(err.kind(), "reload_failed");

        let dir = scratch("bad");
        let wrong = NetworkBuilder::new(pipeline.features().dim() + 3)
            .layer(4, Activation::ReLU)
            .layer(2, Activation::Identity)
            .seed(7)
            .build()
            .expect("build network");
        let wrong_path = dir.join("wrong.json");
        std::fs::write(&wrong_path, wrong.to_json().expect("to_json")).expect("write");
        let err = load_model(wrong_path.to_str().expect("utf8"), pipeline)
            .expect_err("dimension mismatch");
        assert!(err.to_string().contains("dimension mismatch"), "{err}");

        let empty = scratch("empty-checkpoint");
        let err = load_model(empty.to_str().expect("utf8"), pipeline).expect_err("no checkpoint");
        assert!(err.to_string().contains("no checkpoint"), "{err}");
    }
}
