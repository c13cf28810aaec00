//! # paldia-workloads
//!
//! The 16 ML inference workloads the paper evaluates (12 vision models on
//! ImageNet-1k, 4 language models on the Large Movie Review Dataset) plus
//! the SeBS "regular" serverless workloads used in the mixed-workload study
//! (Table III).
//!
//! The paper profiles each workload offline on every hardware generation to
//! obtain `Solo_M` (isolated batch latency) and `FBR_M` (fractional memory
//! bandwidth requirement) — the two quantities Eq. (1) consumes. This crate
//! *is* that profile store: a calibrated analytic table playing the role of
//! the authors' measured profiles. Calibration preserves the relative facts
//! the paper's results rest on:
//!
//! * per-model batch latency lands in the 50–200 ms band on the hardware the
//!   schedulers actually pick (§V);
//! * GoogleNet / DPN-92 / VGG-19 / DenseNet-121 are "high-FBR" vision models
//!   (peak 225 rps in the traces); the rest are low-FBR (peak 450 rps);
//! * language models have far higher execution times, memory footprints and
//!   FBRs than vision models (batch 8, peak 8 rps);
//! * CPU nodes sustain only ~25 rps for high-FBR workloads (§IV-A).

pub mod model;
pub mod profile;
pub mod sebs;
pub mod tokens;

pub use model::{MlModel, ModelClass};
pub use profile::Profile;
pub use sebs::SebsWorkload;
pub use tokens::{TokenCard, TokenLens};
