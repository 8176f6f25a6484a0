//! # dyncon-perfbench
//!
//! The repository benchmark: four seeded workloads over the dyncon stack
//! (see `BENCHMARK.md`). An untraced run prints the end-to-end metrics a
//! user would see; a traced run prints one set of metrics per layer and
//! writes a Chrome trace.

pub mod compare;
pub mod json;
pub mod layers;
pub mod load;
pub mod measure;
pub mod metrics;
pub mod spans;
pub mod verify;
pub mod workloads;
