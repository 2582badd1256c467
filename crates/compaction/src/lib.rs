//! The MPress *compaction library* (paper Fig. 5, "Compaction Lib").
//!
//! Implements the three memory-saving techniques MPress combines and the
//! machinery around them:
//!
//! * **Recomputation** — drop a forward activation, re-run its forward
//!   computation inside the backward pass (costs GPU compute, applies to
//!   activations only).
//! * **GPU-CPU swap** — round-trip a tensor over PCIe to pinned host
//!   memory (applies to anything, slow: the paper measures 42 ms for a
//!   216 MB tensor).
//! * **D2D swap** — the paper's novel technique: stripe a tensor over
//!   multiple NVLink lanes to peer GPUs with spare memory
//!   ([`StripePlan`]), 7-8x faster than the PCIe path.
//!
//! [`CostModel`] reproduces the per-tensor cost comparison of Table III;
//! [`InstrumentationPlan`] is the tensor→technique assignment MPress's
//! planner emits. No pass rewrites the graph with swap or drop ops: the
//! simulator executes each directive just in time, expanding it into
//! copy-stream tasks and folded recompute time when a run is built.

#![forbid(unsafe_code)]

pub mod cost;
pub mod directive;
pub mod striping;
pub mod technique;

pub use cost::CostModel;
pub use directive::{
    validate_directive, HostTier, InstrumentationPlan, MemoryDirective, PlanValidationError,
};
pub use striping::{StripeChunk, StripePlan};
pub use technique::Technique;
