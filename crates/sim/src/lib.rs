//! Discrete-event simulator for the MPress reproduction.
//!
//! Plays the role of the real multi-GPU runtime the paper measures: it
//! executes a lowered [`TrainingGraph`](mpress_graph::TrainingGraph) on a
//! modeled [`Machine`](mpress_hw::Machine), honoring
//!
//! * per-device **streams** — one compute stream, one communication
//!   stream, and separate swap-in/swap-out copy streams (the paper's
//!   runtime creates dedicated CUDA streams for exactly this overlap,
//!   §III-E),
//! * an [`InstrumentationPlan`](mpress_compaction::InstrumentationPlan)
//!   whose directives expand into swap tasks and recomputation time, and
//! * per-device memory accounting with out-of-memory detection — the
//!   red-cross failures of Figs. 7 and 8.
//!
//! The result is a [`SimReport`] carrying the makespan (→ throughput and
//! achieved TFLOPS), per-device memory peaks/timelines, swap traffic and
//! op timings (which feed MPress's live-interval profiler).

#![forbid(unsafe_code)]

pub mod arena;
pub mod device_map;
pub mod engine;
pub mod memory;
pub mod metrics;
pub mod report;
pub mod trace;
pub mod viz;

pub use arena::{graph_fingerprint, ArenaPool, CostProfile, SimArena};
pub use device_map::DeviceMap;
pub use engine::{SimConfig, SimError, SimOutcome, Simulator};
pub use metrics::{DeviceMetrics, LinkMetrics, SimMetrics, StreamBusy};
pub use report::{OomEvent, PoolKind, SimReport};
pub use trace::{TraceEvent, TraceKind};
