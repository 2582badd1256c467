//! Dataflow-graph substrate for the MPress reproduction.
//!
//! MPress Static (paper Fig. 5) operates on the training job's dataflow
//! graph: the *profiler* collects per-tensor stats and the *planner*
//! assigns memory-saving strategies using live-interval analysis. The
//! paper's *rewriter* would then splice swap/drop/recompute operators
//! into the graph; here the simulator executes the planner's directives
//! just in time instead, so the graph only ever holds compute and
//! communication ops. This crate provides the graph representation
//! those components share:
//!
//! * [`Tensor`]s at per-layer x per-microbatch granularity (activations)
//!   and per-layer granularity (parameters, gradients, optimizer states),
//! * [`Op`]s at per-stage x per-microbatch granularity with *sub-events*
//!   recording when each layer's activation is produced inside a forward
//!   op and consumed inside a backward op, and
//! * [`liveness`] analysis turning a timed schedule into per-tensor live
//!   intervals — the quantity MPress's cost model compares against swap
//!   and recomputation latencies (paper §III-D).

#![forbid(unsafe_code)]

pub mod graph;
pub mod ids;
pub mod liveness;
pub mod op;
pub mod tensor;

pub use graph::{GraphError, TrainingGraph, TrainingGraphBuilder};
pub use ids::{OpId, TensorId};
pub use liveness::{LiveInterval, LivenessAnalysis};
pub use op::{Op, OpKind, SubEvent};
pub use tensor::{Tensor, TensorKind};
