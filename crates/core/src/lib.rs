//! **MPress** — the paper's primary contribution, reproduced in Rust.
//!
//! MPress (HPCA 2023) breaks the GPU memory wall of billion-scale
//! inter-operator (pipeline) parallel training on one multi-GPU server by
//! combining three memory-compaction techniques with complementary costs:
//!
//! * a novel **D2D swap** that stripes tensors over multiple NVLink lanes
//!   to peer GPUs with spare memory (fast, but the spare pool is small),
//! * **GPU-CPU swap** over PCIe (slow, vast capacity), and
//! * **recomputation** (no memory moved, costs compute, activations only).
//!
//! The crate mirrors the paper's Fig. 5 architecture:
//!
//! * [`profiler`] runs one uninstrumented iteration in the simulator and
//!   extracts per-tensor stats (sizes, live intervals, layer times),
//! * [`mapping`] searches stage→device permutations so that pressured
//!   stages sit next to NVLink-reachable spare memory (Fig. 6),
//! * [`planner`] assigns techniques to tensor classes with a cost model
//!   and refines the assignment through emulator feedback (§III-D),
//! * [`system`] wraps everything into the [`Mpress`] facade.
//!
//! # Quickstart
//!
//! ```no_run
//! use mpress::{Mpress, OptimizationSet};
//! use mpress_pipeline::{PipelineJob, ScheduleKind};
//! use mpress_model::zoo;
//! use mpress_hw::Machine;
//!
//! let job = PipelineJob::builder()
//!     .model(zoo::gpt_10_3b())
//!     .machine(Machine::dgx1())
//!     .schedule(ScheduleKind::Dapple)
//!     .microbatch_size(2)
//!     .build()?;
//! let report = Mpress::builder()
//!     .job(job)
//!     .optimizations(OptimizationSet::all())
//!     .build()
//!     .train()?;
//! println!("achieved {:.1} TFLOPS", report.tflops);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod insights;
pub mod mapping;
pub mod planner;
pub mod profiler;
pub mod system;
pub mod telemetry;

pub use cache::{CancelToken, Lru, PlanCache, PlanCacheStats, DEFAULT_PLAN_CAPACITY};
pub use insights::{GraceHopperNode, GraceHopperProjection};
pub use mapping::{MappingSearch, SpareAssignment};
pub use planner::{Metric, MpressPlan, Planner, PlannerConfig, SearchStats};
pub use profiler::{Profile, TensorClass, TensorClassKind};
pub use system::{Mpress, MpressBuilder, MpressError, OptimizationSet, TrainingReport};
pub use telemetry::TelemetryReport;
