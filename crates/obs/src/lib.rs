//! Observability substrate for the MPress reproduction.
//!
//! Every layer of the stack (simulator, planner, CLI, benches) reports
//! through the types in this crate, so one JSON schema answers the
//! questions the paper's evaluation revolves around: where simulated
//! time goes (stall attribution), what the links carried (per-link bytes
//! and occupancy) and what the planner's search cost (emulator runs,
//! cache hits).
//!
//! Three design rules keep the layer compatible with the workspace's
//! determinism contract:
//!
//! * **No clocks.** Histograms and gauges record *simulated* seconds
//!   passed in by the caller; nothing in this crate reads wall time.
//! * **Deterministic iteration.** All metric families live in
//!   `BTreeMap`s keyed by name, so snapshots serialize with sorted,
//!   stable keys.
//! * **Zero cost when disabled.** Recording is only performed by callers
//!   that were explicitly configured to collect metrics; a disabled run
//!   never constructs a recorder.
//!
//! The crate also hosts [`verbosity`], the single documented entry point
//! for the debug environment variables that the engine and planner used
//! to parse independently.

#![forbid(unsafe_code)]

pub mod recorder;
pub mod stall;
pub mod verbosity;

pub use recorder::{Histogram, HistogramSnapshot, MetricsRecorder, MetricsReport};
pub use stall::{StallBreakdown, StallCause};
pub use verbosity::{
    parse_trace_window, trace_window, verbosity, TraceWindow, Verbosity, ENV_PLAN_DEBUG,
    ENV_SIM_DEBUG, ENV_SIM_TRACE, ENV_TRACE_WINDOW,
};
