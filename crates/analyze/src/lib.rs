//! Static analysis for the MPress reproduction.
//!
//! Three passes, none of which runs the emulator:
//!
//! * **Plan verification** ([`PlanVerifier`]): checks the graph's shape
//!   once (MP001–MP005), then reports a candidate's plan and device-map
//!   errors from the emulator's own validation (MP006, MP009–MP011) and
//!   its residency findings from the bounds pass (MP007, MP008, MP012),
//!   as stable `MP0xx` [`Diagnostic`]s. Exposed as `mpress-cli check`.
//! * **Certified bounds** ([`BoundsAnalyzer`]): an abstract
//!   interpretation computing per-device residency envelopes and a
//!   makespan interval with a three-way capacity verdict
//!   (certified-OOM / certified-fit / unknown). Drives the
//!   `check --bounds` report and the `exp_bench_bounds` soundness
//!   oracle.
//! * **Source linting** ([`lint`]): the `mpress-lint` binary's engine —
//!   token-level determinism/robustness lints over the workspace
//!   sources with a ratcheting allowlist.
//!
//! The verifier is deliberately **one-sided**: it only reports what it
//! can prove (a plan the emulator refuses, or a residency *lower bound*
//! already over capacity), so a plan the planner emits and the emulator
//! accepts is never flagged.

#![forbid(unsafe_code)]

pub mod bounds;
pub mod diag;
pub mod lint;
pub mod verifier;

pub use bounds::{certify_plan, BoundsAnalyzer, BoundsVerdict, PlanBounds, ResidencyBounds};
pub use diag::{Code, Context, Diagnostic, Report, Severity};
pub use verifier::{check_plan, PlanVerifier};
