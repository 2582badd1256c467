//! Consolidated debug-verbosity switches.
//!
//! The engine and planner used to parse the environment independently on
//! every debug site. This module is the single documented entry point:
//! the same variables are honored, read **once** per process, and cached
//! for every later call.

use std::sync::OnceLock;

/// Enables the engine's stall/eviction/deadlock diagnostics on stderr.
pub const ENV_SIM_DEBUG: &str = "MPRESS_SIM_DEBUG";

/// Enables the engine's per-task start event log on stderr.
pub const ENV_SIM_TRACE: &str = "MPRESS_SIM_TRACE";

/// Enables the planner's portfolio scoring log on stderr.
pub const ENV_PLAN_DEBUG: &str = "MPRESS_PLAN_DEBUG";

/// Restricts the [`ENV_SIM_TRACE`] start-event log to a clock window and
/// (optionally) one device: `MPRESS_TRACE_WINDOW=lo..hi[,dev]`, e.g.
/// `6.4..8.4,1`. Unset (or unparsable) means no filter — every start is
/// logged.
pub const ENV_TRACE_WINDOW: &str = "MPRESS_TRACE_WINDOW";

/// Disables the planner's static plan verifier hook when set to `0`,
/// `false` or `off` (the escape hatch for A/B-ing the hook; the
/// chosen plan must not change either way — planner-emitted candidates
/// are always structurally valid, so the hook only ever rejects
/// externally-supplied malformed plans).
pub const ENV_VERIFY: &str = "MPRESS_VERIFY";

/// Disables the planner's certified-bounds gate (MP013 pre-emulation
/// rejection + sound incumbent pruning) when set to `0`, `false` or
/// `off`. A/B escape hatch like [`ENV_VERIFY`]: pruning only drops
/// candidates the metric could never pick, so the chosen plan must not
/// change either way — only the `bounds_pruned`/`bounds_certified_fit`
/// counters and wall-clock do.
pub const ENV_BOUNDS: &str = "MPRESS_BOUNDS";

/// Disables the planner's bound-and-abort emulation (candidates abort
/// the moment their simulated clock proves they lose to the incumbent)
/// when set to `0`, `false` or `off`. A/B escape hatch like
/// [`ENV_VERIFY`]: an aborted candidate had already lost by
/// `metric_better`'s rules, so the chosen plan must not change either
/// way — only wall-clock and the `bound_aborts` counter do.
pub const ENV_BOUND_ABORT: &str = "MPRESS_BOUND_ABORT";

/// A parsed [`ENV_TRACE_WINDOW`] filter. Kept outside [`Verbosity`]
/// (whose `Eq` derive the `f64` bounds would break) and cached the same
/// way: read once per process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceWindow {
    /// Inclusive lower clock bound (simulated seconds).
    pub lo: f64,
    /// Exclusive upper clock bound.
    pub hi: f64,
    /// Restrict to one device index; `None` logs every device.
    pub device: Option<usize>,
}

impl TraceWindow {
    /// Whether an event at `clock` on `device` passes the filter.
    pub fn contains(&self, clock: f64, device: usize) -> bool {
        clock >= self.lo && clock < self.hi && self.device.is_none_or(|d| d == device)
    }
}

/// Parses a `lo..hi[,dev]` window spec. Returns `None` for malformed or
/// degenerate (`lo >= hi`, non-finite) specs.
pub fn parse_trace_window(spec: &str) -> Option<TraceWindow> {
    let (range, device) = match spec.split_once(',') {
        Some((range, dev)) => (range, Some(dev.trim().parse().ok()?)),
        None => (spec, None),
    };
    let (lo, hi) = range.split_once("..")?;
    let lo: f64 = lo.trim().parse().ok()?;
    let hi: f64 = hi.trim().parse().ok()?;
    (lo.is_finite() && hi.is_finite() && lo < hi).then_some(TraceWindow { lo, hi, device })
}

/// The process's trace-window filter, if [`ENV_TRACE_WINDOW`] is set to
/// a parsable spec. Read once per process, like [`verbosity`].
pub fn trace_window() -> Option<TraceWindow> {
    static WINDOW: OnceLock<Option<TraceWindow>> = OnceLock::new();
    *WINDOW.get_or_init(|| {
        std::env::var(ENV_TRACE_WINDOW)
            .ok()
            .and_then(|spec| parse_trace_window(&spec))
    })
}

/// Which debug channels are enabled for this process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verbosity {
    /// [`ENV_SIM_DEBUG`] was set.
    pub sim_debug: bool,
    /// [`ENV_SIM_TRACE`] was set.
    pub sim_trace: bool,
    /// [`ENV_PLAN_DEBUG`] was set.
    pub plan_debug: bool,
}

/// The process's debug verbosity. The environment is read on the first
/// call only; changes to the variables after that are ignored (all
/// debug output is opt-in at process launch).
pub fn verbosity() -> Verbosity {
    static VERBOSITY: OnceLock<Verbosity> = OnceLock::new();
    *VERBOSITY.get_or_init(|| Verbosity {
        sim_debug: std::env::var_os(ENV_SIM_DEBUG).is_some(),
        sim_trace: std::env::var_os(ENV_SIM_TRACE).is_some(),
        plan_debug: std::env::var_os(ENV_PLAN_DEBUG).is_some(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbosity_is_cached_and_consistent() {
        // Whatever the environment says, repeated calls agree (the
        // OnceLock makes later env mutations invisible).
        let first = verbosity();
        assert_eq!(first, verbosity());
    }

    #[test]
    fn env_names_are_stable() {
        assert_eq!(ENV_SIM_DEBUG, "MPRESS_SIM_DEBUG");
        assert_eq!(ENV_SIM_TRACE, "MPRESS_SIM_TRACE");
        assert_eq!(ENV_PLAN_DEBUG, "MPRESS_PLAN_DEBUG");
        assert_eq!(ENV_TRACE_WINDOW, "MPRESS_TRACE_WINDOW");
        assert_eq!(ENV_VERIFY, "MPRESS_VERIFY");
        assert_eq!(ENV_BOUNDS, "MPRESS_BOUNDS");
        assert_eq!(ENV_BOUND_ABORT, "MPRESS_BOUND_ABORT");
    }

    #[test]
    fn trace_window_parses_range_and_device() {
        let w = parse_trace_window("6.4..8.4,1").unwrap();
        assert_eq!(
            w,
            TraceWindow {
                lo: 6.4,
                hi: 8.4,
                device: Some(1)
            }
        );
        assert!(w.contains(6.4, 1));
        assert!(!w.contains(8.4, 1)); // upper bound is exclusive
        assert!(!w.contains(7.0, 0)); // wrong device

        let w = parse_trace_window(" 0 .. 2.5 ").unwrap();
        assert_eq!(w.device, None);
        assert!(w.contains(1.0, 7)); // any device without a filter
    }

    #[test]
    fn trace_window_rejects_malformed_specs() {
        for bad in ["", "1.0", "2..1", "a..b", "1..2,x", "inf..2", "1..nan"] {
            assert_eq!(parse_trace_window(bad), None, "spec {bad:?}");
        }
    }
}
