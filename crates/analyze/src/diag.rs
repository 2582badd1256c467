//! The diagnostics engine shared by the static passes.
//!
//! Every finding carries a **stable** `MP0xx` code (the catalogue below
//! is append-only: codes are never renumbered, so scripts and CI logs
//! can match on them), a severity, a human message and span-like
//! context pointing at the stage/device/tensor/op concerned. A
//! [`Report`] renders either as an aligned table (for terminals) or as
//! one JSON document (stable key order, `mpress-obs` conventions).

use serde::{Serialize, Value};
use std::fmt;

/// Stable diagnostic codes of the static plan verifier.
///
/// | code | meaning |
/// |------|---------|
/// | MP001 | dependency cycle in the combined op graph |
/// | MP002 | stream-order inconsistency (an op touches another stage's tensor) |
/// | MP003 | tensor used before any producer can have run |
/// | MP004 | tensor used after an op already freed it |
/// | MP005 | tensor freed more than once |
/// | MP006 | invalid D2D stripe (unreachable link, bad lanes, size mismatch) |
/// | MP007 | certified residency lower bound exceeds device capacity |
/// | MP008 | D2D victim device lacks headroom for an incoming stripe chunk |
/// | MP009 | recompute on a non-recomputable tensor |
/// | MP010 | directive cannot apply to this tensor |
/// | MP011 | device map inconsistent with the job or machine |
/// | MP012 | byte arithmetic overflowed during analysis |
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// MP001: the program-order + cross-stage dependency graph is cyclic.
    Cycle,
    /// MP002: an op reads/writes/frees a non-boundary tensor homed on a
    /// different stage — its stream could never own that memory.
    StreamOrder,
    /// MP003: a read is not ordered after any producer of the tensor.
    UseBeforeProduce,
    /// MP004: a read is ordered after an op that frees the tensor.
    UseAfterFree,
    /// MP005: two distinct ops free the same tensor.
    DoubleFree,
    /// MP006: a D2D stripe names a non-existent link or bad lane counts,
    /// or does not cover the tensor's bytes.
    BadStripe,
    /// MP007: the bounds pass certified a device's residency *lower*
    /// bound above usable capacity after swap/recompute effects — the
    /// emulator is guaranteed to report OOM.
    CapacityExceeded,
    /// MP008: a stripe chunk certain to land on a victim device leaves
    /// it over capacity on top of the victim's permanent statics.
    VictimOverflow,
    /// MP009: recompute on a non-recomputable tensor.
    BadRecompute,
    /// MP010: a directive cannot apply to this tensor: it is unknown, an
    /// inter-stage boundary tensor (which the schedule itself
    /// transfers), or a swap of a tensor more than one op writes.
    BadDirectiveTarget,
    /// MP011: the device map does not cover the job's stages or names
    /// devices the machine does not have.
    BadDeviceMap,
    /// MP012: a byte sum overflowed `u64` during analysis; capacity
    /// verdicts for the affected stage are unreliable.
    Overflow,
}

impl Code {
    /// The stable `MP0xx` string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Cycle => "MP001",
            Code::StreamOrder => "MP002",
            Code::UseBeforeProduce => "MP003",
            Code::UseAfterFree => "MP004",
            Code::DoubleFree => "MP005",
            Code::BadStripe => "MP006",
            Code::CapacityExceeded => "MP007",
            Code::VictimOverflow => "MP008",
            Code::BadRecompute => "MP009",
            Code::BadDirectiveTarget => "MP010",
            Code::BadDeviceMap => "MP011",
            Code::Overflow => "MP012",
        }
    }

    /// Whether the diagnostic means the plan is *malformed* (as opposed
    /// to merely guaranteed to run out of memory).
    ///
    /// Structural codes describe plans the emulator refuses to run;
    /// capacity findings (MP007/MP008) and analysis overflow
    /// (MP012) describe plans it runs to an OOM (or cannot judge), and
    /// that OOM verdict is what drives the planner's feasibility loop.
    pub fn is_structural(self) -> bool {
        !matches!(
            self,
            Code::CapacityExceeded | Code::VictimOverflow | Code::Overflow
        )
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Code {
    fn to_json(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth knowing, does not invalidate the plan.
    Warning,
    /// The plan is wrong (or certain to OOM).
    Error,
}

impl Severity {
    /// Lower-case label used in both renderings.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Severity {
    fn to_json(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

/// Span-like context: where in the plan/graph the finding points.
///
/// All fields are optional; a finding fills in whatever it knows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Context {
    /// Pipeline stage concerned.
    pub stage: Option<usize>,
    /// Device index concerned.
    pub device: Option<usize>,
    /// Tensor id concerned (raw index).
    pub tensor: Option<u32>,
    /// Op id concerned (raw index).
    pub op: Option<u32>,
}

impl Context {
    /// An empty context.
    pub fn none() -> Self {
        Context::default()
    }

    /// Sets the stage.
    pub fn stage(mut self, stage: usize) -> Self {
        self.stage = Some(stage);
        self
    }

    /// Sets the device.
    pub fn device(mut self, device: usize) -> Self {
        self.device = Some(device);
        self
    }

    /// Sets the tensor.
    pub fn tensor(mut self, tensor: u32) -> Self {
        self.tensor = Some(tensor);
        self
    }

    /// Sets the op.
    pub fn op(mut self, op: u32) -> Self {
        self.op = Some(op);
        self
    }

    /// Compact `stage 2 · GPU3 · t17 · op4` rendering; empty when the
    /// context carries nothing.
    fn render(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(s) = self.stage {
            parts.push(format!("stage {s}"));
        }
        if let Some(d) = self.device {
            parts.push(format!("GPU{d}"));
        }
        if let Some(t) = self.tensor {
            parts.push(format!("t{t}"));
        }
        if let Some(o) = self.op {
            parts.push(format!("op{o}"));
        }
        parts.join(" · ")
    }
}

impl Serialize for Context {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("stage".to_string(), self.stage.to_json()),
            ("device".to_string(), self.device.to_json()),
            ("tensor".to_string(), self.tensor.to_json()),
            ("op".to_string(), self.op.to_json()),
        ])
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Where it points.
    pub context: Context,
}

impl Diagnostic {
    /// An error-severity finding.
    pub fn error(code: Code, context: Context, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            context,
        }
    }

    /// A warning-severity finding.
    pub fn warning(code: Code, context: Context, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            context,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ctx = self.context.render();
        if ctx.is_empty() {
            write!(f, "{} [{}] {}", self.code, self.severity, self.message)
        } else {
            write!(
                f,
                "{} [{}] {}: {}",
                self.code, self.severity, ctx, self.message
            )
        }
    }
}

impl Serialize for Diagnostic {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("code".to_string(), self.code.to_json()),
            ("severity".to_string(), self.severity.to_json()),
            ("message".to_string(), self.message.to_json()),
            ("context".to_string(), self.context.to_json()),
        ])
    }
}

/// The outcome of one verification: zero or more [`Diagnostic`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Adds one finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// All findings, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Whether any *structural* error is present (see
    /// [`Code::is_structural`]).
    pub fn has_structural_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error && d.code.is_structural())
    }

    /// Whether a given code fired at least once.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// One-line summary, e.g. `3 errors, 1 warning (MP003 MP006 MP006 MP008)`.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return "no diagnostics".to_string();
        }
        let codes: Vec<&str> = self.diagnostics.iter().map(|d| d.code.as_str()).collect();
        format!(
            "{} error(s), {} warning(s) ({})",
            self.error_count(),
            self.warning_count(),
            codes.join(" ")
        )
    }

    /// Aligned-table rendering for terminals.
    pub fn render_table(&self) -> String {
        if self.is_clean() {
            return "check: no diagnostics\n".to_string();
        }
        let mut rows: Vec<[String; 4]> = Vec::with_capacity(self.diagnostics.len());
        for d in &self.diagnostics {
            rows.push([
                d.code.as_str().to_string(),
                d.severity.as_str().to_string(),
                d.context.render(),
                d.message.clone(),
            ]);
        }
        let mut width = [4usize, 8, 5, 7]; // header widths
        for row in &rows {
            for (w, cell) in width.iter_mut().zip(row.iter()).take(3) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<w0$}  {:<w1$}  {:<w2$}  MESSAGE\n",
            "CODE",
            "SEVERITY",
            "WHERE",
            w0 = width[0],
            w1 = width[1],
            w2 = width[2],
        ));
        for row in &rows {
            out.push_str(&format!(
                "{:<w0$}  {:<w1$}  {:<w2$}  {}\n",
                row[0],
                row[1],
                row[2],
                row[3],
                w0 = width[0],
                w1 = width[1],
                w2 = width[2],
            ));
        }
        out.push_str(&format!("{}\n", self.summary()));
        out
    }
}

impl Serialize for Report {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("clean".to_string(), self.is_clean().to_json()),
            ("errors".to_string(), self.error_count().to_json()),
            ("warnings".to_string(), self.warning_count().to_json()),
            ("diagnostics".to_string(), self.diagnostics.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::Cycle.as_str(), "MP001");
        assert_eq!(Code::StreamOrder.as_str(), "MP002");
        assert_eq!(Code::UseBeforeProduce.as_str(), "MP003");
        assert_eq!(Code::UseAfterFree.as_str(), "MP004");
        assert_eq!(Code::DoubleFree.as_str(), "MP005");
        assert_eq!(Code::BadStripe.as_str(), "MP006");
        assert_eq!(Code::CapacityExceeded.as_str(), "MP007");
        assert_eq!(Code::VictimOverflow.as_str(), "MP008");
        assert_eq!(Code::BadRecompute.as_str(), "MP009");
        assert_eq!(Code::BadDirectiveTarget.as_str(), "MP010");
        assert_eq!(Code::BadDeviceMap.as_str(), "MP011");
        assert_eq!(Code::Overflow.as_str(), "MP012");
    }

    #[test]
    fn capacity_codes_are_not_structural() {
        assert!(Code::BadStripe.is_structural());
        assert!(Code::Cycle.is_structural());
        assert!(!Code::CapacityExceeded.is_structural());
        assert!(!Code::VictimOverflow.is_structural());
        assert!(!Code::Overflow.is_structural());
    }

    #[test]
    fn report_counts_and_summary() {
        let mut r = Report::new();
        assert!(r.is_clean());
        assert_eq!(r.summary(), "no diagnostics");
        r.push(Diagnostic::error(
            Code::BadStripe,
            Context::none().stage(1).tensor(4),
            "stripe targets unreachable device",
        ));
        r.push(Diagnostic::warning(
            Code::CapacityExceeded,
            Context::none().device(0),
            "close to capacity",
        ));
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_code(Code::BadStripe));
        assert!(!r.has_code(Code::Cycle));
        assert!(r.has_structural_errors());
        assert!(r.summary().contains("MP006"));
    }

    #[test]
    fn capacity_errors_do_not_trip_the_structural_gate() {
        let mut r = Report::new();
        r.push(Diagnostic::error(
            Code::CapacityExceeded,
            Context::none(),
            "over capacity",
        ));
        assert_eq!(r.error_count(), 1);
        assert!(!r.has_structural_errors());
    }

    #[test]
    fn table_lists_every_row() {
        let mut r = Report::new();
        r.push(Diagnostic::error(
            Code::UseAfterFree,
            Context::none().tensor(3).op(7),
            "t3 read after free",
        ));
        let table = r.render_table();
        assert!(table.contains("MP004"), "{table}");
        assert!(table.contains("t3 · op7"), "{table}");
        assert!(table.contains("CODE"), "{table}");
    }

    #[test]
    fn json_shape_is_stable() {
        let mut r = Report::new();
        r.push(Diagnostic::error(
            Code::BadDeviceMap,
            Context::none().stage(2),
            "map too short",
        ));
        let v = r.to_json();
        assert_eq!(v.get("clean").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("errors").and_then(Value::as_u64), Some(1));
        let diags = v
            .get("diagnostics")
            .and_then(Value::as_array)
            .expect("array");
        assert_eq!(diags[0].get("code").and_then(Value::as_str), Some("MP011"));
        assert_eq!(
            diags[0]
                .get("context")
                .and_then(|c| c.get("stage"))
                .and_then(Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn display_concatenates_code_and_context() {
        let d = Diagnostic::error(Code::DoubleFree, Context::none().tensor(9), "freed twice");
        let s = d.to_string();
        assert!(
            s.contains("MP005") && s.contains("t9") && s.contains("freed twice"),
            "{s}"
        );
    }
}
