//! Name → object catalogs for wire-level requests.
//!
//! Requests carry *names* ("bert-1.67b", "dgx1", "pipedream", "all");
//! this module is the single resolution point the CLI, the daemon and
//! the load generator share, so one spelling works everywhere. Unknown
//! names resolve to [`ServeError::BadRequest`] listing the options.

use crate::wire::ServeError;
use mpress::OptimizationSet;
use mpress_hw::Machine;
use mpress_model::{zoo, PrecisionPolicy, TransformerConfig};
use mpress_pipeline::ScheduleKind;

/// All model variants with their request names.
pub fn model_catalog() -> Vec<(&'static str, TransformerConfig)> {
    vec![
        ("bert-0.35b", zoo::bert_0_35b()),
        ("bert-0.64b", zoo::bert_0_64b()),
        ("bert-1.67b", zoo::bert_1_67b()),
        ("bert-4.0b", zoo::bert_4_0b()),
        ("bert-6.2b", zoo::bert_6_2b()),
        ("gpt-5.3b", zoo::gpt_5_3b()),
        ("gpt-10.3b", zoo::gpt_10_3b()),
        ("gpt-15.4b", zoo::gpt_15_4b()),
        ("gpt-20.4b", zoo::gpt_20_4b()),
        ("gpt-25.5b", zoo::gpt_25_5b()),
    ]
}

/// Looks up a model by request name.
///
/// # Errors
///
/// Lists the valid names on failure.
pub fn model(name: &str) -> Result<TransformerConfig, ServeError> {
    model_catalog()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, m)| m)
        .ok_or_else(|| {
            let names: Vec<&str> = model_catalog().iter().map(|(n, _)| *n).collect();
            ServeError::BadRequest(format!(
                "unknown model `{name}`; expected one of: {}",
                names.join(", ")
            ))
        })
}

/// Looks up a machine by request name.
///
/// # Errors
///
/// Lists the valid names on failure.
pub fn machine(name: &str) -> Result<Machine, ServeError> {
    match name {
        "dgx1" => Ok(Machine::dgx1()),
        "dgx2" => Ok(Machine::dgx2()),
        "commodity" => Ok(Machine::commodity()),
        other => Err(ServeError::BadRequest(format!(
            "unknown machine `{other}`; expected dgx1, dgx2 or commodity"
        ))),
    }
}

/// Looks up a schedule by request name.
///
/// # Errors
///
/// Lists the valid names on failure.
pub fn schedule(name: &str) -> Result<ScheduleKind, ServeError> {
    match name {
        "pipedream" => Ok(ScheduleKind::PipeDream),
        "dapple" => Ok(ScheduleKind::Dapple),
        "gpipe" => Ok(ScheduleKind::GPipe),
        other => Err(ServeError::BadRequest(format!(
            "unknown schedule `{other}`; expected pipedream, dapple or gpipe"
        ))),
    }
}

/// Looks up an optimization set by request name.
///
/// # Errors
///
/// Lists the valid names on failure.
pub fn optimizations(name: &str) -> Result<OptimizationSet, ServeError> {
    match name {
        "all" => Ok(OptimizationSet::all()),
        "recompute" => Ok(OptimizationSet::recompute_only()),
        "hostswap" => Ok(OptimizationSet::host_swap_only()),
        "d2d" => Ok(OptimizationSet::d2d_only()),
        "none" => Ok(OptimizationSet::none()),
        other => Err(ServeError::BadRequest(format!(
            "unknown optimization set `{other}`; expected all, recompute, hostswap, d2d or none"
        ))),
    }
}

/// The paper's default pairing: Bert runs PipeDream/FP32 at microbatch 12,
/// GPT runs DAPPLE/mixed at microbatch 2.
pub fn paper_defaults(model: &TransformerConfig) -> (ScheduleKind, usize, PrecisionPolicy) {
    match model.family() {
        mpress_model::ModelFamily::Bert => (
            ScheduleKind::PipeDream,
            zoo::BERT_MICROBATCH,
            PrecisionPolicy::full(),
        ),
        mpress_model::ModelFamily::Gpt => (
            ScheduleKind::Dapple,
            zoo::GPT_MICROBATCH,
            PrecisionPolicy::mixed(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_name_resolves() {
        for (name, cfg) in model_catalog() {
            assert_eq!(model(name).unwrap().name(), cfg.name());
        }
    }

    #[test]
    fn unknown_names_list_options() {
        assert!(model("gpt-99b")
            .unwrap_err()
            .to_string()
            .contains("gpt-25.5b"));
        assert!(machine("dgx9").unwrap_err().to_string().contains("dgx2"));
        assert!(schedule("fifo").unwrap_err().to_string().contains("gpipe"));
        assert!(optimizations("max")
            .unwrap_err()
            .to_string()
            .contains("recompute"));
    }

    #[test]
    fn paper_defaults_follow_family() {
        let (sched, mb, _) = paper_defaults(&zoo::bert_0_64b());
        assert_eq!(sched, ScheduleKind::PipeDream);
        assert_eq!(mb, 12);
        let (sched, mb, _) = paper_defaults(&zoo::gpt_5_3b());
        assert_eq!(sched, ScheduleKind::Dapple);
        assert_eq!(mb, 2);
    }
}
