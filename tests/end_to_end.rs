//! End-to-end invariants of the plan → simulate pipeline.

use mpress::{Mpress, OptimizationSet, PlannerConfig};
use mpress_compaction::Technique;
use mpress_hw::{Bytes, Machine};
use mpress_model::{ModelFamily, PrecisionPolicy, TransformerConfig};
use mpress_pipeline::{PipelineJob, ScheduleKind};

fn pressured_job() -> PipelineJob {
    // Big enough to overflow a V100, small enough to plan quickly.
    PipelineJob::builder()
        .model(
            TransformerConfig::builder(ModelFamily::Gpt)
                .layers(32)
                .hidden(4096)
                .seq_len(1024)
                .build(),
        )
        .machine(Machine::dgx1())
        .schedule(ScheduleKind::Dapple)
        .microbatch_size(2)
        .microbatches(16)
        .precision(PrecisionPolicy::mixed())
        .build()
        .unwrap()
}

#[test]
fn plan_validates_against_its_graph() {
    let mpress = Mpress::builder().job(pressured_job()).build();
    let (plan, lowered) = mpress.plan().unwrap();
    assert!(plan.instrumentation.validate(&lowered.graph).is_ok());
    assert!(
        !plan.instrumentation.is_empty(),
        "pressured job needs a plan"
    );
}

#[test]
fn planning_is_deterministic() {
    let mpress = Mpress::builder().job(pressured_job()).build();
    let (p1, _) = mpress.plan().unwrap();
    let (p2, _) = mpress.plan().unwrap();
    assert_eq!(p1.device_map, p2.device_map);
    assert_eq!(p1.instrumentation, p2.instrumentation);
}

#[test]
fn savings_account_for_every_directive() {
    let mpress = Mpress::builder().job(pressured_job()).build();
    let (plan, lowered) = mpress.plan().unwrap();
    let savings = plan.savings(&lowered);
    let by_sum: Bytes = savings.values().copied().sum();
    let by_iter: Bytes = plan
        .instrumentation
        .iter()
        .map(|(t, _)| lowered.graph.tensor(t).bytes)
        .sum();
    assert_eq!(by_sum, by_iter);
}

#[test]
fn simulated_peaks_respect_capacity_when_successful() {
    let mpress = Mpress::builder().job(pressured_job()).build();
    let report = mpress.train().unwrap();
    assert!(report.succeeded());
    let cap = mpress.machine().gpu().usable_memory();
    for (dev, peak) in report.sim.device_peak.iter().enumerate() {
        assert!(*peak <= cap, "device {dev} peaked at {peak} over {cap}");
    }
}

#[test]
fn mpress_never_loses_to_its_own_restricted_variants() {
    // With every technique available, the emulator-driven planner must do
    // at least as well as the best single-technique plan it could emit.
    let all = Mpress::builder()
        .job(pressured_job())
        .optimizations(OptimizationSet::all())
        .build()
        .train()
        .unwrap();
    assert!(all.succeeded());
    let rec = Mpress::builder()
        .job(pressured_job())
        .optimizations(OptimizationSet::recompute_only())
        .build()
        .train()
        .unwrap();
    if rec.succeeded() {
        assert!(
            all.tflops >= rec.tflops * 0.98,
            "mpress {:.1} vs recompute-only {:.1}",
            all.tflops,
            rec.tflops
        );
    }
}

#[test]
fn d2d_budget_is_respected_by_importers() {
    // After a successful MPress run, importer devices must stay within
    // capacity too (their donated spare was budgeted by the planner).
    let mpress = Mpress::builder().job(pressured_job()).build();
    let report = mpress.train().unwrap();
    assert!(report.succeeded());
    if report.plan.savings_has(Technique::D2dSwap) {
        assert!(report.sim.d2d_traffic > Bytes::ZERO);
    }
}

/// Helper trait so the test reads naturally.
trait SavingsHas {
    fn savings_has(&self, tech: Technique) -> bool;
}

impl SavingsHas for mpress::MpressPlan {
    fn savings_has(&self, tech: Technique) -> bool {
        self.instrumentation
            .iter()
            .any(|(_, d)| d.technique() == tech)
    }
}

#[test]
fn exhaustive_swap_saves_more_but_runs_slower_or_equal() {
    let smart = Mpress::builder()
        .job(pressured_job())
        .optimizations(OptimizationSet::host_swap_only())
        .build()
        .train()
        .unwrap();
    let mut naive_cfg = PlannerConfig::default();
    naive_cfg.optimizations = OptimizationSet::host_swap_only();
    naive_cfg.exhaustive_swap = true;
    let naive = Mpress::builder()
        .job(pressured_job())
        .planner_config(naive_cfg)
        .build()
        .train()
        .unwrap();
    if smart.succeeded() && naive.succeeded() {
        assert!(naive.sim.host_traffic >= smart.sim.host_traffic);
    }
}

#[test]
fn restricted_variants_only_use_their_allowed_techniques() {
    // Regression: `best_static_choice` once read the planner's *configured*
    // optimization set instead of the portfolio variant being planned, so
    // a recompute-only plan could silently contain host swaps (and the
    // portfolio guarantee quietly evaporated).
    let cases = [
        (
            OptimizationSet::recompute_only(),
            vec![Technique::Recompute],
        ),
        (
            OptimizationSet::host_swap_only(),
            vec![Technique::GpuCpuSwap],
        ),
        (OptimizationSet::d2d_only(), vec![Technique::D2dSwap]),
        (
            OptimizationSet {
                recompute: true,
                host_swap: true,
                d2d: false,
            },
            vec![Technique::Recompute, Technique::GpuCpuSwap],
        ),
    ];
    for (opts, allowed) in cases {
        let mpress = Mpress::builder()
            .job(pressured_job())
            .optimizations(opts)
            .build();
        let (plan, _) = mpress.plan().unwrap();
        for (t, d) in plan.instrumentation.iter() {
            assert!(
                allowed.contains(&d.technique()),
                "{opts:?} plan assigned {:?} to {t}",
                d.technique()
            );
        }
    }
}

#[test]
fn plan_with_nothing_enabled_is_empty() {
    let mpress = Mpress::builder()
        .job(pressured_job())
        .optimizations(OptimizationSet::none())
        .build();
    let (plan, _) = mpress.plan().unwrap();
    assert!(plan.instrumentation.is_empty());
}

/// The paper's Bert-1.67B/PipeDream/DGX-1 cell with telemetry on: every
/// compute second of every device is either busy or attributed to exactly
/// one stall cause, so per device `busy.compute + stalls.total()` must
/// telescope to the makespan.
#[test]
fn telemetry_stall_attribution_tiles_the_makespan() {
    let report = Mpress::builder()
        .job(mpress_bench::jobs::bert_job(
            mpress_model::zoo::bert_1_67b(),
            Machine::dgx1(),
        ))
        .metrics(true)
        .build()
        .train()
        .unwrap();
    assert!(report.succeeded());
    let telemetry = report.metrics.expect("metrics were enabled");
    let sim = telemetry.sim.expect("training run simulates");
    assert_eq!(sim.devices.len(), 8, "DGX-1 has eight GPUs");
    let tolerance = 1e-9 * sim.total_time.max(1.0);
    assert!(
        sim.stall_invariant_error() < tolerance,
        "stall attribution leaks {} s (makespan {} s)",
        sim.stall_invariant_error(),
        sim.total_time,
    );
    // A compacted Bert run moves memory, so link accounting cannot be
    // empty, and occupancies are well-formed fractions.
    assert!(!sim.links.is_empty());
    for l in &sim.links {
        assert!((0.0..=1.0).contains(&l.occupancy), "{:?}", l);
        assert!(l.busy >= 0.0 && l.bytes > Bytes::ZERO, "{:?}", l);
    }
    // Search telemetry rode along with the same report.
    assert!(telemetry.search.emulator_runs > 0);
}

/// The telemetry document is serde-stable: serialize → parse → serialize
/// is a fixed point (the CLI's `--metrics=json` depends on this).
#[test]
fn telemetry_report_round_trips_through_json() {
    let report = Mpress::builder()
        .job(pressured_job())
        .metrics(true)
        .build()
        .train()
        .unwrap();
    let telemetry = report.metrics.expect("metrics were enabled");
    let json = serde_json::to_string_pretty(&telemetry).unwrap();
    let first: serde_json::Value = serde_json::from_str(&json).unwrap();
    let again = serde_json::to_string(&first).unwrap();
    let second: serde_json::Value = serde_json::from_str(&again).unwrap();
    assert_eq!(first, second);
}
