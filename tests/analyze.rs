//! Cross-crate tests for the static plan verifier (`mpress-analyze`).
//!
//! Two properties anchor the verifier's design:
//!
//! * **Soundness** — every plan the planner emits, across the whole
//!   model zoo on both NVLink machines, verifies clean, so `check`
//!   never flags a plan the planner chose.
//! * **Sensitivity** — seeded mutations of a *real* planner plan
//!   (retargeted stripes, bogus recomputes, wrong-size maps) each
//!   produce their exact `MP0xx` code, so the codes are usable as a
//!   stable contract by tooling and CI.

use mpress::{Mpress, MpressPlan, PlannerConfig};
use mpress_analyze::{check_plan, BoundsAnalyzer, BoundsVerdict, Code};
use mpress_bench::jobs::{bert_job, gpt_job};
use mpress_compaction::{HostTier, InstrumentationPlan, MemoryDirective, StripePlan};
use mpress_graph::TensorKind;
use mpress_hw::{DeviceId, Machine};
use mpress_model::{zoo, TransformerConfig};
use mpress_pipeline::PipelineJob;
use mpress_sim::{DeviceMap, SimArena, Simulator};

fn zoo_jobs(machine: &Machine) -> Vec<(String, PipelineJob)> {
    let bert: Vec<TransformerConfig> = zoo::bert_variants();
    let gpt: Vec<TransformerConfig> = zoo::gpt_variants();
    bert.into_iter()
        .map(|m| (m.to_string(), bert_job(m, machine.clone())))
        .chain(
            gpt.into_iter()
                .map(|m| (m.to_string(), gpt_job(m, machine.clone()))),
        )
        .collect()
}

/// Soundness: the verifier accepts every planner-emitted plan for every
/// zoo model on both NVLink machines. A single diagnostic here means
/// `check` flags a plan the planner chose — the one thing the analysis
/// must never do.
///
/// The same jobs are the default-vs-reference harness: the certified-
/// bounds prune and bound-and-abort only skip candidates the metric
/// could never accept, so a [`PlannerConfig::reference`] search must
/// choose the default search's plan exactly. Neither side attaches a
/// plan cache, so both really search. On the pressured Bert-1.67B ×
/// DGX-1 case both shortcuts demonstrably fire by default.
#[test]
fn verifier_accepts_every_planner_plan_across_zoo_and_machines() {
    let cases: Vec<(Machine, String, PipelineJob)> = [Machine::dgx1(), Machine::dgx2()]
        .into_iter()
        .flat_map(|machine| {
            zoo_jobs(&machine)
                .into_iter()
                .map(move |(name, job)| (machine.clone(), name, job))
        })
        .collect();
    // Every case plans twice; spread the cases over the worker pool.
    mpress_par::par_map(&cases, |(machine, name, job)| {
        let case = format!("{name} on {}", machine.name());
        let mpress = Mpress::builder().job(job.clone()).build();
        let (plan, lowered) = mpress.plan().expect("planning succeeds");
        let report = check_plan(
            mpress.machine(),
            &lowered.graph,
            &plan.instrumentation,
            &plan.device_map,
        );
        assert!(
            report.is_clean(),
            "{case}: planner plan flagged:\n{}",
            report.render_table()
        );

        let (reference, _) = Mpress::builder()
            .job(job.clone())
            .planner_config(PlannerConfig::reference())
            .build()
            .plan()
            .expect("reference planning succeeds");
        let fingerprint = |p: &MpressPlan| {
            format!(
                "{:?}|{:?}|{}|{:?}",
                p.device_map, p.instrumentation, p.refinement_rounds, p.refine_candidates
            )
        };
        assert_eq!(fingerprint(&plan), fingerprint(&reference), "{case}");
        assert_eq!(reference.search.bounds_pruned, 0, "{case}");
        assert_eq!(reference.search.bound_aborts, 0, "{case}");
        if *name == zoo::bert_1_67b().to_string() && machine.name() == Machine::dgx1().name() {
            assert!(plan.search.bounds_pruned > 0, "{case}: {:?}", plan.search);
            assert!(plan.search.bound_aborts > 0, "{case}: {:?}", plan.search);
        }
    });
}

/// A pressured job whose full-MPress plan contains D2D stripes to
/// mutate: Bert-0.64B on DGX-1 (the paper's "medium size" case).
fn d2d_plan() -> (Mpress, mpress::MpressPlan, mpress_pipeline::LoweredJob) {
    let mpress = Mpress::builder()
        .job(bert_job(zoo::bert_0_64b(), Machine::dgx1()))
        .build();
    let (plan, lowered) = mpress.plan().expect("planning succeeds");
    (mpress, plan, lowered)
}

/// Rebuilds the plan with `mutate` applied to every directive.
fn mutate_plan(
    plan: &InstrumentationPlan,
    mut mutate: impl FnMut(mpress_graph::TensorId, &MemoryDirective) -> MemoryDirective,
) -> InstrumentationPlan {
    let mut out = InstrumentationPlan::new();
    for (t, d) in plan.iter() {
        out.assign(t, mutate(t, d));
    }
    out
}

/// Mutation: retarget one stripe to a device the source cannot reach
/// over NVLink. The exact code is MP006 (`BadStripe`), and it is
/// structural — the emulator would refuse to run this plan.
#[test]
fn retargeted_stripe_yields_mp006() {
    let (mpress, plan, lowered) = d2d_plan();
    let topology = mpress.machine().topology();
    let mut mutated_any = false;
    let mutated = mutate_plan(&plan.instrumentation, |t, d| {
        if mutated_any {
            return d.clone();
        }
        if let MemoryDirective::SwapD2d(stripe) = d {
            let src = plan.device_map.device_of(lowered.graph.tensor(t).stage);
            // DGX-1's cube mesh links each GPU to only four peers, so an
            // unreachable victim always exists.
            let bad = (0..mpress.machine().gpu_count())
                .map(DeviceId)
                .find(|&v| v != src && !topology.reachable(src, v))
                .expect("DGX-1 has unreachable pairs");
            mutated_any = true;
            return MemoryDirective::SwapD2d(StripePlan::single(stripe.total_bytes(), bad, 1));
        }
        d.clone()
    });
    assert!(mutated_any, "expected a D2D stripe in the 0.64B plan");
    let report = check_plan(mpress.machine(), &lowered.graph, &mutated, &plan.device_map);
    assert!(
        report.has_code(Code::BadStripe),
        "expected MP006:\n{}",
        report.render_table()
    );
    assert!(report.has_structural_errors());
}

/// Mutation: recompute a parameter. Statics are never recomputable, so
/// the exact code is MP009 (`BadRecompute`).
#[test]
fn recompute_on_parameter_yields_mp009() {
    let (mpress, plan, lowered) = d2d_plan();
    let param = lowered
        .graph
        .tensors()
        .iter()
        .find(|t| t.kind == TensorKind::Parameter)
        .expect("graph has parameters");
    let mut mutated = plan.instrumentation.clone();
    mutated.assign(param.id, MemoryDirective::Recompute);
    let report = check_plan(mpress.machine(), &lowered.graph, &mutated, &plan.device_map);
    assert!(
        report.has_code(Code::BadRecompute),
        "expected MP009:\n{}",
        report.render_table()
    );
}

/// Mutation: swap a tensor more than one op writes (a gradient, which
/// every backward op of its stage accumulates into). The engine exports
/// a swapped tensor once, after its producer, so it refuses the plan;
/// the exact code is MP010 (`BadDirectiveTarget`), and it is structural.
#[test]
fn multi_writer_swap_yields_mp010() {
    let (mpress, plan, lowered) = d2d_plan();
    let graph = &lowered.graph;
    let target = graph
        .tensors()
        .iter()
        .find(|t| t.kind != TensorKind::Boundary && graph.writer_count(t.id) > 1)
        .expect("graph has a multi-writer tensor");
    let mut mutated = plan.instrumentation.clone();
    mutated.assign(target.id, MemoryDirective::SwapToHost(HostTier::Dram));
    let report = check_plan(mpress.machine(), graph, &mutated, &plan.device_map);
    assert!(
        report.has_code(Code::BadDirectiveTarget),
        "expected MP010:\n{}",
        report.render_table()
    );
    assert!(report.has_structural_errors());
    let run = Simulator::new(mpress.machine(), graph, &mutated, plan.device_map.clone()).run();
    assert!(run.is_err(), "the simulator ran a multi-writer swap");
}

/// Mutation: a device map covering the wrong number of stages. The
/// exact code is MP011 (`BadDeviceMap`).
#[test]
fn short_device_map_yields_mp011() {
    let (mpress, plan, lowered) = d2d_plan();
    let short = DeviceMap::identity(lowered.graph.n_stages() - 1);
    let report = check_plan(
        mpress.machine(),
        &lowered.graph,
        &plan.instrumentation,
        &short,
    );
    assert!(
        report.has_code(Code::BadDeviceMap),
        "expected MP011:\n{}",
        report.render_table()
    );
}

/// Soundness of the certified bounds: for every zoo model on both
/// NVLink machines, the emulated makespan and per-device peaks of the
/// planner's chosen plan lie inside the certified intervals, and a
/// `certified-oom` verdict is always confirmed by the engine. (The
/// bench oracle `exp_bench_bounds` additionally sweeps directive
/// mutations; this is the tier-1 cut of the same property.)
#[test]
fn certified_bounds_contain_emulation_across_zoo_and_machines() {
    let mut arena = SimArena::new();
    for machine in [Machine::dgx1(), Machine::dgx2()] {
        for (name, job) in zoo_jobs(&machine) {
            let mpress = Mpress::builder().job(job).build();
            let (plan, lowered) = mpress.plan().expect("planning succeeds");
            let analyzer = BoundsAnalyzer::new(mpress.machine(), &lowered.graph);
            let bounds =
                analyzer.certify_with_arena(&plan.instrumentation, &plan.device_map, &mut arena);
            let sim = Simulator::new(
                mpress.machine(),
                &lowered.graph,
                &plan.instrumentation,
                plan.device_map.clone(),
            )
            .run_in(&mut arena)
            .expect("chosen plan emulates");
            let case = format!("{name} on {}", machine.name());
            assert!(
                sim.makespan <= bounds.makespan_hi * (1.0 + 1e-9),
                "{case}: makespan {} above upper bound {}",
                sim.makespan,
                bounds.makespan_hi
            );
            for (d, peak) in sim.device_peak.iter().enumerate() {
                assert!(
                    *peak <= bounds.residency.hi[d],
                    "{case}: gpu{d} peak {peak} above upper bound {}",
                    bounds.residency.hi[d]
                );
            }
            if sim.oom.is_none() {
                assert!(
                    sim.makespan >= bounds.makespan_lo * (1.0 - 1e-9),
                    "{case}: makespan {} below lower bound {}",
                    sim.makespan,
                    bounds.makespan_lo
                );
                for (d, peak) in sim.device_peak.iter().enumerate() {
                    assert!(
                        *peak >= bounds.residency.lo[d],
                        "{case}: gpu{d} peak {peak} below lower bound {}",
                        bounds.residency.lo[d]
                    );
                }
            }
            if bounds.residency.verdict == BoundsVerdict::CertifiedOom {
                assert!(sim.oom.is_some(), "{case}: certified-oom but completed");
            }
        }
    }
}

/// A bare plan (no directives) for GPT-15.4B on DGX-1 homes every
/// static — parameters, gradients, optimizer state — on its stage's
/// GPU, which is certifiably over the 32 GiB budget before any
/// emulation. The verdict is `certified-oom` and the report carries
/// MP007 for the overloaded devices, as a *model-capacity* error, not a
/// structural one (the plan spec itself is well-formed).
#[test]
fn bare_plan_on_gpt_15_4b_exceeds_capacity_mp007() {
    let job = gpt_job(zoo::gpt_15_4b(), Machine::dgx1());
    let lowered = job.lower().expect("paper job lowers");
    let machine = Machine::dgx1();
    let map = DeviceMap::identity(lowered.graph.n_stages());
    let analyzer = BoundsAnalyzer::new(&machine, &lowered.graph);
    let plan = InstrumentationPlan::new();
    let bounds = analyzer.certify(&plan, &map);
    assert_eq!(bounds.verdict, BoundsVerdict::CertifiedOom);
    let report = analyzer.diagnose(&plan, &map);
    assert!(
        report.has_code(Code::CapacityExceeded),
        "expected MP007:\n{}",
        report.render_table()
    );
    assert!(report.error_count() > 0);
    assert!(!report.has_structural_errors());
}

/// One `train` report of Bert-1.67B × DGX-1 as a byte-exact string: the
/// chosen plan, the final simulation and the derived metrics.
fn bert_1_67b_report(config: PlannerConfig) -> (String, mpress::SearchStats) {
    let report = Mpress::builder()
        .job(bert_job(zoo::bert_1_67b(), Machine::dgx1()))
        .planner_config(config)
        .build()
        .train()
        .expect("valid inputs");
    let text = format!(
        "{:?}|{:?}|{}|{:?}|{:?}|{:?}|{:?}|{}|{}",
        report.plan.device_map,
        report.plan.instrumentation,
        report.plan.refinement_rounds,
        report.plan.refine_candidates,
        report.sim.makespan.to_bits(),
        report.sim.device_peak,
        report.sim.host_traffic,
        report.tflops.to_bits(),
        report.throughput.to_bits(),
    );
    (text, report.plan.search)
}

/// The bounds gate must be invisible: the default run's report is
/// byte-identical to a reference run's, which prunes nothing (the
/// certified lower bound only skips candidates the metric could never
/// prefer) and so emulates more candidates. On this pressured case the
/// gate also demonstrably fires.
#[test]
fn bounds_gate_does_not_change_the_chosen_plan() {
    let (default, stats) = bert_1_67b_report(PlannerConfig::default());
    assert!(
        stats.bounds_pruned > 0,
        "bounds gate never fired: {stats:?}"
    );
    let (reference, reference_stats) = bert_1_67b_report(PlannerConfig::reference());
    assert_eq!(reference_stats.bounds_pruned, 0, "{reference_stats:?}");
    assert!(
        reference_stats.emulator_runs > stats.emulator_runs,
        "reference search saw no more candidates: {reference_stats:?} vs {stats:?}"
    );
    assert_eq!(default, reference);
}
