//! Property-based tests over core data structures and invariants.

use mpress_baselines::MegatronBaseline;
use mpress_compaction::StripePlan;
use mpress_compaction::{HostTier, InstrumentationPlan, MemoryDirective};
use mpress_graph::TensorKind;
use mpress_hw::{Bytes, DeviceId, Topology};
use mpress_model::{ModelFamily, PrecisionPolicy, TransformerConfig};
use mpress_pipeline::{
    MemoryDemands, PartitionGoal, ScheduleKind, StagePartition, StageProgram, StageSlot,
};
use mpress_sim::{DeviceMap, SimArena, SimConfig, Simulator};
use proptest::prelude::*;

proptest! {
    /// `Bytes::split_even` conserves the total and balances within 1 byte.
    #[test]
    fn bytes_split_even_conserves(total in 0u64..1u64 << 40, n in 1usize..64) {
        let b = Bytes(total);
        let parts = b.split_even(n);
        prop_assert_eq!(parts.len(), n);
        prop_assert_eq!(parts.iter().copied().sum::<Bytes>(), b);
        let max = parts.iter().max().unwrap().as_u64();
        let min = parts.iter().min().unwrap().as_u64();
        prop_assert!(max - min <= 1);
    }

    /// Weighted striping conserves bytes exactly and respects lane ratios
    /// approximately.
    #[test]
    fn stripe_weighted_conserves(
        bytes in 1u64..1u64 << 36,
        lanes in proptest::collection::vec(1u32..4, 1..6),
    ) {
        let targets: Vec<(DeviceId, u32)> = lanes
            .iter()
            .enumerate()
            .map(|(i, &l)| (DeviceId(i + 1), l))
            .collect();
        let plan = StripePlan::weighted(Bytes(bytes), &targets);
        prop_assert_eq!(plan.total_bytes(), Bytes(bytes));
        prop_assert_eq!(plan.n_chunks(), targets.len());
        // One-way time is bounded by the slowest single chunk and is
        // never slower than sending everything over the widest pair.
        prop_assert!(plan.one_way_time() > 0.0);
    }

    /// Equal striping also conserves bytes.
    #[test]
    fn stripe_equal_conserves(bytes in 1u64..1u64 << 36, n in 1usize..7) {
        let targets: Vec<DeviceId> = (1..=n).map(DeviceId).collect();
        let plan = StripePlan::equal(Bytes(bytes), &targets, 1);
        prop_assert_eq!(plan.total_bytes(), Bytes(bytes));
    }

    /// Balanced partitions tile all layers exactly once, for both goals.
    #[test]
    fn partition_tiles_layers(
        layers in 8usize..96,
        stages in 1usize..9,
        hidden_mult in 2usize..20,
    ) {
        prop_assume!(stages <= layers);
        let model = TransformerConfig::builder(ModelFamily::Gpt)
            .layers(layers)
            .hidden(hidden_mult * 128)
            .build();
        for goal in [PartitionGoal::Computation, PartitionGoal::Memory] {
            let p = StagePartition::balanced(&model, stages, 2, &PrecisionPolicy::mixed(), goal);
            prop_assert_eq!(p.n_stages(), stages);
            prop_assert_eq!(p.num_layers(), layers);
            let mut covered = 0;
            for s in 0..stages {
                let r = p.stage_layers(s);
                prop_assert_eq!(r.start, covered);
                prop_assert!(!r.is_empty());
                covered = r.end;
            }
            prop_assert_eq!(covered, layers);
        }
    }

    /// 1F1B programs execute each microbatch's forward exactly once,
    /// backward exactly once, and forward-before-backward.
    #[test]
    fn one_f_one_b_is_complete_and_ordered(
        stages in 1usize..9,
        stage_sel in 0usize..8,
        microbatches in 1usize..33,
        kind_sel in 0usize..3,
    ) {
        let stage = stage_sel % stages;
        let kind = [ScheduleKind::PipeDream, ScheduleKind::Dapple, ScheduleKind::GPipe][kind_sel];
        let p = StageProgram::one_f_one_b(kind, stage, stages, microbatches);
        let mut fwd_seen = vec![false; microbatches];
        let mut bwd_seen = vec![false; microbatches];
        for slot in &p.slots {
            match *slot {
                StageSlot::Forward(m) => {
                    prop_assert!(!fwd_seen[m as usize], "duplicate forward {m}");
                    fwd_seen[m as usize] = true;
                }
                StageSlot::Backward(m) => {
                    prop_assert!(fwd_seen[m as usize], "backward {m} before forward");
                    prop_assert!(!bwd_seen[m as usize], "duplicate backward {m}");
                    bwd_seen[m as usize] = true;
                }
                StageSlot::OptimizerStep => {}
            }
        }
        prop_assert!(fwd_seen.into_iter().all(|x| x));
        prop_assert!(bwd_seen.into_iter().all(|x| x));
        // Peak in-flight never exceeds the schedule's bound.
        prop_assert!(p.peak_in_flight() <= kind.in_flight(stage, stages, microbatches));
    }

    /// Analytic memory demands decrease monotonically along the pipeline
    /// and scale with the microbatch count cap.
    #[test]
    fn demands_monotone_along_stages(
        layers in 16usize..64,
        hidden_mult in 4usize..16,
        microbatches in 8usize..32,
        kind_sel in 0usize..3,
    ) {
        let model = TransformerConfig::builder(ModelFamily::Gpt)
            .layers(layers)
            .hidden(hidden_mult * 128)
            .build();
        let kind = [ScheduleKind::PipeDream, ScheduleKind::Dapple, ScheduleKind::GPipe][kind_sel];
        let policy = PrecisionPolicy::mixed();
        let part = StagePartition::balanced(&model, 8, 2, &policy, PartitionGoal::Computation);
        let d = MemoryDemands::compute(&model, &part, kind, 2, microbatches, &policy);
        for w in d.per_stage_peak.windows(2) {
            prop_assert!(w[0] >= w[1], "{:?}", d.per_stage_peak);
        }
        prop_assert_eq!(d.total(), d.per_stage_peak.iter().copied().sum::<Bytes>());
    }

    /// Every DGX-1 stripe plan built from actual neighbour lane counts
    /// validates against the topology.
    #[test]
    fn dgx1_neighbor_stripes_validate(src in 0usize..8, bytes in 1u64..1u64 << 32) {
        let topo = Topology::dgx1();
        let src = DeviceId(src);
        let nbhs = topo.neighbors(src);
        let plan = StripePlan::weighted(Bytes(bytes), &nbhs.iter().map(|&(d, l)| (d, l)).collect::<Vec<_>>());
        prop_assert!(plan.validate(src, &topo).is_ok());
    }

    /// Transformer parameter counts are monotone in depth and width.
    #[test]
    fn params_monotone(layers in 2usize..64, hidden_mult in 2usize..32) {
        let base = TransformerConfig::builder(ModelFamily::Gpt)
            .layers(layers)
            .hidden(hidden_mult * 128)
            .build();
        let deeper = TransformerConfig::builder(ModelFamily::Gpt)
            .layers(layers + 1)
            .hidden(hidden_mult * 128)
            .build();
        let wider = TransformerConfig::builder(ModelFamily::Gpt)
            .layers(layers)
            .hidden((hidden_mult + 1) * 128)
            .build();
        prop_assert!(deeper.total_params() > base.total_params());
        prop_assert!(wider.total_params() > base.total_params());
    }

    /// A PCIe-only topology has no NVLink edges at any size: no pair is
    /// reachable, no device has lanes, and the matrix passes the same
    /// validation as the DGX presets.
    #[test]
    fn pcie_only_topology_has_no_links(n in 1usize..16) {
        let topo = Topology::pcie_only(n);
        prop_assert_eq!(topo.gpu_count(), n);
        for a in topo.devices() {
            prop_assert_eq!(topo.total_lanes(a), 0);
            for b in topo.devices() {
                prop_assert!(!topo.reachable(a, b));
            }
        }
    }

    /// The Megatron model's traffic accounting is exactly the ring
    /// all-reduce volume: (4L + 2) all-reduces of the boundary tensor,
    /// each moving 2(t-1)/t of its bytes per GPU.
    #[test]
    fn megatron_traffic_matches_ring_formula(
        layers in 2usize..48,
        hidden_mul in 2usize..20,
        mb in 1usize..5,
    ) {
        let model = TransformerConfig::builder(ModelFamily::Gpt)
            .layers(layers)
            .hidden(hidden_mul * 128)
            .build();
        let b = MegatronBaseline::new(mpress_hw::Machine::dgx1(), model.clone())
            .microbatch_size(mb);
        let v = model
            .boundary_activation_bytes(mb, &PrecisionPolicy::mixed())
            .as_u64() as f64;
        let expect = (4 * layers + 2) as f64 * 2.0 * 7.0 / 8.0 * v;
        let got = b.comm_bytes_per_microbatch().as_u64() as f64;
        prop_assert!((got - expect).abs() <= 1.0, "{got} vs {expect}");
    }

    /// Megatron's per-GPU memory grows monotonically in both layer count
    /// and microbatch size, and always fits more than the serial model's
    /// 1/t share (the replicated activation floor).
    #[test]
    fn megatron_memory_monotone(layers in 2usize..40, mb in 1usize..6) {
        let model = |l: usize| {
            TransformerConfig::builder(ModelFamily::Gpt)
                .layers(l)
                .hidden(1024)
                .build()
        };
        let bytes = |l: usize, b: usize| {
            MegatronBaseline::new(mpress_hw::Machine::dgx1(), model(l))
                .microbatch_size(b)
                .report()
                .gpu_bytes
        };
        prop_assert!(bytes(layers + 1, mb) > bytes(layers, mb));
        prop_assert!(bytes(layers, mb + 1) > bytes(layers, mb));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Fuzzing the full lower→instrument→simulate path: for arbitrary
    /// small jobs and arbitrary swap/recompute directive subsets the
    /// engine must terminate (no deadlock), report capacity-respecting
    /// peaks on success, and be bit-for-bit deterministic.
    #[test]
    fn engine_never_deadlocks_on_random_jobs_and_plans(
        layers in 2usize..10,
        stages in 2usize..5,
        mb in 1usize..4,
        microbatches in 2usize..8,
        schedule_pick in 0usize..3,
        gpu_gib in 1u64..8,
        directive_mask in 0u64..(1 << 12),
    ) {
        prop_assume!(layers >= stages);
        let schedule = [ScheduleKind::PipeDream, ScheduleKind::Dapple, ScheduleKind::GPipe]
            [schedule_pick];
        let job = mpress_pipeline::PipelineJob::builder()
            .model(
                TransformerConfig::builder(ModelFamily::Gpt)
                    .layers(layers)
                    .hidden(256)
                    .seq_len(128)
                    .build(),
            )
            .schedule(schedule)
            .stages(stages)
            .microbatch_size(mb)
            .microbatches(microbatches)
            .precision(PrecisionPolicy::mixed())
            .build()
            .unwrap();
        let lowered = job.lower().unwrap();
        // Assign a pseudo-random directive to every 12th-bucket activation.
        let mut plan = InstrumentationPlan::new();
        for t in lowered.graph.tensors() {
            if t.kind != TensorKind::Activation || t.layer.is_none() {
                continue;
            }
            match (directive_mask >> (t.id.index() % 12)) & 3 {
                1 => plan.assign(t.id, MemoryDirective::Recompute),
                2 => plan.assign(t.id, MemoryDirective::SwapToHost(HostTier::Dram)),
                _ => {}
            }
        }
        let machine = mpress_hw::Machine::builder()
            .name("fuzz")
            .gpu({
                let mut g = mpress_hw::GpuSpec::v100_32gb();
                g.memory = Bytes::gib(gpu_gib);
                g
            })
            .topology(Topology::dgx2())
            .build();
        let run = || {
            Simulator::new(&machine, &lowered.graph, &plan, DeviceMap::identity(stages))
                .run()
                .expect("engine must terminate, not deadlock")
        };
        let a = run();
        if a.succeeded() {
            for peak in &a.device_peak {
                prop_assert!(*peak <= machine.gpu().usable_memory());
            }
        } else {
            prop_assert!(a.oom.is_some());
        }
        let b = run();
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.device_peak, b.device_peak);
        prop_assert_eq!(a.host_traffic, b.host_traffic);
    }

    /// The indexed fast path (dirty-stream worklist + ready-set bitset +
    /// recycled arena buffers) is a pure optimization: for arbitrary
    /// jobs and directive subsets it must produce a `SimReport`
    /// identical to the retained reference full-scan engine — including
    /// a second run through the *same* arena, which exercises buffer
    /// recycling.
    #[test]
    fn fast_engine_matches_reference_scan(
        layers in 2usize..10,
        stages in 2usize..5,
        mb in 1usize..4,
        microbatches in 2usize..8,
        schedule_pick in 0usize..3,
        gpu_gib in 1u64..8,
        directive_mask in 0u64..(1 << 12),
    ) {
        prop_assume!(layers >= stages);
        let schedule = [ScheduleKind::PipeDream, ScheduleKind::Dapple, ScheduleKind::GPipe]
            [schedule_pick];
        let job = mpress_pipeline::PipelineJob::builder()
            .model(
                TransformerConfig::builder(ModelFamily::Gpt)
                    .layers(layers)
                    .hidden(256)
                    .seq_len(128)
                    .build(),
            )
            .schedule(schedule)
            .stages(stages)
            .microbatch_size(mb)
            .microbatches(microbatches)
            .precision(PrecisionPolicy::mixed())
            .build()
            .unwrap();
        let lowered = job.lower().unwrap();
        let mut plan = InstrumentationPlan::new();
        for t in lowered.graph.tensors() {
            if t.kind != TensorKind::Activation || t.layer.is_none() {
                continue;
            }
            match (directive_mask >> (t.id.index() % 12)) & 3 {
                1 => plan.assign(t.id, MemoryDirective::Recompute),
                2 => plan.assign(t.id, MemoryDirective::SwapToHost(HostTier::Dram)),
                _ => {}
            }
        }
        let machine = mpress_hw::Machine::builder()
            .name("fuzz")
            .gpu({
                let mut g = mpress_hw::GpuSpec::v100_32gb();
                g.memory = Bytes::gib(gpu_gib);
                g
            })
            .topology(Topology::dgx2())
            .build();
        let sim = Simulator::new(&machine, &lowered.graph, &plan, DeviceMap::identity(stages));
        let mut arena = SimArena::new();
        let fast_fresh = sim.run_in(&mut arena).expect("fast engine must terminate");
        let fast_reused = sim.run_in(&mut arena).expect("fast engine must terminate");
        let reference = Simulator::new(&machine, &lowered.graph, &plan, DeviceMap::identity(stages))
            .with_config(SimConfig::default().reference_scan(true))
            .run()
            .expect("reference engine must terminate");
        prop_assert_eq!(&fast_fresh, &reference);
        prop_assert_eq!(&fast_reused, &reference);
    }

    /// The analytic makespan bound used by the plan-search bounds gate
    /// is sound: it never exceeds the emulated makespan of a successful run.
    #[test]
    fn analytic_lower_bound_is_sound(
        layers in 2usize..10,
        stages in 2usize..5,
        mb in 1usize..4,
        microbatches in 2usize..8,
        schedule_pick in 0usize..3,
        directive_mask in 0u64..(1 << 12),
    ) {
        prop_assume!(layers >= stages);
        let schedule = [ScheduleKind::PipeDream, ScheduleKind::Dapple, ScheduleKind::GPipe]
            [schedule_pick];
        let job = mpress_pipeline::PipelineJob::builder()
            .model(
                TransformerConfig::builder(ModelFamily::Gpt)
                    .layers(layers)
                    .hidden(256)
                    .seq_len(128)
                    .build(),
            )
            .schedule(schedule)
            .stages(stages)
            .microbatch_size(mb)
            .microbatches(microbatches)
            .precision(PrecisionPolicy::mixed())
            .build()
            .unwrap();
        let lowered = job.lower().unwrap();
        let mut plan = InstrumentationPlan::new();
        for t in lowered.graph.tensors() {
            if t.kind != TensorKind::Activation || t.layer.is_none() {
                continue;
            }
            match (directive_mask >> (t.id.index() % 12)) & 3 {
                1 => plan.assign(t.id, MemoryDirective::Recompute),
                2 => plan.assign(t.id, MemoryDirective::SwapToHost(HostTier::Dram)),
                _ => {}
            }
        }
        let machine = mpress_hw::Machine::dgx1();
        let map = DeviceMap::identity(stages);
        let mut arena = SimArena::new();
        let lb = arena.makespan_lower_bound(&machine, &lowered.graph, &plan, &map);
        let report = Simulator::new(&machine, &lowered.graph, &plan, map)
            .run_in(&mut arena)
            .expect("engine must terminate");
        if report.succeeded() {
            prop_assert!(
                lb <= report.makespan * (1.0 + 1e-9),
                "bound {lb} exceeds emulated makespan {}",
                report.makespan
            );
        }
    }

    /// The certified bounds are sound on fuzzed jobs and directive
    /// masks: every emulated makespan and per-device peak lies inside
    /// its certified interval (lower bounds only bind on non-OOM runs,
    /// which assume a completed schedule), and certified verdicts are
    /// confirmed by the engine.
    #[test]
    fn certified_bounds_are_sound(
        layers in 2usize..10,
        stages in 2usize..5,
        mb in 1usize..4,
        microbatches in 2usize..8,
        schedule_pick in 0usize..3,
        directive_mask in 0u64..(1 << 12),
    ) {
        prop_assume!(layers >= stages);
        let schedule = [ScheduleKind::PipeDream, ScheduleKind::Dapple, ScheduleKind::GPipe]
            [schedule_pick];
        let job = mpress_pipeline::PipelineJob::builder()
            .model(
                TransformerConfig::builder(ModelFamily::Gpt)
                    .layers(layers)
                    .hidden(256)
                    .seq_len(128)
                    .build(),
            )
            .schedule(schedule)
            .stages(stages)
            .microbatch_size(mb)
            .microbatches(microbatches)
            .precision(PrecisionPolicy::mixed())
            .build()
            .unwrap();
        let lowered = job.lower().unwrap();
        let mut plan = InstrumentationPlan::new();
        for t in lowered.graph.tensors() {
            if t.kind != TensorKind::Activation || t.layer.is_none() {
                continue;
            }
            match (directive_mask >> (t.id.index() % 12)) & 3 {
                1 => plan.assign(t.id, MemoryDirective::Recompute),
                2 => plan.assign(t.id, MemoryDirective::SwapToHost(HostTier::Dram)),
                _ => {}
            }
        }
        let machine = mpress_hw::Machine::dgx1();
        let map = DeviceMap::identity(stages);
        let mut arena = SimArena::new();
        let bounds =
            mpress_analyze::certify_plan(&machine, &lowered.graph, &plan, &map, &mut arena);
        let report = Simulator::new(&machine, &lowered.graph, &plan, map)
            .run_in(&mut arena)
            .expect("engine must terminate");
        prop_assert!(
            report.makespan <= bounds.makespan_hi * (1.0 + 1e-9),
            "makespan {} above certified upper bound {}",
            report.makespan,
            bounds.makespan_hi
        );
        for (d, peak) in report.device_peak.iter().enumerate() {
            prop_assert!(
                *peak <= bounds.residency.hi[d],
                "gpu{} peak {} above certified upper bound {}",
                d, peak, bounds.residency.hi[d]
            );
        }
        if report.oom.is_none() {
            prop_assert!(
                bounds.makespan_lo <= report.makespan * (1.0 + 1e-9),
                "lower bound {} above emulated makespan {}",
                bounds.makespan_lo,
                report.makespan
            );
            for (d, peak) in report.device_peak.iter().enumerate() {
                prop_assert!(
                    *peak >= bounds.residency.lo[d],
                    "gpu{} peak {} below certified lower bound {}",
                    d, peak, bounds.residency.lo[d]
                );
            }
        }
        if bounds.residency.verdict == mpress_analyze::BoundsVerdict::CertifiedOom {
            prop_assert!(report.oom.is_some(), "certified-oom but the run completed");
        }
        if bounds.residency.verdict == mpress_analyze::BoundsVerdict::CertifiedFit {
            let gpu_oom = report
                .oom
                .as_ref()
                .is_some_and(|e| e.pool == mpress_sim::PoolKind::Gpu);
            prop_assert!(!gpu_oom, "certified-fit but a GPU pool overflowed");
        }
    }

    /// The planner's emulation cache is pure memoization: for arbitrary
    /// plans, `emulate` returns exactly what `emulate_uncached` computes,
    /// and a repeated `emulate` is served from the cache without changing
    /// the outcome.
    #[test]
    fn emulation_cache_is_transparent(
        layers in 2usize..8,
        stages in 2usize..5,
        mb in 1usize..3,
        microbatches in 2usize..6,
        directive_mask in 0u64..(1 << 12),
    ) {
        prop_assume!(layers >= stages);
        let job = mpress_pipeline::PipelineJob::builder()
            .model(
                TransformerConfig::builder(ModelFamily::Gpt)
                    .layers(layers)
                    .hidden(256)
                    .seq_len(128)
                    .build(),
            )
            .schedule(ScheduleKind::Dapple)
            .stages(stages)
            .microbatch_size(mb)
            .microbatches(microbatches)
            .precision(PrecisionPolicy::mixed())
            .build()
            .unwrap();
        let lowered = job.lower().unwrap();
        let mut plan = InstrumentationPlan::new();
        for t in lowered.graph.tensors() {
            if t.kind != TensorKind::Activation || t.layer.is_none() {
                continue;
            }
            match (directive_mask >> (t.id.index() % 12)) & 3 {
                1 => plan.assign(t.id, MemoryDirective::Recompute),
                2 => plan.assign(t.id, MemoryDirective::SwapToHost(HostTier::Dram)),
                _ => {}
            }
        }
        let machine = mpress_hw::Machine::dgx1();
        let planner = mpress::Planner::new(
            &machine,
            &job,
            &lowered,
            mpress::PlannerConfig::default(),
        );
        let map = DeviceMap::identity(stages);
        let uncached = planner.emulate_uncached(&plan, &map).unwrap();
        let cached = planner.emulate(&plan, &map).unwrap();
        let hit = planner.emulate(&plan, &map).unwrap();
        prop_assert_eq!(cached, uncached);
        prop_assert_eq!(hit, uncached);
        let stats = planner.search_stats();
        prop_assert!(stats.cache_hits >= 1, "expected a cache hit: {stats:?}");
        prop_assert!(stats.emulator_runs >= 2, "expected real runs: {stats:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Bound-and-abort emulation is outcome-transparent: for any paper
    /// model on either reference machine, a planner allowed to abort
    /// losing candidates mid-window chooses exactly the plan a planner
    /// running every window to completion chooses. (An aborted candidate
    /// had already lost by `metric_better`'s rules — the abort only
    /// saves the wall-clock of confirming it.) Exercised through the
    /// builder flag so the test does not mutate process-global env
    /// state; `MPRESS_BOUND_ABORT=0` is the same switch.
    #[test]
    fn bound_abort_does_not_change_the_chosen_plan(
        model_idx in 0usize..10,
        machine_pick in 0usize..2,
    ) {
        use mpress_bench::jobs::{bert_job, gpt_job};
        use mpress_model::zoo;
        let machine = if machine_pick == 1 {
            mpress_hw::Machine::dgx2()
        } else {
            mpress_hw::Machine::dgx1()
        };
        let job = if model_idx < 5 {
            bert_job(zoo::bert_variants()[model_idx].clone(), machine.clone())
        } else {
            gpt_job(zoo::gpt_variants()[model_idx - 5].clone(), machine.clone())
        };
        let run = |abort: bool| -> String {
            let (plan, _) = mpress::Mpress::builder()
                .job(job.clone())
                .bound_abort(abort)
                .build()
                .plan()
                .unwrap();
            format!(
                "{:?}|{:?}|{}|{:?}",
                plan.device_map,
                plan.instrumentation,
                plan.refinement_rounds,
                plan.refine_candidates,
            )
        };
        prop_assert_eq!(run(true), run(false));
    }
}
