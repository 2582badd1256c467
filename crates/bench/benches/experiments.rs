//! Criterion benchmarks: one group per paper artifact, timing the
//! machinery that regenerates it (scaled-down where a full run would take
//! minutes). `cargo bench` therefore exercises every experiment's code
//! path and prints the rows alongside.

use criterion::{criterion_group, criterion_main, Criterion};
use mpress::{Mpress, OptimizationSet, PlannerConfig};
use mpress_bench::experiments;
use mpress_bench::jobs::{bert_job, gpt_job};
use mpress_hw::{BandwidthCurve, Bytes, Machine};
use mpress_model::{zoo, ModelFamily, PrecisionPolicy, TransformerConfig};
use mpress_pipeline::{PipelineJob, ScheduleKind};

/// A reduced-size pipeline job for per-iteration benchmarking.
fn small_job() -> PipelineJob {
    PipelineJob::builder()
        .model(
            TransformerConfig::builder(ModelFamily::Gpt)
                .layers(16)
                .hidden(1024)
                .seq_len(512)
                .build(),
        )
        .machine(Machine::dgx1())
        .schedule(ScheduleKind::Dapple)
        .microbatch_size(2)
        .microbatches(8)
        .precision(PrecisionPolicy::mixed())
        .build()
        .expect("valid")
}

fn bench_fig1_schedules(c: &mut Criterion) {
    c.bench_function("fig1_schedule_timelines", |b| b.iter(experiments::fig1));
}

fn bench_table1_breakdown(c: &mut Criterion) {
    c.bench_function("table1_memory_breakdown", |b| b.iter(experiments::table1));
}

fn bench_fig2_imbalance(c: &mut Criterion) {
    c.bench_function("fig2_per_device_memory", |b| b.iter(experiments::fig2));
}

fn bench_fig4_bandwidth(c: &mut Criterion) {
    c.bench_function("fig4_bandwidth_curve", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for lanes in [2u32, 4, 6] {
                acc += BandwidthCurve::nvlink_lanes(lanes).effective_bandwidth(Bytes::mib(256));
            }
            acc
        })
    });
}

fn bench_table2_demands(c: &mut Criterion) {
    c.bench_function("table2_memory_demands", |b| {
        b.iter(|| {
            let job = gpt_job(zoo::gpt_5_3b(), Machine::dgx1());
            job.memory_demands().total()
        })
    });
}

fn bench_fig7_system_run(c: &mut Criterion) {
    // One representative Fig. 7 cell: the uninstrumented simulation of a
    // Bert-sized (reduced) job.
    c.bench_function("fig7_plain_simulation", |b| {
        let job = small_job();
        let mpress = Mpress::builder()
            .job(job)
            .optimizations(OptimizationSet::none())
            .build();
        b.iter(|| mpress.train_unmodified().expect("valid").throughput)
    });
}

fn bench_fig8_mpress_plan(c: &mut Criterion) {
    // One representative Fig. 8 cell: MPress planning + simulation on a
    // reduced job.
    c.bench_function("fig8_mpress_plan_and_train", |b| {
        let mpress = Mpress::builder()
            .job(small_job())
            .planner_config(PlannerConfig::default().refine_iters(2))
            .build();
        b.iter(|| mpress.train().expect("valid").tflops)
    });
}

fn bench_fig9_mapping_search(c: &mut Criterion) {
    // Fig. 9's device-mapping search over all 8! permutations.
    c.bench_function("fig9_device_mapping_search", |b| {
        let machine = Machine::dgx1();
        let search = mpress::MappingSearch::new(&machine);
        let mut overflow = vec![Bytes::ZERO; 8];
        overflow[0] = Bytes::gib(10);
        overflow[1] = Bytes::gib(4);
        let mut spare = vec![Bytes::ZERO; 8];
        spare[4..8].fill(Bytes::gib(6));
        b.iter(|| search.search(&overflow, &spare).2)
    });
}

fn bench_table3_costs(c: &mut Criterion) {
    c.bench_function("table3_profile_and_costs", |b| b.iter(experiments::table3));
}

fn bench_table4_planner(c: &mut Criterion) {
    // The full planner on a reduced job (Table IV machinery).
    c.bench_function("table4_planner", |b| {
        let mpress = Mpress::builder()
            .job(small_job())
            .planner_config(PlannerConfig::default().refine_iters(2))
            .build();
        b.iter(|| mpress.plan().expect("valid").0.instrumentation.len())
    });
}

fn bench_sec2d_partitioner(c: &mut Criterion) {
    use mpress_pipeline::{PartitionGoal, StagePartition};
    c.bench_function("sec2d_partitioners", |b| {
        let model = zoo::bert_1_67b();
        b.iter(|| {
            let c = StagePartition::balanced(
                &model,
                8,
                12,
                &PrecisionPolicy::full(),
                PartitionGoal::Computation,
            );
            let m = StagePartition::balanced(
                &model,
                8,
                12,
                &PrecisionPolicy::full(),
                PartitionGoal::Memory,
            );
            (c.n_stages(), m.n_stages())
        })
    });
}

fn bench_full_scale_lowering(c: &mut Criterion) {
    // Lowering the real paper-scale Bert job (graph construction cost).
    c.bench_function("lowering_bert_1_67b", |b| {
        let job = bert_job(zoo::bert_1_67b(), Machine::dgx1());
        b.iter(|| job.lower().expect("valid").graph.ops().len())
    });
}

fn bench_motivation_megatron(c: &mut Criterion) {
    // The analytic intra-operator baseline: closed-form, so this times the
    // whole report path.
    c.bench_function("motivation_megatron_report", |b| {
        b.iter(|| {
            mpress_baselines::MegatronBaseline::new(Machine::commodity(), zoo::gpt_10_3b())
                .report()
                .tflops
        })
    });
}

criterion_group!(
    name = experiments_suite;
    config = Criterion::default().sample_size(10);
    targets =
        bench_fig1_schedules,
        bench_table1_breakdown,
        bench_fig2_imbalance,
        bench_fig4_bandwidth,
        bench_table2_demands,
        bench_fig7_system_run,
        bench_fig8_mpress_plan,
        bench_fig9_mapping_search,
        bench_table3_costs,
        bench_table4_planner,
        bench_sec2d_partitioner,
        bench_full_scale_lowering,
        bench_motivation_megatron,
);
criterion_main!(experiments_suite);
