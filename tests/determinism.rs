//! Parallel search determinism: the plan and the simulated report must be
//! byte-identical no matter how many workers the pool uses. `par_map`
//! places results by input index and every winner is chosen by a fixed
//! tie-break (best metric, ties to the lowest candidate index), so
//! `--jobs 1` and `--jobs 4` must agree exactly — this suite is the
//! contract's regression net.
//!
//! The worker-count override is process-global; each check therefore runs
//! its two configurations back-to-back inside one test body, and every
//! configuration holds [`pool_lock`] while it changes the override, so
//! no run observes another test's worker count.

use mpress::Mpress;
use mpress_bench::jobs::{bert_job, gpt_job, SystemConfig};
use mpress_hw::Machine;
use mpress_model::zoo;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the runs that change the process-global pool settings.
fn pool_lock() -> MutexGuard<'static, ()> {
    static POOL: Mutex<()> = Mutex::new(());
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything observable about a planned-and-simulated run, except the
/// pool stats themselves (`search.jobs` legitimately differs).
fn fingerprint(jobs: usize) -> String {
    let _pool = pool_lock();
    mpress_par::set_jobs(jobs);
    let mpress = Mpress::builder()
        .job(bert_job(zoo::bert_1_67b(), Machine::dgx1()))
        .build();
    let report = mpress.train().expect("valid inputs");
    mpress_par::set_jobs(0);
    format!(
        "{:?}|{:?}|{}|{:?}|{:?}|{:?}|{}|{}",
        report.plan.device_map,
        report.plan.instrumentation,
        report.plan.refinement_rounds,
        report.sim.makespan.to_bits(),
        report.sim.device_peak,
        report.sim.host_traffic,
        report.tflops.to_bits(),
        report.throughput.to_bits(),
    )
}

/// The metrics fingerprint: the serialized telemetry document of a
/// metrics-enabled run. Worker-count independence must extend to stall
/// attribution, link accounting and the recorder's histograms —
/// everything `--metrics=json` prints. (`search.jobs`/`peak_workers`
/// legitimately differ, so the `search` block is excluded.)
fn metrics_fingerprint(jobs: usize) -> String {
    let _pool = pool_lock();
    mpress_par::set_jobs(jobs);
    let mpress = Mpress::builder()
        .job(bert_job(zoo::bert_1_67b(), Machine::dgx1()))
        .metrics(true)
        .build();
    let report = mpress.train().expect("valid inputs");
    mpress_par::set_jobs(0);
    let telemetry = report.metrics.expect("metrics were enabled");
    let sim = telemetry.sim.expect("training run simulates");
    serde_json::to_string(&sim).expect("telemetry serializes")
}

#[test]
fn full_planner_is_identical_at_jobs_1_and_4() {
    assert_eq!(fingerprint(1), fingerprint(4));
}

#[test]
fn metrics_telemetry_is_identical_at_jobs_1_and_4() {
    assert_eq!(metrics_fingerprint(1), metrics_fingerprint(4));
}

#[test]
fn metrics_collection_does_not_change_the_report() {
    // The observability layer must be invisible: a metrics-enabled run's
    // plan and simulation results are byte-identical to a disabled run's.
    let run = |metrics: bool| -> String {
        let report = Mpress::builder()
            .job(bert_job(zoo::bert_1_67b(), Machine::dgx1()))
            .metrics(metrics)
            .build()
            .train()
            .expect("valid inputs");
        format!(
            "{:?}|{:?}|{}|{:?}|{:?}|{}",
            report.plan.device_map,
            report.plan.instrumentation,
            report.sim.makespan.to_bits(),
            report.sim.device_peak,
            report.sim.host_traffic,
            report.tflops.to_bits(),
        )
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn reference_search_stays_within_its_run_budget() {
    // The reference search (Bert-1.67B x DGX-1 at jobs=1) pays one
    // emulator run per candidate that no cache or gate resolves, and
    // nothing else. The per-commit candidate counts pin the search
    // trajectory the budget was measured on.
    let _pool = pool_lock();
    mpress_par::set_jobs(1);
    let planned = Mpress::builder()
        .job(bert_job(zoo::bert_1_67b(), Machine::dgx1()))
        .build()
        .plan();
    mpress_par::set_jobs(0);
    let (plan, _) = planned.expect("valid inputs");
    assert!(plan.search.emulator_runs <= 78, "{:?}", plan.search);
    assert_eq!(
        plan.refine_candidates,
        [1, 6, 3, 5, 1, 4, 3, 1, 1, 7, 9, 14, 1]
    );
}

#[test]
fn fig7_row_is_identical_at_jobs_1_and_4() {
    let systems = [
        SystemConfig::Plain,
        SystemConfig::GpuCpuSwap,
        SystemConfig::Recomputation,
        SystemConfig::MpressD2dOnly,
        SystemConfig::Mpress,
    ];
    let row = |jobs: usize| -> Vec<Option<u64>> {
        let _pool = pool_lock();
        mpress_par::set_jobs(jobs);
        let cells = systems
            .iter()
            .map(|sys| {
                sys.run(bert_job(zoo::bert_0_64b(), Machine::dgx1()))
                    .map(f64::to_bits)
            })
            .collect();
        mpress_par::set_jobs(0);
        cells
    };
    assert_eq!(row(1), row(4));
}

#[test]
fn portfolio_search_is_identical_on_oversubscribed_pool() {
    // GPT-25.5B on DGX-2 runs all three portfolio variants (full,
    // no-D2D, recompute-only). At jobs=8 with the hardware clamp lifted
    // they search concurrently on separate lanes, each frontier serial
    // on its own; folding them in the fixed variant order must still
    // choose the jobs=1 plan byte-for-byte, after the same search
    // trajectory. Emulator runs are deliberately not compared: two
    // lanes can both miss the shared emulation cache on the same key.
    let run = |jobs: usize, unclamped: bool| -> String {
        let _pool = pool_lock();
        mpress_par::set_pool_unclamped(unclamped);
        mpress_par::set_jobs(jobs);
        let report = Mpress::builder()
            .job(gpt_job(zoo::gpt_25_5b(), Machine::dgx2()))
            .build()
            .train()
            .expect("valid inputs");
        mpress_par::set_jobs(0);
        mpress_par::set_pool_unclamped(false);
        format!(
            "{:?}|{:?}|{}|{:?}|{:?}|{:?}|{}",
            report.plan.device_map,
            report.plan.instrumentation,
            report.plan.refinement_rounds,
            report.plan.refine_candidates,
            report.sim.makespan.to_bits(),
            report.sim.host_traffic,
            report.tflops.to_bits(),
        )
    };
    assert_eq!(run(1, false), run(8, true));
}

#[test]
fn cancel_mid_search_reports_cancelled_not_bound_exceeded() {
    // A tripped CancelToken must surface as `SimError::Cancelled` even
    // with bound-and-abort emulation on: an exhausted budget and a
    // bound-exceeded window travel different paths (the former is an
    // error, the latter a conclusive "candidate lost" verdict that is
    // never reported to the caller).
    use mpress::{CancelToken, MpressError};
    use mpress_sim::SimError;
    for budget in [1usize, 3, 8, 21] {
        let err = Mpress::builder()
            .job(bert_job(zoo::bert_1_67b(), Machine::dgx1()))
            .cancel(CancelToken::with_run_budget(budget))
            .build()
            .plan()
            .expect_err("the run budget trips mid-search");
        match err {
            MpressError::Simulation(SimError::Cancelled) => {}
            other => panic!("budget {budget}: expected Cancelled, got {other:?}"),
        }
    }
}
