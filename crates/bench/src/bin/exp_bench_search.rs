//! Times the speculative frontier search on a widened refinement grid
//! and writes `BENCH_search.json`.
//!
//! The case (Bert-1.67B on DGX-1, full MPress with
//! [`PlannerConfig::explore`] widening the trial grid) is planned twice
//! from scratch — once at `jobs=1`, once at the wide worker count — and
//! the two chosen plans are compared byte-for-byte: the speculative
//! search, work stealing and bound-and-abort emulation must all be
//! invisible in the outcome. Output schema:
//!
//! ```json
//! {"wall_s_jobs1": 1.23, "wall_s_wide": 0.80, "jobs_wide": 8,
//!  "speedup": 1.54, "deterministic": true, "steals": 6,
//!  "speculative_runs": 31, "speculation_wasted": 4, "bound_aborts": 12,
//!  "bound_abort_probe": false, "emulator_runs": 57,
//!  "refinement_rounds": 9, "cores": 8, "scaling_gate": "pass"}
//! ```
//!
//! * `deterministic` — the jobs=1 and wide plans agreed exactly.
//! * `steals` / `speculative_runs` / `speculation_wasted` — from the
//!   wide run; the pool clamp is lifted (`MPRESS_POOL_UNCLAMPED`
//!   semantics) so the wide run oversubscribes even a small host and
//!   stealing is observable everywhere.
//! * `bound_aborts` — from the wide run; when the certified-bounds gate
//!   prunes every loser before emulation the counter can read zero, so
//!   a probe run with `bounds` off re-measures it
//!   (`bound_abort_probe: true`) — the abort path itself, not the
//!   gates in front of it, is what the field certifies.
//! * `scaling_gate` — `pass`/`fail` against `wall_wide <= 0.6 *
//!   wall_jobs1` when the host has at least `jobs_wide` cores,
//!   otherwise `skipped: N cores` (the 1-core reference container
//!   cannot demonstrate parallel speedup; `scripts/verify.sh` treats
//!   only `fail` as an error).
//!
//! Pass `--out PATH` to redirect (default `BENCH_search.json`);
//! `--jobs-wide N` overrides the wide worker count (default 8).
use mpress::{Mpress, MpressPlan, PlannerConfig};
use mpress_bench::jobs::bert_job;
use mpress_hw::Machine;
use mpress_model::zoo;

/// Everything the planner chose, excluding the search statistics
/// (`steals`/`peak_workers`/… legitimately differ across widths).
fn plan_fingerprint(plan: &MpressPlan) -> String {
    format!(
        "{:?}|{:?}|{}|{:?}",
        plan.device_map, plan.instrumentation, plan.refinement_rounds, plan.refine_candidates,
    )
}

/// Plans the widened-grid case from scratch with `cfg` and returns the
/// plan plus its wall time. A fresh [`Mpress`] per call keeps the runs
/// honest: no plan cache or emulation cache crosses between them.
fn timed_plan(cfg: PlannerConfig) -> (MpressPlan, f64) {
    // Wall-clock timing is this binary's whole purpose — the one
    // sanctioned exception to the workspace's no-clock rule.
    #[allow(clippy::disallowed_methods)]
    let start = std::time::Instant::now();
    let mpress = Mpress::builder()
        .job(bert_job(zoo::bert_1_67b(), Machine::dgx1()))
        .planner_config(cfg)
        .build();
    let (plan, _) = mpress.plan().expect("planning succeeds");
    (plan, start.elapsed().as_secs_f64())
}

fn main() {
    let mut out_path = "BENCH_search.json".to_owned();
    let mut jobs_wide = 8usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let wide_value = if arg == "--jobs-wide" {
            Some(args.next().unwrap_or_default())
        } else {
            arg.strip_prefix("--jobs-wide=").map(str::to_owned)
        };
        if let Some(v) = wide_value {
            match v.parse::<usize>() {
                Ok(n) if n >= 2 => jobs_wide = n,
                _ => {
                    eprintln!("error: --jobs-wide expects an integer >= 2, got {v:?}");
                    std::process::exit(2);
                }
            }
        } else if arg == "--out" {
            out_path = args.next().unwrap_or_else(|| {
                eprintln!("error: --out expects a path");
                std::process::exit(2);
            });
        } else if arg == "--help" || arg == "-h" {
            println!("usage: exp_bench_search [--jobs-wide N] [--out PATH]");
            println!();
            println!("  --jobs-wide N  wide-run worker count (default 8)");
            println!("  --out PATH     where to write the JSON (default BENCH_search.json)");
            std::process::exit(0);
        } else {
            eprintln!("error: unknown flag {arg:?} (see --help)");
            std::process::exit(2);
        }
    }

    let grid = PlannerConfig::default().explore(true).bound_abort(true);

    mpress_par::set_jobs(1);
    let (plan_1, wall_1) = timed_plan(grid);

    // Lift the hardware clamp so the wide run really spawns `jobs_wide`
    // workers even on the 1-core reference container — stealing and
    // speculation are then observable (and must still be invisible in
    // the chosen plan).
    mpress_par::set_pool_unclamped(true);
    mpress_par::set_jobs(jobs_wide);
    let (plan_wide, wall_wide) = timed_plan(grid);
    mpress_par::set_jobs(0);
    mpress_par::set_pool_unclamped(false);

    let deterministic = plan_fingerprint(&plan_1) == plan_fingerprint(&plan_wide);
    if !deterministic {
        eprintln!("error: jobs=1 and jobs={jobs_wide} chose different plans");
    }

    // The certified-bounds gate can pre-empt every would-be abort on
    // this grid; probe the abort path directly when that happens.
    let mut bound_aborts = plan_wide.search.bound_aborts;
    let mut bound_abort_probe = false;
    if bound_aborts == 0 {
        mpress_par::set_jobs(1);
        let (probe, _) = timed_plan(grid.bounds(false));
        mpress_par::set_jobs(0);
        bound_aborts = probe.search.bound_aborts;
        bound_abort_probe = true;
    }

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let speedup = wall_1 / wall_wide.max(1e-9);
    let scaling_gate = if cores < jobs_wide {
        format!("skipped: {cores} cores")
    } else if wall_wide <= 0.6 * wall_1 {
        "pass".to_owned()
    } else {
        "fail".to_owned()
    };

    let json = format!(
        "{{\"wall_s_jobs1\": {:.3}, \"wall_s_wide\": {:.3}, \"jobs_wide\": {}, \
         \"speedup\": {:.3}, \"deterministic\": {}, \"steals\": {}, \
         \"speculative_runs\": {}, \"speculation_wasted\": {}, \"bound_aborts\": {}, \
         \"bound_abort_probe\": {}, \"emulator_runs\": {}, \
         \"refinement_rounds\": {}, \"cores\": {}, \"scaling_gate\": {:?}}}\n",
        wall_1,
        wall_wide,
        jobs_wide,
        speedup,
        deterministic,
        plan_wide.search.steals,
        plan_wide.search.speculative_runs,
        plan_wide.search.speculation_wasted,
        bound_aborts,
        bound_abort_probe,
        plan_wide.search.emulator_runs,
        plan_wide.refinement_rounds,
        cores,
        scaling_gate
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("error: writing {out_path}: {e}");
        std::process::exit(1);
    });
    print!("{json}");
    eprintln!(
        "search wall {wall_1:.3}s (jobs=1) vs {wall_wide:.3}s (jobs={jobs_wide}, \
         {} steals, {} speculative runs, {} wasted), {} bound aborts{}, \
         deterministic={deterministic}, gate={scaling_gate} -> {out_path}",
        plan_wide.search.steals,
        plan_wide.search.speculative_runs,
        plan_wide.search.speculation_wasted,
        bound_aborts,
        if bound_abort_probe { " (probe)" } else { "" },
    );
    if !deterministic {
        std::process::exit(1);
    }
}
