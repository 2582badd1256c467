//! Times one planner-heavy case and writes `BENCH_planner.json`.
//!
//! The case (Bert-1.67B on DGX-1, full MPress) exercises the portfolio
//! search, emulator-verified refinement and the emulation cache — the
//! paths the parallel search layer accelerates. Output schema:
//!
//! ```json
//! {"wall_s": 0.175, "jobs": 1, "emulator_runs": 78, "cache_hits": 6,
//!  "cache_hits_canonical": 0, "cache_hit_rate": 0.0714,
//!  "verifier_rejections": 0, "bounds_pruned": 16,
//!  "peak_workers": 1, "bound_aborts": 26,
//!  "refinement_rounds": 56, "refine_candidates": [1, 6, 3, 5, 1, 4, 3, 1, 1, 7, 9, 14, 1]}
//! ```
//!
//! `"jobs"` is the *resolved* pool width the search actually ran with
//! (after the hardware clamp), not the requested `--jobs` value.
//!
//! Pass `--out PATH` to redirect (default `BENCH_planner.json` in the
//! working directory); `--jobs N` / `MPRESS_JOBS` select the pool size.
use mpress::Mpress;
use mpress_bench::jobs::bert_job;
use mpress_hw::Machine;
use mpress_model::zoo;

fn main() {
    let mut out_path = "BENCH_planner.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let jobs_value = if arg == "--jobs" {
            Some(args.next().unwrap_or_default())
        } else {
            arg.strip_prefix("--jobs=").map(str::to_owned)
        };
        if let Some(v) = jobs_value {
            match v.parse::<usize>() {
                Ok(n) => mpress_par::set_jobs(n),
                Err(_) => {
                    eprintln!("error: --jobs expects a non-negative integer, got {v:?}");
                    std::process::exit(2);
                }
            }
        } else if arg == "--out" {
            out_path = args.next().unwrap_or_else(|| {
                eprintln!("error: --out expects a path");
                std::process::exit(2);
            });
        } else if arg == "--help" || arg == "-h" {
            println!("usage: exp_bench_planner [--jobs N] [--out PATH]");
            println!();
            println!("  --jobs N    worker threads (0 = auto; MPRESS_JOBS equivalent)");
            println!("  --out PATH  where to write the JSON (default BENCH_planner.json)");
            std::process::exit(0);
        } else {
            eprintln!("error: unknown flag {arg:?} (see --help)");
            std::process::exit(2);
        }
    }

    // Wall-clock timing is this binary's whole purpose — the one
    // sanctioned exception to the workspace's no-clock rule.
    #[allow(clippy::disallowed_methods)]
    let start = std::time::Instant::now();
    let mpress = Mpress::builder()
        .job(bert_job(zoo::bert_1_67b(), Machine::dgx1()))
        .build();
    let (plan, _) = mpress.plan().expect("planning succeeds");
    let wall_s = start.elapsed().as_secs_f64();

    let candidates = plan
        .refine_candidates
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\"wall_s\": {:.3}, \"jobs\": {}, \"emulator_runs\": {}, \"cache_hits\": {}, \
         \"cache_hits_canonical\": {}, \"cache_hit_rate\": {:.4}, \
         \"verifier_rejections\": {}, \"bounds_pruned\": {}, \
         \"peak_workers\": {}, \"bound_aborts\": {}, \
         \"refinement_rounds\": {}, \"refine_candidates\": [{}]}}\n",
        wall_s,
        plan.search.jobs,
        plan.search.emulator_runs,
        plan.search.cache_hits,
        plan.search.cache_hits_canonical,
        plan.search.cache_hit_rate(),
        plan.search.verifier_rejections,
        plan.search.bounds_pruned,
        plan.search.peak_workers,
        plan.search.bound_aborts,
        plan.refinement_rounds,
        candidates
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("error: writing {out_path}: {e}");
        std::process::exit(1);
    });
    print!("{json}");
    eprintln!(
        "planner wall {wall_s:.3}s at jobs={} (peak {} workers), \
         {} emulator runs, {} cache hits (+{} canonical), {} bounds prunes, \
         {} bound aborts -> {out_path}",
        plan.search.jobs,
        plan.search.peak_workers,
        plan.search.emulator_runs,
        plan.search.cache_hits,
        plan.search.cache_hits_canonical,
        plan.search.bounds_pruned,
        plan.search.bound_aborts
    );
}
