//! Times the emulator fast path and writes `BENCH_sim.json`.
//!
//! Measurements on the Bert-1.67B × DGX-1 case:
//!
//! * steady-state emulation throughput through one reused [`SimArena`]
//!   (the planner's inner loop: the chosen plan re-simulated back to
//!   back),
//! * end-to-end plan-search wall clock at `jobs=1` and `jobs=8`,
//! * a parallel-search sanity gate: `jobs=8` wall must not exceed
//!   `jobs=1` wall by more than 10% (the serial-below-threshold cutoff
//!   keeps tiny batches inline).
//!
//! Output schema:
//!
//! ```json
//! {"emulate_ms": 0.91, "emulations_per_sec": 1098.9,
//!  "plan_wall_s_jobs1": 0.061, "plan_wall_s_jobs8": 0.058}
//! ```
//!
//! Pass `--out PATH` to redirect (default `BENCH_sim.json` in the
//! working directory); `--min-eps N` fails the run (exit 1) when the
//! from-scratch `emulations_per_sec` falls below `N` — CI pins this to
//! a fraction of the checked-in baseline to catch regressions.
use mpress::Mpress;
use mpress_bench::jobs::bert_job;
use mpress_hw::Machine;
use mpress_model::zoo;
use mpress_sim::{SimArena, Simulator};

fn bench_system() -> Mpress {
    Mpress::builder()
        .job(bert_job(zoo::bert_1_67b(), Machine::dgx1()))
        .build()
}

fn main() {
    let mut out_path = "BENCH_sim.json".to_owned();
    let mut min_eps: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out_path = args.next().unwrap_or_else(|| {
                eprintln!("error: --out expects a path");
                std::process::exit(2);
            });
        } else if arg == "--min-eps" {
            let v = args.next().unwrap_or_default();
            match v.parse::<f64>() {
                Ok(n) if n >= 0.0 => min_eps = Some(n),
                _ => {
                    eprintln!("error: --min-eps expects a non-negative number, got {v:?}");
                    std::process::exit(2);
                }
            }
        } else if arg == "--help" || arg == "-h" {
            println!("usage: exp_bench_sim [--out PATH] [--min-eps N]");
            println!();
            println!("  --out PATH   where to write the JSON (default BENCH_sim.json)");
            println!("  --min-eps N  exit 1 if emulations_per_sec drops below N");
            std::process::exit(0);
        } else {
            eprintln!("error: unknown flag {arg:?} (see --help)");
            std::process::exit(2);
        }
    }

    // --- Steady-state emulation throughput (arena reuse) -----------------
    mpress_par::set_jobs(1);
    let mpress = bench_system();
    let (plan, lowered) = mpress.plan().expect("planning succeeds");
    let sim = Simulator::new(
        mpress.machine(),
        &lowered.graph,
        &plan.instrumentation,
        plan.device_map.clone(),
    );
    let mut arena = SimArena::new();
    sim.run_in(&mut arena).expect("emulation succeeds");
    const RUNS: usize = 200;
    // Wall-clock timing is this binary's whole purpose — the one
    // sanctioned exception to the workspace's no-clock rule.
    #[allow(clippy::disallowed_methods)]
    let start = std::time::Instant::now();
    for _ in 0..RUNS {
        sim.run_in(&mut arena).expect("emulation succeeds");
    }
    let emulate_s = start.elapsed().as_secs_f64() / RUNS as f64;

    // --- Plan-search wall clock (best of 6, modes interleaved so load
    // drift cannot bias one side of the jobs=8 sanity gate) --------------
    let mut wall_jobs1 = f64::INFINITY;
    let mut wall_jobs8 = f64::INFINITY;
    for _ in 0..6 {
        for (jobs, slot) in [(1usize, &mut wall_jobs1), (8, &mut wall_jobs8)] {
            mpress_par::set_jobs(jobs);
            #[allow(clippy::disallowed_methods)]
            let start = std::time::Instant::now();
            bench_system().plan().expect("planning succeeds");
            *slot = slot.min(start.elapsed().as_secs_f64());
        }
    }

    let json = format!(
        "{{\"emulate_ms\": {:.3}, \"emulations_per_sec\": {:.1}, \
         \"plan_wall_s_jobs1\": {:.3}, \"plan_wall_s_jobs8\": {:.3}}}\n",
        1e3 * emulate_s,
        1.0 / emulate_s,
        wall_jobs1,
        wall_jobs8,
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("error: writing {out_path}: {e}");
        std::process::exit(1);
    });
    print!("{json}");
    eprintln!(
        "sim {:.3} ms/emulation ({:.0}/s), plan wall {:.3}s (jobs=1) {:.3}s (jobs=8) -> {out_path}",
        1e3 * emulate_s,
        1.0 / emulate_s,
        wall_jobs1,
        wall_jobs8,
    );
    let mut failed = false;
    // 10% margin: on the 1-core reference container both modes run the
    // identical serial code path, so any gap is scheduler noise on a
    // ~60 ms measurement — the gate only has to catch the old 2x+
    // oversubscription regression, not timer jitter.
    if wall_jobs8 > wall_jobs1 * 1.10 {
        eprintln!(
            "error: jobs=8 wall {wall_jobs8:.3}s exceeds jobs=1 wall {wall_jobs1:.3}s by >10%"
        );
        failed = true;
    }
    if let Some(floor) = min_eps {
        let eps = 1.0 / emulate_s;
        if eps < floor {
            eprintln!("error: emulations_per_sec {eps:.1} below --min-eps floor {floor:.1}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
