//! Soundness oracle for the certified-bounds pass; writes
//! `BENCH_bounds.json`.
//!
//! For every zoo model on both NVLink machines, the planner's chosen
//! plan and four directive-stripping mutations of it are (a) certified
//! by the abstract interpreter and (b) emulated by the engine, and the
//! emulated makespan and per-device peaks are checked against the
//! certified intervals:
//!
//! * `peak[d] <= hi[d]` and `makespan <= makespan_hi` on **every** run,
//!   OOM or not;
//! * `lo[d] <= peak[d]` and `makespan_lo <= makespan` on every run that
//!   completes without OOM (the lower bounds assume a completed
//!   schedule);
//! * a `certified-oom` verdict implies the engine actually reported an
//!   OOM, and `certified-fit` implies no *GPU-pool* OOM (host/NVMe
//!   overflow is outside the device-capacity claim).
//!
//! Any escape is printed to stderr and turns into a non-zero exit, so
//! `scripts/verify.sh` can gate on it. Output schema:
//!
//! ```json
//! {"wall_s": 0.569, "cases": 100, "violations": 0, "certified_fit": 0,
//!  "certified_oom": 12, "unknown": 88}
//! ```
//!
//! `wall_s` is measured, not pinned: it is the run's own wall clock
//! (the example is one 2-vCPU reading), and no check compares it. The
//! counts are deterministic.
//!
//! Pass `--out PATH` to redirect (default `BENCH_bounds.json`).
use mpress::Mpress;
use mpress_analyze::{BoundsAnalyzer, BoundsVerdict};
use mpress_bench::jobs::{bert_job, gpt_job};
use mpress_compaction::{InstrumentationPlan, MemoryDirective};
use mpress_hw::Machine;
use mpress_model::zoo;
use mpress_sim::{PoolKind, SimArena, Simulator};

/// Rebuilds `plan` keeping only the directives `keep` accepts. Dropping
/// a directive is always a valid plan spec (absence is the default), so
/// every mutation emulates without input errors.
fn filtered(
    plan: &InstrumentationPlan,
    keep: impl Fn(&MemoryDirective) -> bool,
) -> InstrumentationPlan {
    let mut out = InstrumentationPlan::new();
    for (t, d) in plan.iter() {
        if keep(d) {
            out.assign(t, d.clone());
        }
    }
    out
}

fn main() {
    let mut out_path = "BENCH_bounds.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out_path = args.next().unwrap_or_else(|| {
                eprintln!("error: --out expects a path");
                std::process::exit(2);
            });
        } else if arg == "--help" || arg == "-h" {
            println!("usage: exp_bench_bounds [--out PATH]");
            println!();
            println!("  --out PATH  where to write the JSON (default BENCH_bounds.json)");
            std::process::exit(0);
        } else {
            eprintln!("error: unknown flag {arg:?} (see --help)");
            std::process::exit(2);
        }
    }

    // Wall-clock timing is reporting-only here, like the other bench
    // binaries — the oracle itself is deterministic.
    #[allow(clippy::disallowed_methods)]
    let start = std::time::Instant::now();

    let mut cases = 0usize;
    let mut violations = 0usize;
    let mut fit = 0usize;
    let mut oom_verdicts = 0usize;
    let mut unknown = 0usize;
    let mut arena = SimArena::new();

    for machine in [Machine::dgx1(), Machine::dgx2()] {
        let jobs: Vec<(String, mpress_pipeline::PipelineJob)> = zoo::bert_variants()
            .into_iter()
            .map(|m| (m.to_string(), bert_job(m, machine.clone())))
            .chain(
                zoo::gpt_variants()
                    .into_iter()
                    .map(|m| (m.to_string(), gpt_job(m, machine.clone()))),
            )
            .collect();
        for (name, job) in jobs {
            let mpress = Mpress::builder().job(job).build();
            let (plan, lowered) = mpress.plan().expect("planning succeeds");
            let graph = &lowered.graph;
            let analyzer = BoundsAnalyzer::new(mpress.machine(), graph);
            let mutations: [(&str, InstrumentationPlan); 5] = [
                ("chosen", plan.instrumentation.clone()),
                ("bare", InstrumentationPlan::new()),
                (
                    "no-d2d",
                    filtered(&plan.instrumentation, |d| {
                        !matches!(d, MemoryDirective::SwapD2d(_))
                    }),
                ),
                (
                    "no-host",
                    filtered(&plan.instrumentation, |d| {
                        !matches!(d, MemoryDirective::SwapToHost(_))
                    }),
                ),
                (
                    "no-recompute",
                    filtered(&plan.instrumentation, |d| {
                        !matches!(d, MemoryDirective::Recompute)
                    }),
                ),
            ];
            for (label, variant) in &mutations {
                cases += 1;
                let bounds = analyzer.certify_with_arena(variant, &plan.device_map, &mut arena);
                match bounds.residency.verdict {
                    BoundsVerdict::CertifiedFit => fit += 1,
                    BoundsVerdict::CertifiedOom => oom_verdicts += 1,
                    BoundsVerdict::Unknown => unknown += 1,
                }
                let sim = Simulator::new(mpress.machine(), graph, variant, plan.device_map.clone())
                    .run_in(&mut arena)
                    .expect("directive-stripping keeps the plan emulable");
                let case = format!("{name} on {} [{label}]", machine.name());
                let mut escape = |msg: String| {
                    violations += 1;
                    eprintln!("ESCAPE: {case}: {msg}");
                };
                if sim.makespan > bounds.makespan_hi * (1.0 + 1e-9) {
                    escape(format!(
                        "makespan {} above certified upper bound {}",
                        sim.makespan, bounds.makespan_hi
                    ));
                }
                for (d, peak) in sim.device_peak.iter().enumerate() {
                    if *peak > bounds.residency.hi[d] {
                        escape(format!(
                            "gpu{d} peak {peak} above certified upper bound {}",
                            bounds.residency.hi[d]
                        ));
                    }
                }
                if sim.oom.is_none() {
                    if sim.makespan < bounds.makespan_lo * (1.0 - 1e-9) {
                        escape(format!(
                            "makespan {} below certified lower bound {}",
                            sim.makespan, bounds.makespan_lo
                        ));
                    }
                    for (d, peak) in sim.device_peak.iter().enumerate() {
                        if *peak < bounds.residency.lo[d] {
                            escape(format!(
                                "gpu{d} peak {peak} below certified lower bound {}",
                                bounds.residency.lo[d]
                            ));
                        }
                    }
                }
                if bounds.residency.verdict == BoundsVerdict::CertifiedOom && sim.oom.is_none() {
                    escape("certified-oom verdict but the run completed".to_owned());
                }
                if bounds.residency.verdict == BoundsVerdict::CertifiedFit
                    && sim.oom.as_ref().is_some_and(|e| e.pool == PoolKind::Gpu)
                {
                    escape("certified-fit verdict but a GPU pool overflowed".to_owned());
                }
            }
        }
    }

    let wall_s = start.elapsed().as_secs_f64();
    let json = format!(
        "{{\"wall_s\": {wall_s:.3}, \"cases\": {cases}, \"violations\": {violations}, \
         \"certified_fit\": {fit}, \"certified_oom\": {oom_verdicts}, \"unknown\": {unknown}}}\n",
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("error: writing {out_path}: {e}");
        std::process::exit(1);
    });
    print!("{json}");
    eprintln!(
        "bounds oracle: {cases} cases, {violations} escapes \
         ({fit} certified-fit, {oom_verdicts} certified-oom, {unknown} unknown) -> {out_path}"
    );
    if violations > 0 {
        std::process::exit(1);
    }
}
