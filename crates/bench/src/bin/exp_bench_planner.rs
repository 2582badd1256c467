//! Times the planner and writes `BENCH_planner.json`: one reference
//! case plus a per-job table over the whole model zoo.
//!
//! The reference case (Bert-1.67B on DGX-1, full MPress) exercises the
//! portfolio search, emulator-verified refinement and the emulation
//! cache at the requested pool width. The zoo table then plans and
//! simulates all 20 zoo × {DGX-1, DGX-2} jobs at jobs=1, each on a fresh
//! context, exactly as `mpress-cli train --model M --machine X --jobs 1`
//! does. Output schema (one zoo row per line):
//!
//! ```json
//! {"wall_s": 0.091, "jobs": 1, "emulator_runs": 35, "cache_hits": 6,
//!  "cache_hit_rate": 0.1463, "verifier_rejections": 0, "bounds_pruned": 15,
//!  "peak_workers": 1, "bound_aborts": 9,
//!  "refinement_rounds": 28, "refine_candidates": [1, 6, 1, 3, 1, 2, 2, 1, 2, 2, 5, 1, 1],
//!  "zoo_wall_s": 3.2, "zoo_emulator_runs": 1053, "zoo": [
//!   {"model": "bert-0.35b", "machine": "dgx1", "emulator_runs": 1,
//!    "refinement_rounds": 0, "makespan_s": 0.9, "tflops": 40.2, "wall_s": 0.004},
//!   ...
//! ]}
//! ```
//!
//! `"jobs"` is the *resolved* pool width the reference search ran with
//! (after the hardware clamp), not the requested `--jobs` value.
//! `makespan_s` and `tflops` are printed in full (shortest round-trip)
//! precision, so equal text means equal bits.
//!
//! `--check PATH` compares every deterministic field — the zoo rows
//! without their walls, the zoo run total, and the reference search's
//! `refinement_rounds`/`refine_candidates` — against the document at
//! PATH, prints each difference and exits 1 (without writing) when any
//! differs. The reference job's run and cache counters depend on the
//! pool width, so they are reported, never compared.
//!
//! Pass `--out PATH` to redirect (default `BENCH_planner.json` in the
//! working directory); `--jobs N` / `MPRESS_JOBS` select the reference
//! case's pool size.
use mpress::Mpress;
use mpress_api::{names, run_train, ApiContext, PlanRequest};
use mpress_bench::jobs::bert_job;
use mpress_hw::Machine;
use mpress_model::zoo;
use serde_json::Value;

/// Wall-clock timing is this binary's whole purpose — the one
/// sanctioned exception to the workspace's no-clock rule.
#[allow(clippy::disallowed_methods)]
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn main() {
    let mut out_path = "BENCH_planner.json".to_owned();
    let mut check_path: Option<String> = None;
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
        } else if arg == "--out" || arg == "--check" {
            let path = args.next().unwrap_or_else(|| {
                eprintln!("error: {arg} expects a path");
                std::process::exit(2);
            });
            if arg == "--out" {
                out_path = path;
            } else {
                check_path = Some(path);
            }
        } else if arg == "--help" || arg == "-h" {
            println!("usage: exp_bench_planner [--jobs N] [--out PATH] [--check PATH]");
            println!();
            println!("  --jobs N      worker threads for the reference case (0 = auto;");
            println!("                MPRESS_JOBS equivalent); the zoo table always uses 1");
            println!("  --out PATH    where to write the JSON (default BENCH_planner.json)");
            println!("  --check PATH  fail unless every deterministic field equals PATH's");
            std::process::exit(0);
        } else {
            eprintln!("error: unknown flag {arg:?} (see --help)");
            std::process::exit(2);
        }
    }
    // Read the baseline before anything can overwrite it (`--check` and
    // `--out` may name the same file).
    let baseline = check_path.map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: reading {path}: {e}");
            std::process::exit(2);
        });
        let doc: Value = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("error: {path} is not JSON: {e}");
            std::process::exit(2);
        });
        (path, doc)
    });

    let (plan, wall_s) = timed(|| {
        Mpress::builder()
            .job(bert_job(zoo::bert_1_67b(), Machine::dgx1()))
            .build()
            .plan()
            .expect("planning succeeds")
            .0
    });
    let candidates = plan
        .refine_candidates
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let mut json = format!(
        "{{\"wall_s\": {:.3}, \"jobs\": {}, \"emulator_runs\": {}, \"cache_hits\": {}, \
         \"cache_hit_rate\": {:.4}, \
         \"verifier_rejections\": {}, \"bounds_pruned\": {}, \
         \"peak_workers\": {}, \"bound_aborts\": {}, \
         \"refinement_rounds\": {}, \"refine_candidates\": [{}],",
        wall_s,
        plan.search.jobs,
        plan.search.emulator_runs,
        plan.search.cache_hits,
        plan.search.cache_hit_rate(),
        plan.search.verifier_rejections,
        plan.search.bounds_pruned,
        plan.search.peak_workers,
        plan.search.bound_aborts,
        plan.refinement_rounds,
        candidates
    );
    eprintln!(
        "reference planner wall {wall_s:.3}s at jobs={} (peak {} workers), \
         {} emulator runs, {} cache hits, {} bounds prunes, \
         {} bound aborts",
        plan.search.jobs,
        plan.search.peak_workers,
        plan.search.emulator_runs,
        plan.search.cache_hits,
        plan.search.bounds_pruned,
        plan.search.bound_aborts
    );

    mpress_par::set_jobs(1);
    let mut rows = Vec::new();
    let mut zoo_runs = 0;
    let ((), zoo_wall_s) = timed(|| {
        for (model, _) in names::model_catalog() {
            for machine in ["dgx1", "dgx2"] {
                let request = PlanRequest::new(model).machine(machine);
                let (outcome, wall_s) = timed(|| run_train(&request, &ApiContext::new(), false));
                let report = outcome
                    .unwrap_or_else(|e| panic!("{model} x {machine} trains: {e}"))
                    .report;
                zoo_runs += report.plan.search.emulator_runs;
                rows.push(format!(
                    "  {{\"model\": \"{model}\", \"machine\": \"{machine}\", \
                     \"emulator_runs\": {}, \"refinement_rounds\": {}, \
                     \"makespan_s\": {}, \"tflops\": {}, \"wall_s\": {wall_s:.3}}}",
                    report.plan.search.emulator_runs,
                    report.plan.refinement_rounds,
                    report.sim.makespan,
                    report.tflops,
                ));
            }
        }
    });
    json.push_str(&format!(
        " \"zoo_wall_s\": {zoo_wall_s:.3}, \"zoo_emulator_runs\": {zoo_runs}, \"zoo\": [\n{}\n]}}\n",
        rows.join(",\n")
    ));
    eprintln!("zoo: 20 jobs at jobs=1, {zoo_runs} emulator runs, wall {zoo_wall_s:.3}s");

    if let Some((path, old)) = baseline {
        let new: Value = serde_json::from_str(&json).expect("the document just written is JSON");
        let (old, new) = (deterministic_fields(&old), deterministic_fields(&new));
        let show = |field: Option<&(String, Option<Value>)>| match field {
            Some((key, Some(v))) => {
                format!("{key} = {}", serde_json::to_string(v).unwrap_or_default())
            }
            Some((key, None)) => format!("{key} missing"),
            None => "no field".to_owned(),
        };
        let mut differences = 0;
        for i in 0..old.len().max(new.len()) {
            if old.get(i) != new.get(i) {
                differences += 1;
                eprintln!(
                    "differs: {path} has {}, this run {}",
                    show(old.get(i)),
                    show(new.get(i))
                );
            }
        }
        if differences > 0 {
            eprintln!("error: {differences} deterministic field(s) differ from {path}");
            std::process::exit(1);
        }
        eprintln!("check: all {} deterministic fields match {path}", new.len());
    }
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("error: writing {out_path}: {e}");
        std::process::exit(1);
    });
    print!("{json}");
}

/// The fields `--check` compares, labelled, in document order: the
/// reference search's rounds and candidates, the zoo run total, and
/// every zoo row's fields except its wall.
fn deterministic_fields(doc: &Value) -> Vec<(String, Option<Value>)> {
    let mut fields: Vec<(String, Option<Value>)> = [
        "refinement_rounds",
        "refine_candidates",
        "zoo_emulator_runs",
    ]
    .iter()
    .map(|&key| (key.to_owned(), doc.get(key).cloned()))
    .collect();
    for row in doc
        .get("zoo")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
    {
        let job = format!(
            "{} x {}",
            row.get("model").and_then(Value::as_str).unwrap_or("?"),
            row.get("machine").and_then(Value::as_str).unwrap_or("?")
        );
        for key in ["emulator_runs", "refinement_rounds", "makespan_s", "tflops"] {
            fields.push((format!("{job} {key}"), row.get(key).cloned()));
        }
    }
    fields
}
