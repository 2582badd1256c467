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
//!  "cache_hit_rate": 0.1463, "bounds_pruned": 15,
//!  "peak_workers": 1, "bound_aborts": 9,
//!  "refinement_rounds": 28, "refine_candidates": [1, 6, 1, 3, 1, 2, 2, 1, 2, 2, 5, 1, 1],
//!  "trials_enqueued": 265, "bound_node_visits": 72067, "plan_emits": 53,
//!  "zoo_wall_s": 1.0, "zoo_emulator_runs": 1057, "zoo_trials_enqueued": 12517,
//!  "zoo_bound_node_visits": 1961248, "zoo_plan_emits": 1238,
//!  "zoo_stream_visits": 7073931, "zoo": [
//!   {"model": "bert-0.35b", "machine": "dgx1", "emulator_runs": 1,
//!    "refinement_rounds": 0, "makespan_s": 2.5347909907487183,
//!    "tflops": 76.12678889048854, "plan_digest": "a4ff75ce1b30eba0", "wall_s": 0.002},
//!   ...
//! ]}
//! ```
//!
//! `"jobs"` is the *resolved* pool width the reference search ran with
//! (after the hardware clamp), not the requested `--jobs` value.
//! `makespan_s` and `tflops` are printed in full (shortest round-trip)
//! precision, so equal text means equal bits. `plan_digest` hashes the
//! chosen plan's device map and directive list, so two plans that move
//! the same bytes through different tensors differ in it.
//!
//! The work counts (`trials_enqueued`, `bound_node_visits`,
//! `plan_emits`; see `SearchStats`) are a pure function of each search's
//! trajectory, identical at every pool width: the reference job's and
//! the zoo totals (`zoo_*`) are both recorded. `zoo_stream_visits` sums
//! the engine's start-pass stream visits over the zoo searches' windows;
//! like the run counts it is recorded for the zoo (planned at jobs=1)
//! only.
//!
//! `--check PATH` compares every deterministic field — the zoo rows
//! without their walls, the zoo run total, the work counts, and the
//! reference search's `refinement_rounds`/`refine_candidates` — against
//! the document at PATH, prints each difference and exits 1 (without
//! writing) when any differs. The reference job's run and cache
//! counters depend on the pool width, so they are reported, never
//! compared.
//!
//! Pass `--out PATH` to redirect (default `BENCH_planner.json` in the
//! working directory); `--jobs N` / `MPRESS_JOBS` select the reference
//! case's pool size.
use mpress::{Mpress, MpressPlan};
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
         \"bounds_pruned\": {}, \
         \"peak_workers\": {}, \"bound_aborts\": {}, \
         \"refinement_rounds\": {}, \"refine_candidates\": [{}], \
         \"trials_enqueued\": {}, \"bound_node_visits\": {}, \"plan_emits\": {},",
        wall_s,
        plan.search.jobs,
        plan.search.emulator_runs,
        plan.search.cache_hits,
        plan.search.cache_hit_rate(),
        plan.search.bounds_pruned,
        plan.search.peak_workers,
        plan.search.bound_aborts,
        plan.refinement_rounds,
        candidates,
        plan.search.trials_enqueued,
        plan.search.bound_node_visits,
        plan.search.plan_emits,
    );
    eprintln!(
        "reference planner wall {wall_s:.3}s at jobs={} (peak {} workers), \
         {} emulator runs, {} cache hits, {} bounds prunes, \
         {} bound aborts; {} trials enqueued, {} bound node visits, {} plan emits",
        plan.search.jobs,
        plan.search.peak_workers,
        plan.search.emulator_runs,
        plan.search.cache_hits,
        plan.search.bounds_pruned,
        plan.search.bound_aborts,
        plan.search.trials_enqueued,
        plan.search.bound_node_visits,
        plan.search.plan_emits,
    );

    mpress_par::set_jobs(1);
    let mut rows = Vec::new();
    let mut zoo_runs = 0;
    let (mut zoo_trials, mut zoo_visits, mut zoo_emits, mut zoo_streams) = (0, 0, 0, 0);
    let ((), zoo_wall_s) = timed(|| {
        for (model, _) in names::model_catalog() {
            for machine in ["dgx1", "dgx2"] {
                let request = PlanRequest::new(model).machine(machine);
                let (outcome, wall_s) = timed(|| run_train(&request, &ApiContext::new(), false));
                let report = outcome
                    .unwrap_or_else(|e| panic!("{model} x {machine} trains: {e}"))
                    .report;
                let search = report.plan.search;
                zoo_runs += search.emulator_runs;
                zoo_trials += search.trials_enqueued;
                zoo_visits += search.bound_node_visits;
                zoo_emits += search.plan_emits;
                zoo_streams += search.stream_visits;
                rows.push(format!(
                    "  {{\"model\": \"{model}\", \"machine\": \"{machine}\", \
                     \"emulator_runs\": {}, \"refinement_rounds\": {}, \
                     \"makespan_s\": {}, \"tflops\": {}, \"plan_digest\": \"{:016x}\", \
                     \"wall_s\": {wall_s:.3}}}",
                    report.plan.search.emulator_runs,
                    report.plan.refinement_rounds,
                    report.sim.makespan,
                    report.tflops,
                    plan_digest(&report.plan),
                ));
            }
        }
    });
    json.push_str(&format!(
        " \"zoo_wall_s\": {zoo_wall_s:.3}, \"zoo_emulator_runs\": {zoo_runs}, \
         \"zoo_trials_enqueued\": {zoo_trials}, \"zoo_bound_node_visits\": {zoo_visits}, \
         \"zoo_plan_emits\": {zoo_emits}, \"zoo_stream_visits\": {zoo_streams}, \
         \"zoo\": [\n{}\n]}}\n",
        rows.join(",\n")
    ));
    eprintln!(
        "zoo: 20 jobs at jobs=1, {zoo_runs} emulator runs, {zoo_trials} trials enqueued, \
         {zoo_visits} bound node visits, {zoo_emits} plan emits, {zoo_streams} stream visits, \
         wall {zoo_wall_s:.3}s"
    );

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
/// reference search's rounds, candidates and work counts, the zoo
/// totals, and every zoo row's fields except its wall.
fn deterministic_fields(doc: &Value) -> Vec<(String, Option<Value>)> {
    let mut fields: Vec<(String, Option<Value>)> = [
        "refinement_rounds",
        "refine_candidates",
        "trials_enqueued",
        "bound_node_visits",
        "plan_emits",
        "zoo_emulator_runs",
        "zoo_trials_enqueued",
        "zoo_bound_node_visits",
        "zoo_plan_emits",
        "zoo_stream_visits",
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
        for key in [
            "emulator_runs",
            "refinement_rounds",
            "makespan_s",
            "tflops",
            "plan_digest",
        ] {
            fields.push((format!("{job} {key}"), row.get(key).cloned()));
        }
    }
    fields
}

/// FNV-1a over the JSON of the chosen plan's device map and directive
/// list: equal digests mean the same stage placement and the same
/// directive on every tensor.
fn plan_digest(plan: &MpressPlan) -> u64 {
    let text = serde_json::to_string(&(&plan.device_map, &plan.instrumentation))
        .expect("a plan serializes");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
