//! The traced run: per-layer figures for one workload.
//!
//! Spans are recorded here, around the benchmark's calls into each
//! layer's public functions; no program code is instrumented. A run has
//! three phases, each fed by the workload's own inputs:
//!
//! 1. **cold** — each of the workload's cold requests is executed
//!    untraced on a fresh `ApiContext` (`api.exec_cold_ms`). Its job is
//!    then re-run through the layers one call at a time on another
//!    fresh context: `PipelineJob::lower`, `Profile::collect`, the plan
//!    cache lookup, `Planner::plan`, the cache insert,
//!    `Mpress::simulate`, `check_plan` and `certify_plan`. `Planner::plan`
//!    profiles internally, so the planner's self time is its span minus
//!    the separately timed profile.
//! 2. **hot** — the hot menu is executed on a warmed context
//!    (`api.exec_hot_ms.*`), and the four `wire` line functions are
//!    timed on its requests and responses.
//! 3. **serve** — a daemon is warmed with the menu; `stats` round trips
//!    isolate the transport, then the workload's traffic runs (a short
//!    closed loop for `train-cold`, whose own requests never reach a
//!    daemon) and the daemon's counters are read.

use crate::common::{cold_execute, connections, digest, ms};
use crate::inputs::{self, Rng};
use crate::report::Report;
use crate::serve_load::{
    closed_loop, connect, daemon_stats, local_results, menu_lines, open_loop, service_counter,
    service_histogram_mean, start_daemon, warm_up, Load, MixedInputs,
};
use crate::stats::{mean, median, percentile};
use crate::trace::Trace;
use crate::Workload;
use mpress::{Mpress, PlanCacheStats, Planner, PlannerConfig, Profile, SearchStats};
use mpress_api::{
    decode_request_line, decode_response_line, encode_request_line, encode_response_line, execute,
    names, ApiContext, PlanRequest, Request, Response, ServeError,
};
use mpress_pipeline::PipelineJob;
use serde_json::Value;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Hot executions of each menu entry.
const HOT_REPS: usize = 5;
/// Calls per timed block of a `wire` function (each call takes
/// microseconds).
const CODEC_REPS: u32 = 200;
/// `stats` round trips on a warm connection, and on fresh ones.
const STATS_RTTS: usize = 15;
const FIRST_RTTS: usize = 5;
/// Length of the closed loop that stands in for `train-cold`'s traffic,
/// and the cap on `serve-hot`'s traced loop.
const PROBE_LOOP: Duration = Duration::from_secs(3);
const HOT_LOOP_CAP: Duration = Duration::from_secs(6);

pub fn run(workload: Workload, seed: u64, seconds: u64) -> (Report, Trace) {
    let mut trace = Trace::new(Instant::now());
    let mut report = Report::default();
    let menu = inputs::serve_menu();
    let mixed = (workload == Workload::ServeMixed).then(|| MixedInputs::generate(seed, seconds));
    let cold_requests: Vec<Request> = match (workload, &mixed) {
        (Workload::TrainCold, _) => {
            let jobs = inputs::train_cold_jobs();
            Rng::new(seed, 0)
                .permutation(jobs.len())
                .into_iter()
                .map(|i| Request::Train(jobs[i].clone()))
                .collect()
        }
        (Workload::ServeMixed, Some(m)) => m.schedule.cold.clone(),
        _ => menu.clone(),
    };

    let cold = cold_phase(&mut trace, &mut report, &cold_requests);
    let hot_exec_ms = hot_phase(&mut trace, &mut report, &menu);
    let serve = serve_phase(
        &mut trace,
        &mut report,
        workload,
        seed,
        seconds,
        &menu,
        mixed.as_ref(),
    );

    let jobs = cold.jobs.len().max(1) as f64;
    let sum = |f: &dyn Fn(&JobLayers) -> f64| cold.jobs.iter().map(f).sum::<f64>();
    let count = |f: &dyn Fn(&SearchStats) -> usize| sum(&|j| f(&j.search) as f64);
    let plan_self_ms = sum(&|j| j.plan_ms - j.profile_ms);
    let runs = count(&|s| s.emulator_runs);
    let pruned = count(&|s| s.bounds_pruned);
    let spec = count(&|s| s.speculative_runs);
    let windows = count(&|s| s.windows_total);
    let paired = sum(&|j| j.paired_exec_ms);
    report.set("pipeline.lower_ms", sum(&|j| j.lower_ms) / jobs);
    report.set("core.profile_ms", sum(&|j| j.profile_ms) / jobs);
    report.set("core.plan_self_ms", plan_self_ms / jobs);
    report.set("core.ms_per_emulation", ratio(plan_self_ms, runs));
    report.set("core.search.emulator_runs", runs);
    report.set("core.search.bounds_pruned", pruned);
    report.set("core.search.bound_aborts", count(&|s| s.bound_aborts));
    report.set(
        "core.search.cache_hits",
        count(&|s| s.cache_hits + s.cache_hits_canonical),
    );
    report.set(
        "core.search.refinement_rounds",
        sum(&|j| j.refinement_rounds as f64),
    );
    report.set("core.search.steals", count(&|s| s.steals));
    report.set("core.search.delta_replays", count(&|s| s.delta_replays));
    report.set("core.search.prune_frac", ratio(pruned, pruned + runs));
    report.set(
        "core.search.spec_useful_frac",
        if spec > 0.0 {
            1.0 - count(&|s| s.speculation_wasted) / spec
        } else {
            1.0
        },
    );
    report.set(
        "core.search.windows_replayed_frac",
        ratio(count(&|s| s.windows_replayed), windows),
    );
    report.set("par.pool_width", mpress_par::pool_width() as f64);
    let peak = cold.jobs.iter().map(|j| j.search.peak_workers).max();
    report.set("par.peak_workers", peak.unwrap_or(0) as f64);
    report.set("sim.simulate_ms", sum(&|j| j.simulate_ms) / jobs);
    report.set(
        "sim.ns_per_op",
        ratio(sum(&|j| j.simulate_ms) * 1e6, sum(&|j| j.ops as f64)),
    );
    report.set("analyze.verify_ms", sum(&|j| j.verify_ms) / jobs);
    report.set("analyze.certify_ms", sum(&|j| j.certify_ms) / jobs);
    report.set("api.exec_cold_ms", mean(&cold.exec_ms));
    let traced = sum(&|j| j.train_path_ms);
    report.set("trace.overhead_frac", ratio(traced, paired) - 1.0);
    report.set(
        "trace.accounted_frac",
        ratio(sum(&|j| j.lower_ms + j.plan_ms + j.simulate_ms), paired),
    );

    // Which cache served the workload's own requests: the fresh contexts
    // of the cold requests on `train-cold`, the daemon's otherwise.
    let cache = match workload {
        Workload::TrainCold => cold.cache,
        _ => serve.cache,
    };
    report.set(
        "cache.plan_hit_frac",
        ratio(
            cache.plan_hits as f64,
            (cache.plan_hits + cache.plan_misses) as f64,
        ),
    );
    report.set(
        "cache.plan_lookups",
        (cache.plan_hits + cache.plan_misses) as f64,
    );
    report.set(
        "cache.emu_hit_frac",
        ratio(
            cache.emu_hits as f64,
            (cache.emu_hits + cache.emu_misses) as f64,
        ),
    );
    report.set(
        "cache.emu_lookups",
        (cache.emu_hits + cache.emu_misses) as f64,
    );
    report.set("cache.plan_evictions", cache.plan_evictions as f64);

    for (name, kind) in HOT_SPANS {
        report.set(name, mean(&trace.durations_ms(kind)));
    }
    let codec_us: Vec<f64> = CODEC_SPANS
        .iter()
        .map(|(name, span)| {
            let us = mean(&trace.durations_ms(span)) * 1e3 / f64::from(CODEC_REPS);
            report.set(name, us);
            us
        })
        .collect();
    let codec_ms = codec_us.iter().sum::<f64>() / 1e3;
    let hot_exec_ms = mean(&hot_exec_ms);
    let p = |pct| percentile(&serve.hot_ms, pct).map_or(0.0, |p| p.value);
    report.set(
        "serve.rtt_stats_ms",
        median(&trace.durations_ms("serve.rtt_stats")),
    );
    report.set(
        "serve.rtt_stats_first_ms",
        median(&trace.durations_ms("serve.rtt_stats_first")),
    );
    report.set("serve.overhead_ms", p(50.0) - hot_exec_ms - codec_ms);
    report.set("serve.hot_wait_ms", p(95.0) - hot_exec_ms);
    report.set(
        "serve.batches",
        service_counter(&serve.stats, "serve.batches"),
    );
    report.set(
        "serve.batch_size_mean",
        service_histogram_mean(&serve.stats, "serve.batch_size"),
    );
    report.set(
        "serve.dedup_hits",
        service_counter(&serve.stats, "serve.dedup_hits"),
    );
    report.set(
        "serve.overloaded",
        service_counter(&serve.stats, "serve.rejected.overloaded"),
    );
    report.set_pct("loadgen.lag_p95_ms", percentile(&serve.lag_ms, 95.0));
    (report, trace)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One cold job taken through the layers one call at a time.
struct JobLayers {
    lower_ms: f64,
    profile_ms: f64,
    plan_ms: f64,
    simulate_ms: f64,
    verify_ms: f64,
    certify_ms: f64,
    /// Lowering, cache lookup, planning, cache insert and simulation:
    /// the path an untraced `train` request takes.
    train_path_ms: f64,
    /// The untraced `train` execution of the same job.
    paired_exec_ms: f64,
    ops: usize,
    search: SearchStats,
    refinement_rounds: usize,
}

struct ColdPhase {
    jobs: Vec<JobLayers>,
    exec_ms: Vec<f64>,
    cache: PlanCacheStats,
}

/// The planning job behind a request.
fn job_of(req: &Request) -> Option<PlanRequest> {
    match req {
        Request::Plan(p) | Request::Train(p) | Request::Check(p) => Some(p.clone()),
        Request::Compare(c) => {
            let mut p = PlanRequest::new(c.model.clone())
                .machine(c.machine.clone())
                .microbatches(c.microbatches);
            if let Some(s) = &c.schedule {
                p = p.schedule(s.clone());
            }
            if let Some(b) = c.microbatch {
                p = p.microbatch(b);
            }
            Some(p)
        }
        _ => None,
    }
}

fn cold_phase(trace: &mut Trace, report: &mut Report, requests: &[Request]) -> ColdPhase {
    let mut phase = ColdPhase {
        jobs: Vec::new(),
        exec_ms: Vec::new(),
        cache: PlanCacheStats::default(),
    };
    let mut seen: Vec<String> = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        let id = i as u64 + 1;
        let start = Instant::now();
        let (took, result) = cold_execute(req);
        trace.push("api.exec_cold", None, id, start, Instant::now());
        phase.exec_ms.push(took);
        let Some(job) = job_of(req) else { continue };
        let key = encode_request_line(0, &Request::Train(job.clone()));
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        // A `train` request is its own untraced pair; other kinds get one.
        let (paired_ms, paired) = match req {
            Request::Train(_) => (took, result),
            _ => {
                let start = Instant::now();
                let (took, result) = cold_execute(&Request::Train(job.clone()));
                trace.push("api.exec_cold_train", None, id, start, Instant::now());
                (took, result)
            }
        };
        report.attempted += 1;
        match decompose(trace, &job, id) {
            Ok((layers, tflops, makespan, cache)) => {
                let same = matches!(&paired, Ok(Response::Train(t))
                    if t.tflops.to_bits() == tflops.to_bits() && t.makespan_s.to_bits() == makespan.to_bits());
                if !same {
                    report.mismatches += 1;
                    report.failed += 1;
                }
                add_cache(&mut phase.cache, cache);
                phase.jobs.push(JobLayers {
                    paired_exec_ms: paired_ms,
                    ..layers
                });
            }
            Err(_) => report.failed += 1,
        }
    }
    phase
}

fn add_cache(total: &mut PlanCacheStats, s: PlanCacheStats) {
    total.plan_hits += s.plan_hits;
    total.plan_misses += s.plan_misses;
    total.plan_evictions += s.plan_evictions;
    total.emu_hits += s.emu_hits;
    total.emu_misses += s.emu_misses;
}

type Decomposed = (JobLayers, f64, f64, PlanCacheStats);

/// Runs `req` as a `train` request through the layers' public calls,
/// one span per call under a root span for the request, and returns the
/// per-layer times with the simulated TFLOPS and makespan.
fn decompose(trace: &mut Trace, req: &PlanRequest, id: u64) -> Result<Decomposed, String> {
    let model = names::model(&req.model).map_err(|e| e.to_string())?;
    let machine = names::machine(&req.machine).map_err(|e| e.to_string())?;
    let (default_schedule, default_microbatch, precision) = names::paper_defaults(&model);
    let schedule = match &req.schedule {
        Some(s) => names::schedule(s).map_err(|e| e.to_string())?,
        None => default_schedule,
    };
    let job = PipelineJob::builder()
        .model(model)
        .machine(machine)
        .schedule(schedule)
        .microbatch_size(req.microbatch.map_or(default_microbatch, |b| b as usize))
        .microbatches(req.microbatches as usize)
        .precision(precision)
        .build()
        .map_err(|e| e.to_string())?;
    let opts = names::optimizations(&req.opts).map_err(|e| e.to_string())?;
    let ctx = ApiContext::new();
    let mpress = Mpress::builder()
        .job(job.clone())
        .planner_config(PlannerConfig::default().optimizations(opts))
        .plan_cache(ctx.cache.clone())
        .arena_pool(ctx.arenas.clone())
        .build();
    let machine = mpress.machine();

    let root = trace.open("request", None, id);
    let first = trace.spans().len();
    let lowered = trace
        .record("pipeline.lower", Some(root), id, || job.lower())
        .map_err(|e| e.to_string())?;
    trace
        .record("core.profile", Some(root), id, || {
            Profile::collect(machine, &job, &lowered).map(black_box)
        })
        .map_err(|e| e.to_string())?;
    let digest = mpress.plan_digest(&lowered);
    let cached = trace.record("cache.lookup", Some(root), id, || {
        ctx.cache.plan_lookup(digest)
    });
    if cached.is_some() {
        return Err("a fresh context already held the plan".to_owned());
    }
    let plan = trace
        .record("core.plan", Some(root), id, || {
            Planner::new(machine, &job, &lowered, *mpress.planner_config())
                .with_shared_cache(ctx.cache.clone(), mpress.job_scope(&lowered))
                .with_arena_pool(ctx.arenas.clone())
                .plan()
        })
        .map_err(|e| e.to_string())?;
    trace.record("cache.insert", Some(root), id, || {
        ctx.cache.plan_insert(digest, &plan)
    });
    let sim = trace
        .record("sim.simulate", Some(root), id, || {
            mpress.simulate(&plan, &lowered)
        })
        .map_err(|e| e.to_string())?;
    let graph = &lowered.graph;
    let (instr, map) = (&plan.instrumentation, &plan.device_map);
    trace.record("analyze.verify", Some(root), id, || {
        black_box(mpress_analyze::check_plan(machine, graph, instr, map))
    });
    trace.record("analyze.certify", Some(root), id, || {
        ctx.arenas.with(|arena| {
            black_box(mpress_analyze::certify_plan(
                machine, graph, instr, map, arena,
            ))
        })
    });
    trace.close(root);

    let span_ms = |name: &str| {
        trace.spans()[first..]
            .iter()
            .filter(|s| s.name == name && s.parent == Some(root))
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum::<f64>()
    };
    let layers = JobLayers {
        lower_ms: span_ms("pipeline.lower"),
        profile_ms: span_ms("core.profile"),
        plan_ms: span_ms("core.plan"),
        simulate_ms: span_ms("sim.simulate"),
        verify_ms: span_ms("analyze.verify"),
        certify_ms: span_ms("analyze.certify"),
        train_path_ms: [
            "pipeline.lower",
            "cache.lookup",
            "core.plan",
            "cache.insert",
            "sim.simulate",
        ]
        .iter()
        .map(|n| span_ms(n))
        .sum(),
        paired_exec_ms: 0.0,
        ops: graph.ops().len(),
        search: plan.search,
        refinement_rounds: plan.refinement_rounds,
    };
    Ok((layers, sim.tflops, sim.sim.makespan, ctx.cache.stats()))
}

/// `(metric, span)` for the hot executions of each request kind.
const HOT_SPANS: [(&str, &str); 4] = [
    ("api.exec_hot_ms.plan", "api.exec_hot.plan"),
    ("api.exec_hot_ms.check", "api.exec_hot.check"),
    ("api.exec_hot_ms.train", "api.exec_hot.train"),
    ("api.exec_hot_ms.compare", "api.exec_hot.compare"),
];

/// `(metric, span)` for the four `wire` line functions.
const CODEC_SPANS: [(&str, &str); 4] = [
    ("api.wire.encode_req_us", "api.wire.encode_req"),
    ("api.wire.decode_req_us", "api.wire.decode_req"),
    ("api.wire.encode_resp_us", "api.wire.encode_resp"),
    ("api.wire.decode_resp_us", "api.wire.decode_resp"),
];

fn hot_span(kind: &str) -> &'static str {
    HOT_SPANS
        .iter()
        .find(|(_, span)| span.ends_with(kind))
        .map_or("api.exec_hot.other", |(_, span)| span)
}

/// Returns the time of every hot execution.
fn hot_phase(trace: &mut Trace, report: &mut Report, menu: &[Request]) -> Vec<f64> {
    let ctx = ApiContext::new();
    let first: Vec<Result<Response, ServeError>> = menu.iter().map(|r| execute(r, &ctx)).collect();
    let mut exec_ms = Vec::new();
    for _ in 0..HOT_REPS {
        for (i, (req, first)) in menu.iter().zip(&first).enumerate() {
            let id = i as u64 + 1;
            let start = Instant::now();
            let result = execute(req, &ctx);
            let end = Instant::now();
            trace.push(hot_span(req.kind()), None, id, start, end);
            exec_ms.push(ms(end - start));
            report.attempted += 1;
            if encode_response_line(id, &result) != encode_response_line(id, first) {
                report.mismatches += 1;
                report.failed += 1;
            }
        }
    }
    for (i, (req, result)) in menu.iter().zip(&first).enumerate() {
        let id = i as u64 + 1;
        let req_line = encode_request_line(id, req);
        let resp_line = encode_response_line(id, result);
        let reps = 0..CODEC_REPS;
        trace.record("api.wire.encode_req", None, id, || {
            reps.clone()
                .for_each(|_| drop(black_box(encode_request_line(id, black_box(req)))))
        });
        trace.record("api.wire.decode_req", None, id, || {
            reps.clone()
                .for_each(|_| drop(black_box(decode_request_line(black_box(&req_line)))))
        });
        trace.record("api.wire.encode_resp", None, id, || {
            reps.clone()
                .for_each(|_| drop(black_box(encode_response_line(id, black_box(result)))))
        });
        trace.record("api.wire.decode_resp", None, id, || {
            reps.clone()
                .for_each(|_| drop(black_box(decode_response_line(black_box(&resp_line)))))
        });
    }
    exec_ms
}

struct ServePhase {
    /// Latencies of hot requests through the daemon.
    hot_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    stats: Value,
    cache: PlanCacheStats,
}

fn serve_phase(
    trace: &mut Trace,
    report: &mut Report,
    workload: Workload,
    seed: u64,
    seconds: u64,
    menu: &[Request],
    mixed: Option<&MixedInputs>,
) -> ServePhase {
    let lines = menu_lines(menu);
    let daemon = start_daemon();
    let addr = daemon.addr();
    let mut client = connect(addr);
    warm_up(&mut client, &lines);
    for _ in 0..STATS_RTTS {
        trace
            .record("serve.rtt_stats", None, 0, || {
                client.request(&Request::Stats)
            })
            .ok();
    }
    for _ in 0..FIRST_RTTS {
        let mut fresh = connect(addr);
        trace
            .record("serve.rtt_stats_first", None, 0, || {
                fresh.request(&Request::Stats)
            })
            .ok();
    }
    let (load, hot): (Load, Box<dyn Fn(usize) -> bool>) = match (workload, mixed) {
        (Workload::ServeMixed, Some(m)) => (
            open_loop(addr, &m.lines, &m.due_s),
            Box::new(|s| m.is_hot(s)),
        ),
        (Workload::ServeHot, _) => {
            let clients = (0..connections()).map(|_| connect(addr)).collect();
            let length = Duration::from_secs(seconds).min(HOT_LOOP_CAP);
            (
                closed_loop(clients, &lines, seed, length),
                Box::new(|_| true),
            )
        }
        _ => (
            closed_loop(vec![connect(addr)], &lines, seed, PROBE_LOOP),
            Box::new(|_| true),
        ),
    };
    let stats = daemon_stats(&mut client);
    drop(client);
    drop(daemon);

    for s in &load.samples {
        let Some(recv) = s.recv else { continue };
        let id = s.slot as u64 + 1;
        let root = trace.push("serve.request", None, id, s.due, recv);
        trace.push("loadgen.lag", Some(root), id, s.due, s.sent);
        trace.push("serve.round_trip", Some(root), id, s.sent, recv);
    }
    match mixed {
        Some(m) => {
            m.check(&load, report);
        }
        None => {
            let local = local_results(menu);
            load.check(report, |slot| {
                encode_response_line(slot as u64 + 1, &local[slot])
            });
            let bodies: Vec<String> = local.iter().map(|r| encode_response_line(0, r)).collect();
            report.digest = digest(bodies.iter().map(String::as_str));
        }
    }
    let cache = stats.get("cache");
    let field = |f: &str| {
        cache
            .and_then(|c| c.get(f))
            .and_then(Value::as_u64)
            .unwrap_or(0) as usize
    };
    let cache = PlanCacheStats {
        plan_hits: field("plan_hits"),
        plan_misses: field("plan_misses"),
        plan_evictions: field("plan_evictions"),
        emu_hits: field("emu_hits"),
        emu_misses: field("emu_misses"),
        ..PlanCacheStats::default()
    };
    ServePhase {
        hot_ms: load.latencies(hot),
        lag_ms: load.samples.iter().map(|s| s.lag_ms()).collect(),
        stats,
        cache,
    }
}
