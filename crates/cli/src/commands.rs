//! Subcommand implementations.
//!
//! Planning-shaped commands (`plan`, `check`, `train`, `compare`) build
//! the same [`PlanRequest`]/[`CompareRequest`] wire types the daemon
//! decodes from TCP and execute them through [`mpress_api::exec`] — the
//! CLI is just one more front end on the versioned API, which is what
//! makes its `--json` output byte-identical to daemon response bodies.

use crate::args::Args;
use crate::CliError;
use mpress::{GraceHopperNode, GraceHopperProjection, TelemetryReport};
use mpress_api::names;
use mpress_api::{
    run_check, run_compare, run_plan, run_train, ApiContext, CompareRequest, PlanRequest, Request,
    ServeError,
};
use mpress_pipeline::PipelineJob;
use mpress_serve::{Client, ServeConfig};
use mpress_sim::viz;
use std::fmt::Write as _;

/// How `--metrics` was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsMode {
    Off,
    Table,
    Json,
}

fn metrics_mode(args: &Args) -> Result<MetricsMode, CliError> {
    match args.get("metrics") {
        None => Ok(MetricsMode::Off),
        Some("table") => Ok(MetricsMode::Table),
        Some("json") => Ok(MetricsMode::Json),
        Some(other) => Err(CliError::BadFlag(format!(
            "--metrics expects `table` or `json`, got `{other}`"
        ))),
    }
}

/// Serializes a telemetry payload as the command's *entire* output —
/// `--metrics=json` promises machine-readable stdout.
fn telemetry_json<T: serde::Serialize>(payload: &T) -> Result<String, CliError> {
    serde_json::to_string_pretty(payload)
        .map(|mut s| {
            s.push('\n');
            s
        })
        .map_err(|e| CliError::Output(format!("serializing telemetry: {e}")))
}

/// Serializes a wire response body exactly as the daemon would emit it
/// (compact, field order preserved), one line.
fn body_json<T: serde::Serialize>(payload: &T) -> Result<String, CliError> {
    serde_json::to_string(payload)
        .map(|mut s| {
            s.push('\n');
            s
        })
        .map_err(|e| CliError::Output(format!("serializing response: {e}")))
}

/// The one `SearchStats` renderer every command shares (`plan` output,
/// `--metrics` tables), so new counters print consistently everywhere.
/// `candidates` appends the per-round candidate counts when the caller
/// tracks them.
fn search_summary(s: &mpress::SearchStats, indent: &str, candidates: Option<&[usize]>) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{indent}search: {} emulator runs, {} cache hits ({:.0}% hit rate), \
         {} verifier rejections, jobs={} (peak {} workers)",
        s.emulator_runs,
        s.cache_hits,
        100.0 * s.cache_hit_rate(),
        s.verifier_rejections,
        s.jobs,
        s.peak_workers,
    );
    if let Some(c) = candidates {
        let _ = write!(out, ", candidates/round {c:?}");
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "{indent}bounds: {} pruned, {} bound aborts",
        s.bounds_pruned, s.bound_aborts,
    );
    out
}

/// The human-readable `--metrics` section.
fn telemetry_table(t: &TelemetryReport) -> String {
    let mut out = String::from("\ntelemetry:\n");
    out.push_str(&search_summary(&t.search, "  ", Some(&t.refine_candidates)));
    let Some(sim) = &t.sim else {
        return out;
    };
    let _ = writeln!(
        out,
        "  sim: makespan {:.3}s, {} evictions, {} refetches",
        sim.total_time, sim.evictions, sim.refetches
    );
    let _ = writeln!(
        out,
        "  device   compute     comm copy-out  copy-in | mem-wait  copy-in dep-wait  drained"
    );
    for d in &sim.devices {
        let _ = writeln!(
            out,
            "  GPU{:<4} {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            d.device.index(),
            d.busy.compute,
            d.busy.comm,
            d.busy.copy_out,
            d.busy.copy_in,
            d.stalls.waiting_on_memory,
            d.stalls.waiting_on_copy_in,
            d.stalls.waiting_on_dependency,
            d.stalls.drained,
        );
    }
    if !sim.links.is_empty() {
        let _ = writeln!(out, "  links:");
        for l in &sim.links {
            let _ = writeln!(
                out,
                "    {:<14} {:>10}  busy {:>7.3}s  occupancy {:>4.0}%",
                l.link.to_string(),
                l.bytes.to_string(),
                l.busy,
                100.0 * l.occupancy,
            );
        }
    }
    out
}

/// `zoo`: the model catalog with parameter counts.
pub fn zoo() -> Result<String, CliError> {
    let mut out = String::from("model         params\n");
    for (name, cfg) in names::model_catalog() {
        let _ = writeln!(
            out,
            "{name:<13} {:.2}B  ({} layers, hidden {})",
            cfg.total_params() as f64 / 1e9,
            cfg.num_layers(),
            cfg.hidden()
        );
        let _ = name;
    }
    // Include display names for greppability.
    out.push('\n');
    for (_, cfg) in names::model_catalog() {
        let _ = writeln!(out, "{}", cfg);
    }
    Ok(out)
}

/// Builds the planning request shared by `plan`, `check`, `train` and
/// the `client` subcommand from CLI flags.
fn plan_request_from(args: &Args) -> Result<PlanRequest, CliError> {
    let mut req = PlanRequest::new(args.require("model")?);
    if let Some(machine) = args.get("machine") {
        req = req.machine(machine);
    }
    if let Some(schedule) = args.get("schedule") {
        req = req.schedule(schedule);
    }
    if args.get("microbatch").is_some() {
        req = req.microbatch(args.usize_or("microbatch", 0)? as u64);
    }
    req = req.microbatches(args.usize_or("microbatches", 16)? as u64);
    if let Some(opts) = args.get("opts") {
        req = req.opts(opts);
    }
    Ok(req)
}

/// Builds a `compare` request from CLI flags.
fn compare_request_from(args: &Args) -> Result<CompareRequest, CliError> {
    let mut req = CompareRequest::new(args.require("model")?);
    if let Some(machine) = args.get("machine") {
        req = req.machine(machine);
    }
    if let Some(schedule) = args.get("schedule") {
        req = req.schedule(schedule);
    }
    if args.get("microbatch").is_some() {
        req = req.microbatch(args.usize_or("microbatch", 0)? as u64);
    }
    req = req.microbatches(args.usize_or("microbatches", 16)? as u64);
    Ok(req)
}

/// Maps a catalog miss to the CLI's flag error, keeping the catalog's
/// message text exactly.
fn bad_flag(e: ServeError) -> CliError {
    match e {
        ServeError::BadRequest(msg) => CliError::BadFlag(msg),
        other => CliError::BadFlag(other.to_string()),
    }
}

/// Builds the job shared by `demands` (which needs the raw job, not a
/// planning run).
fn job_from(args: &Args) -> Result<PipelineJob, CliError> {
    let model = names::model(args.require("model")?).map_err(bad_flag)?;
    let machine = names::machine(args.get("machine").unwrap_or("dgx1")).map_err(bad_flag)?;
    let (default_sched, default_mb, default_precision) = names::paper_defaults(&model);
    let schedule = match args.get("schedule") {
        Some(s) => names::schedule(s).map_err(bad_flag)?,
        None => default_sched,
    };
    let microbatch = args.usize_or("microbatch", default_mb)?;
    let microbatches = args.usize_or("microbatches", 16)?;
    PipelineJob::builder()
        .model(model)
        .machine(machine)
        .schedule(schedule)
        .microbatch_size(microbatch)
        .microbatches(microbatches)
        .precision(default_precision)
        .build()
        .map_err(|e| CliError::BadFlag(format!("invalid job: {e}")))
}

/// `demands`: Table-II-style memory summary plus per-stage peaks.
pub fn demands(args: &Args) -> Result<String, CliError> {
    let job = job_from(args)?;
    let d = job.memory_demands();
    let mut out = format!(
        "{} on {} ({}, microbatch {})\n\
         total {:.1} GiB, per-stage max {:.1} GiB, min {:.1} GiB, imbalance {:.1}x\n",
        job.model().name(),
        job.machine().name(),
        job.schedule(),
        job.microbatch_size(),
        d.total().as_gib_f64(),
        d.max_stage().as_gib_f64(),
        d.min_stage().as_gib_f64(),
        d.imbalance_ratio(),
    );
    let usable = job.machine().gpu().usable_memory();
    for (stage, peak) in d.per_stage_peak.iter().enumerate() {
        let flag = if *peak > usable { "OVERFLOW" } else { "fits" };
        let _ = writeln!(out, "stage {stage}: {:>8.1} GiB  {flag}", peak.as_gib_f64());
    }
    Ok(out)
}

/// `plan`: run the planner, print the technique breakdown, optionally
/// persist JSON. `--json` prints the `v1` response body instead —
/// byte-identical to what the daemon sends for the same request.
pub fn plan(args: &Args) -> Result<String, CliError> {
    let mode = metrics_mode(args)?;
    let req = plan_request_from(args)?;
    let outcome = run_plan(&req, &ApiContext::new())?;
    if args.switch("json") {
        return body_json(&outcome.response);
    }
    let (plan, lowered) = (&outcome.plan, &outcome.lowered);
    let mut out = format!(
        "device map: {}\ndirectives: {} (refinement rounds: {})\n",
        plan.device_map,
        plan.instrumentation.len(),
        plan.refinement_rounds,
    );
    out.push_str(&search_summary(&plan.search, "", None));
    let savings = plan.savings(lowered);
    let total: f64 = savings.values().map(|b| b.as_f64()).sum();
    for tech in [
        mpress_compaction::Technique::Recompute,
        mpress_compaction::Technique::GpuCpuSwap,
        mpress_compaction::Technique::D2dSwap,
    ] {
        let bytes = savings
            .get(&tech)
            .copied()
            .unwrap_or(mpress_hw::Bytes::ZERO);
        let pct = if total > 0.0 {
            100.0 * bytes.as_f64() / total
        } else {
            0.0
        };
        let _ = writeln!(out, "{tech:<14} {:>10}  ({pct:.1}%)", bytes.to_string());
    }
    if let Some(path) = args.get("out") {
        let json = serde_json::to_string_pretty(&plan.instrumentation)
            .map_err(|e| CliError::Output(format!("serializing plan: {e}")))?;
        std::fs::write(path, json).map_err(|e| CliError::Output(format!("writing {path}: {e}")))?;
        let _ = writeln!(out, "plan written to {path}");
    }
    // No final simulation in `plan`, so only search telemetry exists.
    let telemetry = TelemetryReport {
        sim: None,
        search: plan.search,
        refine_candidates: plan.refine_candidates.clone(),
    };
    match mode {
        MetricsMode::Off => Ok(out),
        MetricsMode::Json => telemetry_json(&telemetry),
        MetricsMode::Table => {
            out.push_str(&telemetry_table(&telemetry));
            Ok(out)
        }
    }
}

/// The human-readable `--bounds` section of `check`: the certified
/// makespan interval, verdict, and per-GPU residency envelope.
fn bounds_table(bounds: &mpress_analyze::PlanBounds) -> String {
    let mut out = format!(
        "bounds: {} (makespan within [{:.2}s, {:.2}s])\n",
        bounds.residency.verdict, bounds.makespan_lo, bounds.makespan_hi,
    );
    for (d, (lo, hi)) in bounds
        .residency
        .lo
        .iter()
        .zip(&bounds.residency.hi)
        .enumerate()
    {
        let _ = writeln!(out, "  gpu{d}: residency within [{lo}, {hi}]");
    }
    out
}

/// `check`: run the planner, then the static verifier (`mpress-analyze`)
/// on the chosen plan — no simulation. Prints the MP0xx diagnostic table
/// (or the JSON document under `--json`); any error-severity finding
/// turns into a non-zero exit. `--bounds` adds the certified
/// residency/makespan intervals from the abstract-interpretation pass
/// (one combined JSON document under `--bounds --json`).
pub fn check(args: &Args) -> Result<String, CliError> {
    use serde::Serialize as _;

    let req = plan_request_from(args)?;
    let outcome = run_check(&req, &ApiContext::new())?;
    let report = &outcome.report;
    let with_bounds = args.switch("bounds");
    let body = if args.switch("json") {
        let doc = if with_bounds {
            // One parseable document: diagnostics plus the intervals.
            serde_json::Value::Object(vec![
                ("report".to_owned(), report.to_json()),
                ("bounds".to_owned(), outcome.bounds.to_json()),
            ])
        } else {
            report.to_json()
        };
        serde_json::to_string_pretty(&doc)
            .map(|mut s| {
                s.push('\n');
                s
            })
            .map_err(|e| CliError::Output(format!("serializing diagnostics: {e}")))?
    } else {
        let mut out = format!(
            "checked {} directives on {} stages: {}\n",
            outcome.plan.instrumentation.len(),
            outcome.lowered.graph.n_stages(),
            report.summary(),
        );
        if !report.is_clean() {
            out.push_str(&report.render_table());
        }
        if with_bounds {
            out.push_str(&bounds_table(&outcome.bounds));
        }
        out
    };
    if report.error_count() > 0 {
        Err(CliError::Check(body))
    } else {
        Ok(body)
    }
}

/// `train`: plan + simulate, report throughput and optional charts.
pub fn train(args: &Args) -> Result<String, CliError> {
    let mode = metrics_mode(args)?;
    let req = plan_request_from(args)?;
    let outcome = run_train(&req, &ApiContext::new(), mode != MetricsMode::Off)?;
    let (report, mpress) = (&outcome.report, &outcome.mpress);
    if mode == MetricsMode::Json {
        // Machine-readable stdout: the telemetry document and nothing else.
        let telemetry = report
            .metrics
            .as_ref()
            .expect("metrics were enabled for this run");
        return telemetry_json(telemetry);
    }
    let mut out = if report.succeeded() {
        format!(
            "ok: {:.1} aggregate TFLOPS, {:.1} samples/s, peak {:.1} GiB/GPU\n\
             traffic: d2d {}, host {}, nvme {}; recompute time {:.2}s\n",
            report.tflops,
            report.throughput,
            report.max_device_peak().as_gib_f64(),
            report.sim.d2d_traffic,
            report.sim.host_traffic,
            report.sim.nvme_traffic,
            report.sim.recompute_time,
        )
    } else {
        format!(
            "OUT OF MEMORY: {}\n",
            report
                .sim
                .oom
                .as_ref()
                .expect("failed run has an OOM event")
        )
    };
    if args.switch("chart") || args.switch("gantt") || args.get("trace").is_some() {
        // Re-simulate with timelines for the charts (the plan cache in
        // the outcome's context makes the re-plan a lookup).
        let (plan, lowered) = mpress.plan()?;
        let sim = mpress_sim::Simulator::new(
            mpress.machine(),
            &lowered.graph,
            &plan.instrumentation,
            plan.device_map.clone(),
        )
        .with_config(
            mpress_sim::SimConfig::default()
                .track_timeline(true)
                .trace(args.get("trace").is_some()),
        )
        .run()
        .map_err(|e| CliError::Run(e.into()))?;
        if let Some(path) = args.get("trace") {
            let events = sim.trace.as_deref().unwrap_or(&[]);
            std::fs::write(path, mpress_sim::trace::to_chrome_trace(events))
                .map_err(|e| CliError::Output(format!("writing {path}: {e}")))?;
            let _ = writeln!(
                out,
                "chrome trace written to {path} ({} events)",
                events.len()
            );
        }
        if args.switch("chart") {
            out.push_str("\nper-device memory (full block = usable capacity):\n");
            out.push_str(&viz::memory_chart(
                &sim,
                mpress.machine().gpu().usable_memory(),
                72,
            ));
        }
        if args.switch("gantt") {
            out.push_str("\nexecution lanes (F fwd, B bwd, U opt, s send):\n");
            let stages: Vec<usize> = (0..lowered.graph.n_stages())
                .map(|dev| {
                    plan.device_map
                        .stage_of(mpress_hw::DeviceId(dev))
                        .expect("bijective map")
                })
                .collect();
            out.push_str(&viz::gantt(&sim, &lowered.graph, &stages, 100));
        }
    }
    if mode == MetricsMode::Table {
        let telemetry = report
            .metrics
            .as_ref()
            .expect("metrics were enabled for this run");
        out.push_str(&telemetry_table(telemetry));
    }
    Ok(out)
}

/// `insights`: the §V Grace-Hopper projection.
pub fn insights(args: &Args) -> Result<String, CliError> {
    let microbatch = args.usize_or("microbatch", 2)?;
    let projection = GraceHopperProjection::compute(&GraceHopperNode::default(), microbatch);
    Ok(format!(
        "Sec. V projection on a Grace-Hopper node (96 GB HBM + 512 GB CPU/GPU):\n{}\n",
        projection.summary()
    ))
}

/// `compare`: every system of Figs. 7/8 plus the §II baselines on one
/// job — the whole paper's evaluation for a single (model, machine) cell.
pub fn compare(args: &Args) -> Result<String, CliError> {
    let mode = metrics_mode(args)?;
    let req = compare_request_from(args)?;
    let outcome = run_compare(&req, &ApiContext::new(), mode != MetricsMode::Off)?;
    if args.switch("json") {
        return body_json(&outcome.response);
    }
    let job = &outcome.job;
    let mut out = format!(
        "{} on {} ({}, microbatch {}, {} microbatches)\n\n",
        job.model().name(),
        job.machine().name(),
        job.schedule(),
        job.microbatch_size(),
        job.microbatches(),
    );
    let cell = |v: Option<f64>| match v {
        Some(t) => format!("{t:8.1}"),
        None => format!("{:>8}", "OOM"),
    };
    for row in &outcome.response.rows {
        match row.gib_per_gpu {
            Some(gib) => {
                let _ = writeln!(
                    out,
                    "  {:<24} {} TFLOPS  ({gib:.1} GiB/GPU, balanced)",
                    row.system,
                    cell(row.tflops),
                );
            }
            None => {
                let _ = writeln!(out, "  {:<24} {} TFLOPS", row.system, cell(row.tflops));
            }
        }
    }
    match mode {
        MetricsMode::Off => Ok(out),
        MetricsMode::Json => telemetry_json(&outcome.telemetry),
        MetricsMode::Table => {
            for (label, t) in &outcome.telemetry {
                let _ = write!(out, "\n[{label}]{}", telemetry_table(t));
            }
            Ok(out)
        }
    }
}

/// `serve`: run the planning daemon until a `shutdown` request arrives.
pub fn serve(args: &Args) -> Result<String, CliError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7077");
    let config = ServeConfig::default()
        .addr(addr)
        .queue_cap(args.usize_or("queue", 64)?)
        .batch_cap(args.usize_or("batch", 8)?);
    let mut handle = mpress_serve::start(config)
        .map_err(|e| CliError::Output(format!("binding {addr}: {e}")))?;
    let bound = handle.addr();
    // Stderr so scripts scraping stdout only see the final summary.
    eprintln!("mpress-serve listening on {bound}");
    handle.wait();
    Ok(format!("mpress-serve stopped on {bound}\n"))
}

/// `client`: send one request to a running daemon and print the `v1`
/// response body as one JSON line.
pub fn client(args: &Args) -> Result<String, CliError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7077");
    let kind = args.get("kind").unwrap_or("plan");
    let request = match kind {
        "plan" => Request::Plan(plan_request_from(args)?),
        "train" => Request::Train(plan_request_from(args)?),
        "check" => Request::Check(plan_request_from(args)?),
        "compare" => Request::Compare(compare_request_from(args)?),
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(CliError::BadFlag(format!(
                "--kind expects plan|train|check|compare|stats|shutdown, got `{other}`"
            )))
        }
    };
    let mut client = Client::connect(addr)
        .map_err(|e| CliError::Output(format!("connecting to {addr}: {e}")))?;
    let decoded = client.request(&request)?;
    let (_, body) = decoded.result?;
    body_json(&body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Args {
        Args::parse(&raw.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn demands_flags_overflow_stages() {
        let out = demands(&args(&["--model", "gpt-10.3b"])).unwrap();
        assert!(out.contains("OVERFLOW"), "{out}");
        assert!(out.contains("fits"), "{out}");
    }

    #[test]
    fn plan_reports_breakdown_for_pressured_job() {
        let out = plan(&args(&["--model", "bert-0.64b", "--microbatches", "8"])).unwrap();
        assert!(out.contains("device map"), "{out}");
        assert!(out.contains("D2D swap"), "{out}");
    }

    #[test]
    fn plan_json_is_the_wire_body() {
        let out = plan(&args(&[
            "--model",
            "bert-0.64b",
            "--microbatches",
            "8",
            "--json",
        ]))
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed.get("v").and_then(serde_json::Value::as_u64), Some(1));
        assert!(parsed.get("device_map").is_some(), "{out}");
        assert!(parsed.get("savings").is_some(), "{out}");
        // Volatile search counters must NOT leak into the wire body.
        assert!(parsed.get("search").is_none(), "{out}");
    }

    #[test]
    fn plan_writes_json_when_asked() {
        let dir = std::env::temp_dir().join("mpress_cli_test_plan.json");
        let path = dir.to_str().unwrap();
        let out = plan(&args(&[
            "--model",
            "bert-0.64b",
            "--microbatches",
            "8",
            "--out",
            path,
        ]))
        .unwrap();
        assert!(out.contains("written"), "{out}");
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("directives"), "{text}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn train_reports_success_for_small_model() {
        let out = train(&args(&["--model", "bert-0.35b", "--microbatches", "8"])).unwrap();
        assert!(out.contains("ok:"), "{out}");
    }

    #[test]
    fn train_reports_oom_for_unaided_run() {
        let out = train(&args(&[
            "--model",
            "gpt-10.3b",
            "--opts",
            "none",
            "--microbatches",
            "8",
        ]))
        .unwrap();
        assert!(out.contains("OUT OF MEMORY"), "{out}");
    }

    #[test]
    fn train_writes_chrome_trace() {
        let path = std::env::temp_dir().join("mpress_cli_test_trace.json");
        let path = path.to_str().unwrap();
        let out = train(&args(&[
            "--model",
            "bert-0.35b",
            "--microbatches",
            "6",
            "--trace",
            path,
        ]))
        .unwrap();
        assert!(out.contains("chrome trace written"), "{out}");
        let text = std::fs::read_to_string(path).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert!(parsed.as_array().unwrap().len() > 100);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn train_charts_render() {
        let out = train(&args(&[
            "--model",
            "bert-0.35b",
            "--microbatches",
            "6",
            "--chart",
            "--gantt",
        ]))
        .unwrap();
        assert!(out.contains("per-device memory"), "{out}");
        assert!(out.contains("execution lanes"), "{out}");
        assert!(out.contains("GPU7"), "{out}");
    }

    #[test]
    fn train_metrics_json_is_a_parseable_document() {
        let out = train(&args(&[
            "--model",
            "bert-0.35b",
            "--microbatches",
            "6",
            "--metrics=json",
        ]))
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(parsed.get("sim").is_some(), "{out}");
        assert!(parsed.get("search").is_some(), "{out}");
    }

    #[test]
    fn train_metrics_table_renders_stall_columns() {
        let out = train(&args(&[
            "--model",
            "bert-0.35b",
            "--microbatches",
            "6",
            "--metrics",
        ]))
        .unwrap();
        assert!(out.contains("ok:"), "{out}");
        assert!(out.contains("telemetry:"), "{out}");
        assert!(out.contains("mem-wait"), "{out}");
    }

    #[test]
    fn metrics_rejects_unknown_mode() {
        let err = train(&args(&["--model", "bert-0.35b", "--metrics=csv"])).unwrap_err();
        assert!(matches!(err, CliError::BadFlag(_)));
        assert!(err.to_string().contains("csv"), "{err}");
    }

    #[test]
    fn compare_lists_every_system() {
        let out = compare(&args(&["--model", "gpt-5.3b", "--microbatches", "8"])).unwrap();
        for label in [
            "plain",
            "gpu-cpu swap",
            "recomputation",
            "mpress",
            "zero-offload",
            "zero-infinity",
            "megatron tp-8",
        ] {
            assert!(out.contains(label), "missing {label} in:\n{out}");
        }
    }

    #[test]
    fn compare_on_commodity_machine_resolves() {
        let out = compare(&args(&[
            "--model",
            "gpt-5.3b",
            "--machine",
            "commodity",
            "--microbatches",
            "8",
        ]))
        .unwrap();
        assert!(out.contains("PCIe-only"), "{out}");
    }

    #[test]
    fn unknown_model_lists_valid_names() {
        let err = demands(&args(&["--model", "gpt-99b"])).unwrap_err();
        assert!(matches!(err, CliError::BadFlag(_)));
        let msg = err.to_string();
        assert!(
            msg.starts_with("unknown model `gpt-99b`; expected one of: bert-0.35b"),
            "{msg}"
        );
        assert!(msg.ends_with("gpt-25.5b"), "{msg}");
    }

    #[test]
    fn client_rejects_unknown_kind() {
        let err = client(&args(&["--kind", "frobnicate"])).unwrap_err();
        assert!(matches!(err, CliError::BadFlag(_)));
        assert!(err.to_string().contains("frobnicate"), "{err}");
    }
}
