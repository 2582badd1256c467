//! Request execution: the one code path behind the CLI, the daemon and
//! the load generator.
//!
//! Every front end resolves a wire request into a
//! [`PipelineJob`](mpress_pipeline::PipelineJob) and runs it through the
//! same [`Mpress`] facade, sharing one [`ApiContext`] (plan/emulation
//! cache + simulator arena pool). "Same request ⇒ same response" is
//! therefore a single function's determinism, not a cross-binary
//! convention.
//!
//! Each `run_*` entry point returns both the wire response *and* the
//! rich in-process objects (plan, lowered job, telemetry) so the CLI can
//! keep rendering its human-readable tables without replanning.

use crate::names;
use crate::wire::{
    CheckResponse, CompareRequest, CompareResponse, CompareRow, PlanRequest, PlanResponse, Request,
    Response, SavingsRow, ServeError, TrainResponse, SCHEMA_VERSION,
};
use mpress::{
    CancelToken, Mpress, MpressError, OptimizationSet, PlanCache, PlannerConfig, TelemetryReport,
};
use mpress_pipeline::{PipelineJob, ScheduleKind};
use mpress_sim::ArenaPool;
use std::collections::BTreeMap;

/// Shared service state: the process-global plan/emulation cache and the
/// simulator arena pool.
///
/// The CLI builds a fresh context per invocation (cold cache — exactly
/// the old behaviour); the daemon builds one at startup and routes every
/// request through it, which is what makes cross-request plan reuse and
/// arena recycling possible.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct ApiContext {
    /// Process-global plan + emulation-outcome cache.
    pub cache: PlanCache,
    /// Recycled simulator arenas.
    pub arenas: ArenaPool,
    /// Cooperative cancellation for in-flight planning (set by the
    /// daemon so shutdown can abandon queued work).
    pub cancel: Option<CancelToken>,
}

impl ApiContext {
    /// A fresh context with empty caches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a cancellation token honoured by every request executed
    /// through this context.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// The canonical request-name spelling of a schedule.
fn schedule_name(kind: ScheduleKind) -> &'static str {
    match kind {
        ScheduleKind::PipeDream => "pipedream",
        ScheduleKind::Dapple => "dapple",
        ScheduleKind::GPipe => "gpipe",
    }
}

/// A request resolved against the catalogs: the buildable job plus the
/// defaults-applied echo values for the response.
struct ResolvedJob {
    job: PipelineJob,
    schedule: &'static str,
    microbatch: u64,
    microbatches: u64,
}

fn resolve_job(
    model: &str,
    machine: &str,
    schedule: Option<&str>,
    microbatch: Option<u64>,
    microbatches: u64,
) -> Result<ResolvedJob, ServeError> {
    let model = names::model(model)?;
    let machine = names::machine(machine)?;
    let (default_sched, default_mb, precision) = names::paper_defaults(&model);
    let schedule = match schedule {
        Some(s) => names::schedule(s)?,
        None => default_sched,
    };
    let microbatch = microbatch.unwrap_or(default_mb as u64);
    let job = PipelineJob::builder()
        .model(model)
        .machine(machine)
        .schedule(schedule)
        .microbatch_size(microbatch as usize)
        .microbatches(microbatches as usize)
        .precision(precision)
        .build()
        .map_err(|e| ServeError::BadRequest(format!("invalid job: {e}")))?;
    Ok(ResolvedJob {
        job,
        schedule: schedule_name(schedule),
        microbatch,
        microbatches,
    })
}

fn internal(e: MpressError) -> ServeError {
    ServeError::Internal(e.to_string())
}

/// Builds the [`Mpress`] facade for a planning-shaped request, wired to
/// the context's shared cache, arena pool and cancellation token.
fn mpress_for(
    req: &PlanRequest,
    ctx: &ApiContext,
    metrics: bool,
) -> Result<(Mpress, ResolvedJob, OptimizationSet), ServeError> {
    let resolved = resolve_job(
        &req.model,
        &req.machine,
        req.schedule.as_deref(),
        req.microbatch,
        req.microbatches,
    )?;
    let opts = names::optimizations(&req.opts)?;
    let mut builder = Mpress::builder()
        .job(resolved.job.clone())
        .planner_config(PlannerConfig::default().optimizations(opts))
        .metrics(metrics)
        .plan_cache(ctx.cache.clone())
        .arena_pool(ctx.arenas.clone());
    if let Some(token) = &ctx.cancel {
        builder = builder.cancel(token.clone());
    }
    Ok((builder.build(), resolved, opts))
}

/// A `plan` execution: the wire response plus the in-process objects
/// the CLI renders from.
#[derive(Debug)]
#[non_exhaustive]
pub struct PlanOutcome {
    /// The deterministic wire response.
    pub response: PlanResponse,
    /// The full plan (search stats included).
    pub plan: mpress::MpressPlan,
    /// The lowered job the plan applies to.
    pub lowered: mpress_pipeline::LoweredJob,
    /// The configured facade, for follow-up work (charts, re-sims).
    pub mpress: Mpress,
}

/// Executes a `plan` request.
///
/// # Errors
///
/// [`ServeError::BadRequest`] for unresolvable names or invalid jobs,
/// [`ServeError::Internal`] for planner failures.
pub fn run_plan(req: &PlanRequest, ctx: &ApiContext) -> Result<PlanOutcome, ServeError> {
    let (mpress, resolved, _) = mpress_for(req, ctx, false)?;
    let (plan, lowered) = mpress.plan().map_err(internal)?;
    let savings = plan.savings(&lowered);
    let total: f64 = savings.values().map(|b| b.as_f64()).sum();
    let savings_rows = [
        mpress_compaction::Technique::Recompute,
        mpress_compaction::Technique::GpuCpuSwap,
        mpress_compaction::Technique::D2dSwap,
    ]
    .into_iter()
    .map(|tech| {
        let bytes = savings
            .get(&tech)
            .copied()
            .unwrap_or(mpress_hw::Bytes::ZERO);
        SavingsRow {
            technique: tech.to_string(),
            bytes: bytes.as_u64(),
            share_pct: if total > 0.0 {
                100.0 * bytes.as_f64() / total
            } else {
                0.0
            },
        }
    })
    .collect();
    let response = PlanResponse {
        v: SCHEMA_VERSION,
        model: req.model.clone(),
        machine: req.machine.clone(),
        schedule: resolved.schedule.to_owned(),
        microbatch: resolved.microbatch,
        microbatches: resolved.microbatches,
        opts: req.opts.clone(),
        device_map: plan
            .device_map
            .as_slice()
            .iter()
            .map(|d| d.0 as u64)
            .collect(),
        directives: plan.instrumentation.len() as u64,
        refinement_rounds: plan.refinement_rounds as u64,
        savings: savings_rows,
    };
    Ok(PlanOutcome {
        response,
        plan,
        lowered,
        mpress,
    })
}

/// A `train` execution: the wire response plus the full report.
#[derive(Debug)]
#[non_exhaustive]
pub struct TrainOutcome {
    /// The deterministic wire response.
    pub response: TrainResponse,
    /// The full training report (telemetry included when requested).
    pub report: mpress::TrainingReport,
    /// The configured facade, for follow-up work (charts, re-sims).
    pub mpress: Mpress,
}

/// Executes a `train` request. `metrics` additionally captures
/// [`TelemetryReport`] into the returned report (CLI `--metrics`); the
/// wire response never carries it.
///
/// # Errors
///
/// [`ServeError::BadRequest`] for unresolvable names or invalid jobs,
/// [`ServeError::Internal`] for planner/simulator failures.
pub fn run_train(
    req: &PlanRequest,
    ctx: &ApiContext,
    metrics: bool,
) -> Result<TrainOutcome, ServeError> {
    let (mpress, resolved, _) = mpress_for(req, ctx, metrics)?;
    let report = mpress.train().map_err(internal)?;
    let succeeded = report.succeeded();
    let response = TrainResponse {
        v: SCHEMA_VERSION,
        model: req.model.clone(),
        machine: req.machine.clone(),
        schedule: resolved.schedule.to_owned(),
        microbatch: resolved.microbatch,
        microbatches: resolved.microbatches,
        opts: req.opts.clone(),
        succeeded,
        tflops: if succeeded { report.tflops } else { 0.0 },
        throughput: if succeeded { report.throughput } else { 0.0 },
        makespan_s: report.sim.makespan,
        peak_bytes: report.max_device_peak().as_u64(),
        d2d_traffic_bytes: report.sim.d2d_traffic.as_u64(),
        host_traffic_bytes: report.sim.host_traffic.as_u64(),
        nvme_traffic_bytes: report.sim.nvme_traffic.as_u64(),
        recompute_time_s: report.sim.recompute_time,
        oom: report.sim.oom.as_ref().map(|e| e.to_string()),
    };
    Ok(TrainOutcome {
        response,
        report,
        mpress,
    })
}

/// A `check` execution: the wire response plus the full diagnostic
/// report (for the CLI's MP0xx table).
#[derive(Debug)]
#[non_exhaustive]
pub struct CheckOutcome {
    /// The deterministic wire response.
    pub response: CheckResponse,
    /// The full static-verifier report.
    pub report: mpress_analyze::Report,
    /// Certified residency/makespan intervals for the checked plan.
    pub bounds: mpress_analyze::PlanBounds,
    /// The checked plan.
    pub plan: mpress::MpressPlan,
    /// The lowered job the plan applies to.
    pub lowered: mpress_pipeline::LoweredJob,
}

/// Executes a `check` request: plan, then static verification only.
///
/// # Errors
///
/// [`ServeError::BadRequest`] for unresolvable names or invalid jobs,
/// [`ServeError::Internal`] for planner failures. Diagnostics are *not*
/// errors at this layer — the response reports their counts.
pub fn run_check(req: &PlanRequest, ctx: &ApiContext) -> Result<CheckOutcome, ServeError> {
    let (mpress, _, _) = mpress_for(req, ctx, false)?;
    let (plan, lowered) = mpress.plan().map_err(internal)?;
    let verifier = mpress_analyze::PlanVerifier::new(mpress.machine(), &lowered.graph);
    let report = verifier.verify(&plan.instrumentation, &plan.device_map);
    let bounds = ctx
        .arenas
        .with(|arena| verifier.certify_with_arena(&plan.instrumentation, &plan.device_map, arena));
    let response = CheckResponse {
        v: SCHEMA_VERSION,
        model: req.model.clone(),
        machine: req.machine.clone(),
        directives: plan.instrumentation.len() as u64,
        stages: lowered.graph.n_stages() as u64,
        clean: report.is_clean(),
        errors: report.error_count() as u64,
        summary: report.summary(),
        bounds_verdict: bounds.residency.verdict.as_str().to_owned(),
        makespan_lo_s: bounds.makespan_lo,
        makespan_hi_s: bounds.makespan_hi,
        residency_lo_bytes: bounds.residency.lo.iter().map(|b| b.as_u64()).collect(),
        residency_hi_bytes: bounds.residency.hi.iter().map(|b| b.as_u64()).collect(),
    };
    Ok(CheckOutcome {
        response,
        bounds,
        report,
        plan,
        lowered,
    })
}

/// A `compare` execution: the wire response plus per-system telemetry
/// (only populated when requested; analytic baselines never have any).
#[derive(Debug)]
#[non_exhaustive]
pub struct CompareOutcome {
    /// The deterministic wire response.
    pub response: CompareResponse,
    /// Telemetry per simulated system, keyed by its row label.
    pub telemetry: BTreeMap<String, TelemetryReport>,
    /// The resolved job (for front ends rendering job headers).
    pub job: PipelineJob,
}

/// Executes a `compare` request: the full Figs. 7/8 system menu on one
/// job, in fixed row order.
///
/// # Errors
///
/// [`ServeError::BadRequest`] for unresolvable names or invalid jobs,
/// [`ServeError::Internal`] for planner/simulator failures.
pub fn run_compare(
    req: &CompareRequest,
    ctx: &ApiContext,
    metrics: bool,
) -> Result<CompareOutcome, ServeError> {
    use mpress_baselines::{MegatronBaseline, ZeroBaseline, ZeroVariant};

    let resolved = resolve_job(
        &req.model,
        &req.machine,
        req.schedule.as_deref(),
        req.microbatch,
        req.microbatches,
    )?;
    let job = resolved.job;
    let mut telemetry: BTreeMap<String, TelemetryReport> = BTreeMap::new();
    let mut rows = Vec::new();

    let builder_for = |opts: OptimizationSet| {
        let mut b = Mpress::builder()
            .job(job.clone())
            .optimizations(opts)
            .metrics(metrics)
            .plan_cache(ctx.cache.clone())
            .arena_pool(ctx.arenas.clone());
        if let Some(token) = &ctx.cancel {
            b = b.cancel(token.clone());
        }
        b.build()
    };

    let plain = builder_for(OptimizationSet::none())
        .train_unmodified()
        .map_err(internal)?;
    let plain_label = format!("plain {}", job.schedule());
    rows.push(CompareRow {
        system: plain_label.clone(),
        tflops: plain.succeeded().then_some(plain.tflops),
        fits: plain.succeeded(),
        gib_per_gpu: None,
    });
    if let Some(t) = plain.metrics {
        telemetry.insert(plain_label, t);
    }

    for (label, opts) in [
        ("gpu-cpu swap", OptimizationSet::host_swap_only()),
        ("recomputation", OptimizationSet::recompute_only()),
        ("mpress (d2d only)", OptimizationSet::d2d_only()),
        ("mpress", OptimizationSet::all()),
    ] {
        let r = builder_for(opts).train().map_err(internal)?;
        rows.push(CompareRow {
            system: label.to_owned(),
            tflops: r.succeeded().then_some(r.tflops),
            fits: r.succeeded(),
            gib_per_gpu: None,
        });
        if let Some(t) = r.metrics {
            telemetry.insert(label.to_owned(), t);
        }
    }

    for variant in [ZeroVariant::Offload, ZeroVariant::Infinity] {
        let r = ZeroBaseline::new(job.machine().clone(), job.model().clone(), variant)
            .microbatch_size(job.microbatch_size())
            .accumulation((job.microbatches() / job.machine().gpu_count()).max(1))
            .report();
        rows.push(CompareRow {
            system: variant.to_string().to_lowercase(),
            tflops: r.fits.then_some(r.tflops),
            fits: r.fits,
            gib_per_gpu: None,
        });
    }
    let mega = MegatronBaseline::new(job.machine().clone(), job.model().clone())
        .microbatch_size(job.microbatch_size())
        .microbatches(job.microbatches())
        .report();
    rows.push(CompareRow {
        system: "megatron tp-8".to_owned(),
        tflops: mega.fits.then_some(mega.tflops),
        fits: mega.fits,
        gib_per_gpu: Some(mega.gpu_bytes.as_gib_f64()),
    });

    let response = CompareResponse {
        v: SCHEMA_VERSION,
        model: req.model.clone(),
        machine: req.machine.clone(),
        schedule: resolved.schedule.to_owned(),
        microbatch: resolved.microbatch,
        microbatches: resolved.microbatches,
        rows,
    };
    Ok(CompareOutcome {
        response,
        telemetry,
        job,
    })
}

/// Executes one decoded request end to end, wire type to wire type.
///
/// `Stats` and `Shutdown` are daemon-level concerns (they read server
/// state, not planner state) and are rejected here — the daemon handles
/// them before reaching this function.
///
/// # Errors
///
/// Any [`ServeError`] from the underlying `run_*` entry point.
pub fn execute(req: &Request, ctx: &ApiContext) -> Result<Response, ServeError> {
    match req {
        Request::Plan(r) => Ok(Response::Plan(run_plan(r, ctx)?.response)),
        Request::Train(r) => Ok(Response::Train(run_train(r, ctx, false)?.response)),
        Request::Check(r) => Ok(Response::Check(run_check(r, ctx)?.response)),
        Request::Compare(r) => Ok(Response::Compare(run_compare(r, ctx, false)?.response)),
        Request::Stats | Request::Shutdown => Err(ServeError::BadRequest(format!(
            "`{}` is handled by the server, not the executor",
            req.kind()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_response_is_reproducible_and_cache_backed() {
        let ctx = ApiContext::new();
        let req = PlanRequest::new("bert-0.64b").microbatches(8);
        let first = run_plan(&req, &ctx).unwrap().response;
        let second = run_plan(&req, &ctx).unwrap().response;
        assert_eq!(first, second);
        assert!(ctx.cache.stats().plan_hits >= 1, "second run should hit");
        assert_eq!(first.schedule, "pipedream");
        assert_eq!(first.device_map.len(), 8);
    }

    #[test]
    fn bad_names_become_bad_requests() {
        let ctx = ApiContext::new();
        let err = run_plan(&PlanRequest::new("gpt-99b"), &ctx).unwrap_err();
        assert_eq!(err.code(), "bad_request");
        let err = run_plan(&PlanRequest::new("bert-0.64b").machine("dgx9"), &ctx).unwrap_err();
        assert_eq!(err.code(), "bad_request");
    }

    #[test]
    fn check_reports_clean_plan() {
        let ctx = ApiContext::new();
        let req = PlanRequest::new("bert-0.64b").microbatches(8);
        let outcome = run_check(&req, &ctx).unwrap();
        assert!(outcome.response.clean, "{}", outcome.response.summary);
        assert_eq!(outcome.response.stages, 8);
        // The bounds pass rode along: intervals are populated per GPU
        // and ordered, and the verdict echoes the typed enum.
        assert_eq!(outcome.response.residency_lo_bytes.len(), 8);
        assert_eq!(outcome.response.residency_hi_bytes.len(), 8);
        for (lo, hi) in outcome
            .response
            .residency_lo_bytes
            .iter()
            .zip(&outcome.response.residency_hi_bytes)
        {
            assert!(lo <= hi, "residency interval inverted: {lo} > {hi}");
        }
        assert!(outcome.response.makespan_lo_s > 0.0);
        assert!(outcome.response.makespan_hi_s >= outcome.response.makespan_lo_s);
        assert_eq!(
            outcome.response.bounds_verdict,
            outcome.bounds.residency.verdict.as_str()
        );
        assert_ne!(outcome.response.bounds_verdict, "certified-oom");
        // One analyzer serves the verdict and the bounds: the same
        // bounds the one-shot `certify_plan` computes.
        let one_shot = ctx.arenas.with(|arena| {
            mpress_analyze::certify_plan(
                &mpress_hw::Machine::dgx1(),
                &outcome.lowered.graph,
                &outcome.plan.instrumentation,
                &outcome.plan.device_map,
                arena,
            )
        });
        assert_eq!(outcome.bounds, one_shot);
    }

    #[test]
    fn executor_rejects_daemon_kinds() {
        let ctx = ApiContext::new();
        assert_eq!(
            execute(&Request::Stats, &ctx).unwrap_err().code(),
            "bad_request"
        );
        assert_eq!(
            execute(&Request::Shutdown, &ctx).unwrap_err().code(),
            "bad_request"
        );
    }
}
