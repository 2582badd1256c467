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
//!
//! [`execute`] additionally answers a repeated request from the
//! context's response memo: the first response computed for a canonical
//! request encoding ([`request_key`]) is stored, and every later
//! request with the same encoding gets a clone of it. The `run_*`
//! functions stay the only implementation of each request kind; the
//! memo only decides whether to call them.

use crate::names;
use crate::wire::{
    encode_request_line, CheckResponse, CompareRequest, CompareResponse, CompareRow, PlanRequest,
    PlanResponse, Request, Response, SavingsRow, ServeError, TrainResponse, SCHEMA_VERSION,
};
use mpress::{
    CancelToken, Lru, Mpress, MpressError, OptimizationSet, PlanCache, PlannerConfig,
    TelemetryReport, DEFAULT_PLAN_CAPACITY,
};
use mpress_pipeline::{PipelineJob, ScheduleKind};
use mpress_sim::ArenaPool;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Shared service state: the process-global plan/emulation cache, the
/// simulator arena pool and the response memo.
///
/// The CLI builds a fresh context per invocation (cold cache — exactly
/// the old behaviour); the daemon builds one at startup and routes every
/// request through it, which is what makes cross-request plan reuse,
/// arena recycling and memoized responses possible.
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
    /// First response per canonical request encoding, shared by every
    /// clone of the context.
    responses: Arc<ResponseMemo>,
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

    /// The memoized response for the canonical request encoding `key`
    /// (see [`request_key`]), counted as a memo hit, or `None`, counted
    /// as a miss.
    pub fn remembered(&self, key: &str) -> Option<Response> {
        let found = self.responses.lru().get(key);
        let counter = if found.is_some() {
            &self.responses.hits
        } else {
            &self.responses.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// The response memo's counters.
    pub fn response_stats(&self) -> ResponseMemoStats {
        let memo = &self.responses;
        ResponseMemoStats {
            hits: memo.hits.load(Ordering::Relaxed),
            misses: memo.misses.load(Ordering::Relaxed),
            evictions: memo.evictions.load(Ordering::Relaxed),
            entries: memo.lru().len(),
        }
    }

    /// Stores `response` as the answer to `key` (first writer wins).
    fn remember(&self, key: &str, response: &Response) {
        let evicted = self
            .responses
            .lru()
            .insert(key.to_owned(), response.clone());
        self.responses
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
    }
}

/// The response memo behind [`ApiContext`]: an LRU map from canonical
/// request encoding to the first successful response computed for it,
/// holding as many entries as the plan cache holds plans.
#[derive(Debug)]
struct ResponseMemo {
    lru: Mutex<Lru<String, Response>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

impl Default for ResponseMemo {
    fn default() -> Self {
        ResponseMemo {
            lru: Mutex::new(Lru::new(DEFAULT_PLAN_CAPACITY)),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }
}

impl ResponseMemo {
    /// Locks the map even if a panicking thread poisoned it, as the plan
    /// cache does: every entry is a finished response, and an update cut
    /// short leaves at worst an entry without a current queue stamp,
    /// which only delays its eviction.
    fn lru(&self) -> std::sync::MutexGuard<'_, Lru<String, Response>> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Counter snapshot of an [`ApiContext`]'s response memo. All counts
/// are lifetime totals of the context and its clones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
#[non_exhaustive]
pub struct ResponseMemoStats {
    /// Requests answered with a memoized response.
    pub hits: usize,
    /// Memo lookups that found nothing (the request then ran).
    pub misses: usize,
    /// Responses evicted by the LRU policy.
    pub evictions: usize,
    /// Responses currently resident.
    pub entries: usize,
}

/// The canonical encoding of `req`: its request line with id 0. Equal
/// requests encode equally whatever id their clients gave them, so this
/// is the response memo's key.
pub fn request_key(req: &Request) -> String {
    encode_request_line(0, req)
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

/// Executes one decoded request end to end, wire type to wire type,
/// answering from the context's response memo when an equal request
/// already succeeded on it.
///
/// `Stats` and `Shutdown` are daemon-level concerns (they read server
/// state, not planner state) and are rejected here — the daemon handles
/// them before reaching this function. They never reach the memo.
///
/// # Errors
///
/// Any [`ServeError`] from the underlying `run_*` entry point. Errors
/// are never memoized: a failing request runs again when repeated.
pub fn execute(req: &Request, ctx: &ApiContext) -> Result<Response, ServeError> {
    if matches!(req, Request::Stats | Request::Shutdown) {
        return run_request(req, ctx);
    }
    let key = request_key(req);
    match ctx.remembered(&key) {
        Some(response) => Ok(response),
        None => execute_and_remember(req, &key, ctx),
    }
}

/// The miss path of [`execute`] for a request whose memo lookup under
/// `key` (its [`request_key`]) already missed: runs it and memoizes a
/// successful response. The daemon's workers call this after looking
/// the request up at admission.
///
/// # Errors
///
/// As [`execute`].
pub fn execute_and_remember(
    req: &Request,
    key: &str,
    ctx: &ApiContext,
) -> Result<Response, ServeError> {
    let response = run_request(req, ctx)?;
    ctx.remember(key, &response);
    Ok(response)
}

/// Runs `req` through its `run_*` entry point.
fn run_request(req: &Request, ctx: &ApiContext) -> Result<Response, ServeError> {
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
    fn executor_rejects_daemon_kinds_and_never_memoizes_them() {
        let ctx = ApiContext::new();
        for _ in 0..2 {
            for req in [Request::Stats, Request::Shutdown] {
                assert_eq!(execute(&req, &ctx).unwrap_err().code(), "bad_request");
            }
        }
        assert_eq!(ctx.response_stats(), ResponseMemoStats::default());
    }

    #[test]
    fn repeated_execute_is_answered_from_the_memo() {
        let ctx = ApiContext::new();
        let req = Request::Train(PlanRequest::new("bert-0.35b").microbatches(4));
        let first = execute(&req, &ctx).unwrap();
        let plan_lookups = ctx.cache.stats().plan_misses + ctx.cache.stats().plan_hits;
        let second = execute(&req, &ctx).unwrap();
        assert_eq!(first, second);
        let stats = ctx.response_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // The hit never reached the planner, and a clone of the context
        // shares the memo.
        let cache = ctx.cache.stats();
        assert_eq!(cache.plan_misses + cache.plan_hits, plan_lookups);
        assert_eq!(execute(&req, &ctx.clone()).unwrap(), first);
        assert_eq!(ctx.response_stats().hits, 2);
        // The memoized body is the one a fresh context computes.
        assert_eq!(execute(&req, &ApiContext::new()).unwrap(), first);
    }

    #[test]
    fn errors_are_never_memoized() {
        let ctx = ApiContext::new();
        let req = Request::Plan(PlanRequest::new("gpt-99b"));
        for _ in 0..2 {
            assert_eq!(execute(&req, &ctx).unwrap_err().code(), "bad_request");
        }
        let stats = ctx.response_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 0));
    }

    #[test]
    fn memo_map_evicts_the_stalest_response_at_capacity() {
        let mut lru: Lru<String, Response> = Lru::new(2);
        assert_eq!(lru.insert("a".to_owned(), Response::Shutdown), 0);
        assert_eq!(lru.insert("b".to_owned(), Response::Shutdown), 0);
        // Touch "a" (looked up by `&str`, as the memo does) so "b" is
        // the stalest, then overflow.
        assert_eq!(lru.get("a"), Some(Response::Shutdown));
        assert_eq!(lru.insert("c".to_owned(), Response::Shutdown), 1);
        assert_eq!(lru.get("b"), None);
        assert_eq!(lru.len(), 2);
        assert!(lru.get("a").is_some() && lru.get("c").is_some());
    }
}
