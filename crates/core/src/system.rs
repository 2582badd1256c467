//! The MPress system facade: configure, plan, train.

use crate::cache::{CancelToken, PlanCache};
use crate::planner::{MpressPlan, Planner, PlannerConfig};
use crate::telemetry::TelemetryReport;
use mpress_graph::GraphError;
use mpress_hw::{Bytes, Machine};
use mpress_pipeline::{LoweredJob, PipelineJob};
use mpress_sim::{ArenaPool, DeviceMap, SimConfig, SimError, SimReport, Simulator};

pub use crate::planner::OptimizationSet;

use crate::planner::{fnv as fnv_u64, FNV_SEED};

/// Folds a string into the digest byte-by-byte (length-prefixed so
/// `"ab" + "c"` and `"a" + "bc"` cannot collide).
fn fnv_str(h: u64, s: &str) -> u64 {
    let mut h = fnv_u64(h, s.len() as u64);
    for b in s.bytes() {
        h = fnv_u64(h, u64::from(b));
    }
    h
}

/// Errors the facade can raise.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm so
/// new error kinds can be added compatibly.
#[derive(Debug)]
#[non_exhaustive]
pub enum MpressError {
    /// The job could not be lowered into a dataflow graph.
    Lowering(GraphError),
    /// The simulator rejected its inputs or deadlocked.
    Simulation(SimError),
    /// No job was configured.
    MissingJob,
}

impl std::fmt::Display for MpressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpressError::Lowering(e) => write!(f, "lowering failed: {e}"),
            MpressError::Simulation(e) => write!(f, "simulation failed: {e}"),
            MpressError::MissingJob => write!(f, "no pipeline job configured"),
        }
    }
}

impl std::error::Error for MpressError {}

impl From<GraphError> for MpressError {
    fn from(e: GraphError) -> Self {
        MpressError::Lowering(e)
    }
}

impl From<SimError> for MpressError {
    fn from(e: SimError) -> Self {
        MpressError::Simulation(e)
    }
}

/// The outcome of one planned-and-simulated training window.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// The plan that was executed.
    pub plan: MpressPlan,
    /// The instrumented simulation.
    pub sim: SimReport,
    /// Samples per second.
    pub throughput: f64,
    /// Achieved model TFLOPS (the paper's Figs. 7-8 metric).
    pub tflops: f64,
    /// Structured telemetry when the system was built with
    /// [`MpressBuilder::metrics`].
    pub metrics: Option<TelemetryReport>,
}

impl TrainingReport {
    /// Whether training fit in memory.
    pub fn succeeded(&self) -> bool {
        self.sim.oom.is_none()
    }

    /// Largest per-device memory peak.
    pub fn max_device_peak(&self) -> Bytes {
        self.sim.max_device_peak()
    }
}

/// The MPress system: a pipeline job plus a planner configuration.
///
/// # Example
///
/// ```no_run
/// use mpress::{Mpress, OptimizationSet};
/// use mpress_pipeline::PipelineJob;
/// use mpress_model::zoo;
///
/// let job = PipelineJob::builder().model(zoo::bert_1_67b()).build()?;
/// let mpress = Mpress::builder()
///     .job(job)
///     .optimizations(OptimizationSet::all())
///     .build();
/// let report = mpress.train()?;
/// assert!(report.succeeded());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Mpress {
    job: PipelineJob,
    planner_config: PlannerConfig,
    metrics: bool,
    plan_cache: Option<PlanCache>,
    arena_pool: Option<ArenaPool>,
    cancel: Option<CancelToken>,
}

impl Mpress {
    /// Starts configuring an MPress instance.
    pub fn builder() -> MpressBuilder {
        MpressBuilder::default()
    }

    /// The configured job.
    pub fn job(&self) -> &PipelineJob {
        &self.job
    }

    /// The machine the job runs on.
    pub fn machine(&self) -> &Machine {
        self.job.machine()
    }

    /// The planner configuration.
    pub fn planner_config(&self) -> &PlannerConfig {
        &self.planner_config
    }

    /// Lowers the job and produces a memory-saving plan.
    ///
    /// # Errors
    ///
    /// Returns [`MpressError`] when lowering or the planner's emulator
    /// runs fail.
    pub fn plan(&self) -> Result<(MpressPlan, LoweredJob), MpressError> {
        let lowered = self.job.lower()?;
        let digest = self.plan_digest(&lowered);
        if let Some(cache) = &self.plan_cache {
            if let Some(plan) = cache.plan_lookup(digest) {
                return Ok((plan, lowered));
            }
        }
        let mut planner = Planner::new(self.machine(), &self.job, &lowered, self.planner_config);
        if let Some(cache) = &self.plan_cache {
            planner = planner.with_shared_cache(cache.clone(), self.job_scope(&lowered));
        }
        if let Some(pool) = &self.arena_pool {
            planner = planner.with_arena_pool(pool.clone());
        }
        if let Some(token) = &self.cancel {
            planner = planner.with_cancel(token.clone());
        }
        let plan = planner.plan()?;
        if let Some(cache) = &self.plan_cache {
            cache.plan_insert(digest, &plan);
        }
        Ok((plan, lowered))
    }

    /// Structural fingerprint of the *job* as the emulator sees it: the
    /// lowered graph content plus the machine identity. Two `Mpress`
    /// instances with equal scopes run byte-identical simulator windows
    /// for equal candidate plans, so this scopes shared emulation
    /// outcomes in a [`PlanCache`] (planner configuration deliberately
    /// excluded — outcomes do not depend on it).
    pub fn job_scope(&self, lowered: &LoweredJob) -> u64 {
        let mut h = fnv_u64(FNV_SEED, mpress_sim::graph_fingerprint(&lowered.graph));
        h = fnv_str(h, self.machine().name());
        h = fnv_u64(h, self.machine().gpu_count() as u64);
        h = fnv_u64(h, self.machine().gpu().usable_memory().as_u64());
        h = fnv_u64(h, self.machine().cpu().memory.as_u64());
        h = fnv_u64(h, u64::from(self.machine().nvme().is_some()));
        h
    }

    /// Canonical digest of one *planning request*: the job scope plus
    /// every [`PlannerConfig`] field that can steer the search. Equal
    /// digests are guaranteed to produce byte-identical plans (planning
    /// is deterministic), which is exactly the key a process-global
    /// plan cache needs.
    pub fn plan_digest(&self, lowered: &LoweredJob) -> u64 {
        let c = &self.planner_config;
        let mut h = self.job_scope(lowered);
        h = fnv_u64(h, u64::from(c.optimizations.recompute));
        h = fnv_u64(h, u64::from(c.optimizations.host_swap));
        h = fnv_u64(h, u64::from(c.optimizations.d2d));
        h = fnv_u64(h, c.headroom.to_bits());
        h = fnv_u64(h, c.refine_iters as u64);
        h = fnv_u64(h, u64::from(c.striping));
        h = fnv_u64(h, u64::from(c.mapping_search));
        h = fnv_u64(h, u64::from(c.exhaustive_swap));
        // Reference mode is outcome-transparent (the test suite pins
        // plan identity against it), so it is deliberately not part of
        // the digest: a reference plan answers a default request, and
        // vice versa.
        h
    }

    /// Plans, then simulates the instrumented training window.
    ///
    /// # Errors
    ///
    /// Returns [`MpressError`] on inconsistent inputs. Out-of-memory is a
    /// *result*, not an error: check [`TrainingReport::succeeded`].
    pub fn train(&self) -> Result<TrainingReport, MpressError> {
        let (plan, lowered) = self.plan()?;
        self.simulate(&plan, &lowered)
    }

    /// Simulates a (possibly externally supplied) plan.
    ///
    /// # Errors
    ///
    /// Returns [`MpressError::Simulation`] on invalid plans.
    pub fn simulate(
        &self,
        plan: &MpressPlan,
        lowered: &LoweredJob,
    ) -> Result<TrainingReport, MpressError> {
        let report = Simulator::new(
            self.machine(),
            &lowered.graph,
            &plan.instrumentation,
            plan.device_map.clone(),
        )
        .with_config(SimConfig::default().metrics(self.metrics))
        .run()?;
        // A job that overflows immediately never processes a sample.
        let (throughput, tflops) = if report.makespan > 0.0 && report.oom.is_none() {
            (
                report.throughput(self.job.window_samples()),
                report.achieved_tflops(self.job.window_flops()),
            )
        } else {
            (0.0, 0.0)
        };
        let metrics = self.metrics.then(|| TelemetryReport {
            sim: report.metrics.clone(),
            search: plan.search,
            refine_candidates: plan.refine_candidates.clone(),
        });
        Ok(TrainingReport {
            plan: plan.clone(),
            sim: report,
            throughput,
            tflops,
            metrics,
        })
    }

    /// Simulates the *uninstrumented* job with an identity mapping — the
    /// unmodified PipeDream/DAPPLE baseline.
    ///
    /// # Errors
    ///
    /// Returns [`MpressError`] on lowering or simulator-input failures.
    pub fn train_unmodified(&self) -> Result<TrainingReport, MpressError> {
        let lowered = self.job.lower()?;
        let plan = MpressPlan {
            device_map: DeviceMap::identity(lowered.graph.n_stages()),
            instrumentation: mpress_compaction::InstrumentationPlan::new(),
            spare: crate::mapping::SpareAssignment {
                per_stage: vec![Vec::new(); lowered.graph.n_stages()],
            },
            refinement_rounds: 0,
            search: crate::planner::SearchStats::default(),
            refine_candidates: Vec::new(),
            baseline: SimReport {
                makespan: 0.0,
                op_start: Vec::new(),
                op_end: Vec::new(),
                device_peak: Vec::new(),
                host_peak: Bytes::ZERO,
                nvme_peak: Bytes::ZERO,
                oom: None,
                d2d_traffic: Bytes::ZERO,
                host_traffic: Bytes::ZERO,
                nvme_traffic: Bytes::ZERO,
                recompute_time: 0.0,
                timelines: None,
                trace: None,
                metrics: None,
            },
        };
        self.simulate(&plan, &lowered)
    }
}

/// Builder for [`Mpress`].
#[derive(Debug, Default)]
pub struct MpressBuilder {
    job: Option<PipelineJob>,
    planner_config: Option<PlannerConfig>,
    optimizations: Option<OptimizationSet>,
    headroom: Option<f64>,
    refine_iters: Option<usize>,
    striping: Option<bool>,
    mapping_search: Option<bool>,
    metrics: bool,
    plan_cache: Option<PlanCache>,
    arena_pool: Option<ArenaPool>,
    cancel: Option<CancelToken>,
}

impl MpressBuilder {
    /// Sets the pipeline job (required).
    pub fn job(mut self, job: PipelineJob) -> Self {
        self.job = Some(job);
        self
    }

    /// Replaces the whole planner configuration.
    pub fn planner_config(mut self, config: PlannerConfig) -> Self {
        self.planner_config = Some(config);
        self
    }

    /// Selects the allowed techniques.
    pub fn optimizations(mut self, opts: OptimizationSet) -> Self {
        self.optimizations = Some(opts);
        self
    }

    /// Sets the workspace headroom fraction.
    pub fn headroom(mut self, headroom: f64) -> Self {
        self.headroom = Some(headroom);
        self
    }

    /// Caps emulator-verified refinement rounds.
    pub fn refine_iters(mut self, iters: usize) -> Self {
        self.refine_iters = Some(iters);
        self
    }

    /// Toggles D2D data striping (Fig. 9 ablation).
    pub fn striping(mut self, on: bool) -> Self {
        self.striping = Some(on);
        self
    }

    /// Toggles the device-mapping search (Fig. 9 ablation).
    pub fn mapping_search(mut self, on: bool) -> Self {
        self.mapping_search = Some(on);
        self
    }

    /// Collects structured telemetry ([`TrainingReport::metrics`]) during
    /// `train`/`simulate`. Off by default — disabled runs skip all metric
    /// assembly and their reports are byte-identical to pre-metrics runs.
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Attaches a process-global [`PlanCache`]: [`Mpress::plan`] first
    /// consults it by [`Mpress::plan_digest`] (a hit returns the cached
    /// plan without a search), and cache-backed searches share emulation
    /// outcomes across planner instances. Plans are deterministic, so
    /// cached and freshly planned results are byte-identical — the cache
    /// only changes who pays for the simulator windows.
    pub fn plan_cache(mut self, cache: PlanCache) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Shares a simulation [`ArenaPool`] across `Mpress` instances so
    /// emulator windows reuse prebuilt graph tables process-wide.
    pub fn arena_pool(mut self, pool: ArenaPool) -> Self {
        self.arena_pool = Some(pool);
        self
    }

    /// Attaches a cancellation budget ([`CancelToken`]): planner
    /// searches charge it per simulator window and abort with
    /// [`SimError::Cancelled`] (wrapped in [`MpressError::Simulation`])
    /// once it trips.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Finishes the system.
    ///
    /// # Panics
    ///
    /// Panics when the required `job` was never supplied — the one
    /// invariant [`MpressBuilder::try_build`] checks. Use `try_build` to
    /// handle the violation as a value instead.
    pub fn build(self) -> Mpress {
        self.try_build()
            .expect("MpressBuilder invariant violated: a pipeline job must be set via .job(...) before build()")
    }

    /// Fallible build.
    ///
    /// # Errors
    ///
    /// Returns [`MpressError::MissingJob`] when no job was set.
    pub fn try_build(self) -> Result<Mpress, MpressError> {
        let job = self.job.ok_or(MpressError::MissingJob)?;
        let mut config = self.planner_config.unwrap_or_default();
        if let Some(opts) = self.optimizations {
            config.optimizations = opts;
        }
        if let Some(h) = self.headroom {
            config.headroom = h;
        }
        if let Some(r) = self.refine_iters {
            config.refine_iters = r;
        }
        if let Some(s) = self.striping {
            config.striping = s;
        }
        if let Some(m) = self.mapping_search {
            config.mapping_search = m;
        }
        Ok(Mpress {
            job,
            planner_config: config,
            metrics: self.metrics,
            plan_cache: self.plan_cache,
            arena_pool: self.arena_pool,
            cancel: self.cancel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpress_model::{ModelFamily, PrecisionPolicy, TransformerConfig};
    use mpress_pipeline::ScheduleKind;

    fn job(layers: usize, hidden: usize) -> PipelineJob {
        PipelineJob::builder()
            .model(
                TransformerConfig::builder(ModelFamily::Gpt)
                    .layers(layers)
                    .hidden(hidden)
                    .seq_len(512)
                    .build(),
            )
            .schedule(ScheduleKind::Dapple)
            .stages(8)
            .microbatch_size(2)
            .microbatches(8)
            .precision(PrecisionPolicy::mixed())
            .build()
            .unwrap()
    }

    #[test]
    fn missing_job_errors() {
        assert!(matches!(
            Mpress::builder().try_build(),
            Err(MpressError::MissingJob)
        ));
    }

    #[test]
    fn small_model_trains_without_directives() {
        let m = Mpress::builder().job(job(16, 1024)).build();
        let report = m.train().unwrap();
        assert!(report.succeeded());
        assert!(report.plan.instrumentation.is_empty());
        assert!(report.tflops > 0.0);
    }

    #[test]
    fn baseline_equals_mpress_when_memory_suffices() {
        // Paper Fig. 7 "small size": all systems report identical numbers.
        let m = Mpress::builder().job(job(16, 1024)).build();
        let mpress = m.train().unwrap();
        let plain = m.train_unmodified().unwrap();
        assert!((mpress.throughput - plain.throughput).abs() / plain.throughput < 1e-9);
    }

    #[test]
    fn builder_overrides_apply() {
        let m = Mpress::builder()
            .job(job(8, 512))
            .optimizations(OptimizationSet::recompute_only())
            .headroom(0.1)
            .refine_iters(3)
            .striping(false)
            .mapping_search(false)
            .build();
        let c = m.planner_config();
        assert_eq!(c.optimizations, OptimizationSet::recompute_only());
        assert_eq!(c.headroom, 0.1);
        assert_eq!(c.refine_iters, 3);
        assert!(!c.striping);
        assert!(!c.mapping_search);
    }
}
