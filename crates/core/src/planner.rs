//! The memory-compaction planner (paper §III-D).
//!
//! The search follows the paper's approximation:
//!
//! 1. **Live-interval analysis** (via the [`Profile`]) yields per-class
//!    sizes, intervals and layer times.
//! 2. **Initial assignment**: GPU-CPU swap goes to tensors with extremely
//!    long live intervals (weight stashes, optimizer states);
//!    recomputation goes to activations whose re-execution latency beats
//!    the exposed GPU-CPU swap cost; more GPU-CPU swap fills the gap to
//!    the memory target.
//! 3. **D2D coverage + iterative refinement**: leftover overflow and the
//!    assignments imposing the most overhead are re-tried as D2D swaps
//!    while spare peer memory lasts; refinement candidates are verified by
//!    an *emulator* run (one simulated window) and kept only when they
//!    visibly improve training time.

use crate::cache::{CancelToken, PlanCache};
use crate::mapping::{MappingSearch, SpareAssignment};
use crate::profiler::{Profile, TensorClass};
use mpress_analyze::{BoundsAnalyzer, BoundsVerdict, PlanVerifier};
use mpress_compaction::{
    CostModel, HostTier, InstrumentationPlan, MemoryDirective, StripePlan, Technique,
};
use mpress_hw::{Bytes, DeviceId, Machine, Secs};
use mpress_pipeline::{LoweredJob, PipelineJob};
use mpress_sim::{ArenaPool, DeviceMap, OomEvent, SimError, SimOutcome, SimReport, Simulator};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Which techniques the planner may use. Disabling subsets yields the
/// paper's baselines (recomputation-only, GPU-CPU-swap-only, D2D-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptimizationSet {
    /// Allow recomputation.
    pub recompute: bool,
    /// Allow GPU-CPU (PCIe) swap.
    pub host_swap: bool,
    /// Allow D2D (NVLink) swap.
    pub d2d: bool,
}

impl OptimizationSet {
    /// Everything on — full MPress.
    pub fn all() -> Self {
        OptimizationSet {
            recompute: true,
            host_swap: true,
            d2d: true,
        }
    }

    /// Nothing on — the unmodified host system.
    pub fn none() -> Self {
        OptimizationSet {
            recompute: false,
            host_swap: false,
            d2d: false,
        }
    }

    /// The recomputation baseline of Figs. 7-8.
    pub fn recompute_only() -> Self {
        OptimizationSet {
            recompute: true,
            host_swap: false,
            d2d: false,
        }
    }

    /// The GPU-CPU swap baseline of Fig. 7.
    pub fn host_swap_only() -> Self {
        OptimizationSet {
            recompute: false,
            host_swap: true,
            d2d: false,
        }
    }

    /// The stand-alone D2D variant of Fig. 7 ("MPress (D2D)").
    pub fn d2d_only() -> Self {
        OptimizationSet {
            recompute: false,
            host_swap: false,
            d2d: true,
        }
    }
}

/// Planner tunables.
///
/// Marked `#[non_exhaustive]`: start from [`PlannerConfig::default`] and
/// override fields so new tunables can be added without breaking
/// downstream crates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct PlannerConfig {
    /// Which techniques may be used.
    pub optimizations: OptimizationSet,
    /// Fraction of GPU memory reserved for workspace/fragmentation.
    pub headroom: f64,
    /// Maximum emulator-verified refinement steps.
    pub refine_iters: usize,
    /// Per-peer data striping (Fig. 9 ablation: off sends whole tensors to
    /// the single widest donor).
    pub striping: bool,
    /// Device-mapping search (Fig. 9 ablation: off keeps the identity
    /// map).
    pub mapping_search: bool,
    /// Naive baseline behavior: swap *every* eligible tensor of an
    /// overflowing stage instead of just enough to fit (how vDNN-style
    /// GPU-CPU swap systems behave — the paper's Fig. 7 baseline).
    pub exhaustive_swap: bool,
    /// Reference mode: every sound search shortcut off. The certified-
    /// bounds prune and bound-and-abort emulation only skip candidates
    /// `metric_better` could never accept, so a reference search chooses
    /// the default search's plan byte-for-byte, paying a full emulator
    /// window per candidate. Set only through
    /// [`PlannerConfig::reference`]; tests compare against it.
    reference: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            optimizations: OptimizationSet::all(),
            headroom: 0.04,
            refine_iters: 48,
            striping: true,
            mapping_search: true,
            exhaustive_swap: false,
            reference: false,
        }
    }
}

impl PlannerConfig {
    /// The default configuration in reference mode: no certified-bounds
    /// prune and no bound-and-abort, so every candidate that reaches
    /// the emulator runs a full window. Chooses the same plan as
    /// [`PlannerConfig::default`]; only the search counters differ.
    pub fn reference() -> Self {
        PlannerConfig {
            reference: true,
            ..PlannerConfig::default()
        }
    }
}

/// Chainable setters, mirroring [`SimConfig`](mpress_sim::SimConfig):
/// start from `PlannerConfig::default()` and override fields in place.
/// (The fields stay `pub`, so struct-update assignment keeps working.)
impl PlannerConfig {
    /// Sets the allowed techniques.
    pub fn optimizations(mut self, opts: OptimizationSet) -> Self {
        self.optimizations = opts;
        self
    }

    /// Sets the workspace headroom fraction.
    pub fn headroom(mut self, headroom: f64) -> Self {
        self.headroom = headroom;
        self
    }

    /// Caps emulator-verified refinement rounds.
    pub fn refine_iters(mut self, iters: usize) -> Self {
        self.refine_iters = iters;
        self
    }

    /// Toggles D2D data striping (Fig. 9 ablation).
    pub fn striping(mut self, on: bool) -> Self {
        self.striping = on;
        self
    }

    /// Toggles the device-mapping search (Fig. 9 ablation).
    pub fn mapping_search(mut self, on: bool) -> Self {
        self.mapping_search = on;
        self
    }

    /// Toggles naive exhaustive-swap baseline behavior.
    pub fn exhaustive_swap(mut self, on: bool) -> Self {
        self.exhaustive_swap = on;
        self
    }
}

/// Counters describing one planner search: how much emulator work ran,
/// how much the memoization cache absorbed, and how many workers the
/// portfolio ran on. Surfaced through `Insights`/CLI output so speedups are
/// observable, not just asserted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Simulator windows actually executed on behalf of `emulate()`.
    pub emulator_runs: usize,
    /// `emulate()` calls answered from the memoization cache.
    pub cache_hits: usize,
    /// Candidates rejected by the static plan verifier before emulation.
    /// Zero on every planner-driven search: the planner only emits
    /// structurally valid plans.
    pub verifier_rejections: usize,
    /// Worker count the parallel sections resolved to.
    pub jobs: usize,
    /// Peak concurrently-busy workers observed in the process so far.
    pub peak_workers: usize,
    /// Always 0: the canonical (device-permutation) cache view was
    /// removed. Kept only because the repo benchmark (`perfbench`)
    /// still reads it.
    pub cache_hits_canonical: usize,
    /// Always 0: incremental (delta) re-emulation was removed. Kept
    /// only because the repo benchmark (`perfbench`) still reads it.
    pub delta_replays: usize,
    /// Always 0; kept only because the repo benchmark still reads it
    /// (see [`SearchStats::delta_replays`]).
    pub windows_replayed: usize,
    /// Always 0; kept only because the repo benchmark still reads it
    /// (see [`SearchStats::delta_replays`]).
    pub windows_total: usize,
    /// Candidates the certified-bounds gate pruned without emulation:
    /// certified-OOM residency (MP013) or a certified makespan lower
    /// bound that cannot even tie the incumbent. Zero in reference
    /// mode ([`PlannerConfig::reference`]).
    pub bounds_pruned: usize,
    /// Always 0: speculative frontier evaluation was removed. Kept only
    /// because the repo benchmark (`perfbench`) still reads it.
    pub steals: usize,
    /// Always 0; kept only because the repo benchmark still reads it
    /// (see [`SearchStats::steals`]).
    pub speculative_runs: usize,
    /// Always 0; kept only because the repo benchmark still reads it
    /// (see [`SearchStats::steals`]).
    pub speculation_wasted: usize,
    /// Emulator windows aborted by the bound-and-abort gate: the
    /// simulated clock passed `incumbent * 1.001` mid-window, proving
    /// the candidate lost without finishing it. Zero in reference mode
    /// ([`PlannerConfig::reference`]).
    pub bound_aborts: usize,
}

impl SearchStats {
    /// Total `emulate()` calls (cached + executed).
    pub fn emulate_calls(&self) -> usize {
        self.emulator_runs + self.cache_hits
    }

    /// Fraction of `emulate()` calls served from cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let calls = self.emulate_calls();
        if calls == 0 {
            0.0
        } else {
            self.cache_hits as f64 / calls as f64
        }
    }
}

/// The planner's output.
#[derive(Debug, Clone)]
pub struct MpressPlan {
    /// The stage→device permutation.
    pub device_map: DeviceMap,
    /// Per-tensor directives.
    pub instrumentation: InstrumentationPlan,
    /// Donor budgets the D2D assignment drew from.
    pub spare: SpareAssignment,
    /// Emulator-verified refinement rounds executed.
    pub refinement_rounds: usize,
    /// The profiling baseline (uninstrumented timings and peaks).
    pub baseline: SimReport,
    /// Emulator/cache/pool counters for this search.
    pub search: SearchStats,
    /// Candidates adjudicated per frontier commit window, in commit
    /// order (one trailing entry for candidates after the last commit,
    /// then the portfolio checks). Feasibility iterations are not
    /// included, so the sum is at most `refinement_rounds`.
    pub refine_candidates: Vec<usize>,
}

impl MpressPlan {
    /// Technique → bytes saved, as in the paper's Table IV.
    pub fn savings(&self, lowered: &LoweredJob) -> std::collections::HashMap<Technique, Bytes> {
        self.instrumentation.savings_by_technique(&lowered.graph)
    }

    /// Technique → stages touched, as in the paper's Table IV.
    pub fn stages(&self, lowered: &LoweredJob) -> std::collections::HashMap<Technique, Vec<usize>> {
        self.instrumentation.stages_by_technique(&lowered.graph)
    }
}

/// Per-class planning state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Choice {
    None,
    Recompute {
        overhead: Secs,
    },
    HostSwap {
        overhead: Secs,
        tier: HostTier,
    },
    /// D2D choice; the stripe is built at emit time from reserved budget.
    D2d,
}

impl Choice {
    fn overhead(self) -> Secs {
        match self {
            Choice::None | Choice::D2d => 0.0,
            Choice::Recompute { overhead } | Choice::HostSwap { overhead, .. } => overhead,
        }
    }

    fn is_assigned(self) -> bool {
        self != Choice::None
    }
}

/// Memoizes emulator outcomes across the search.
///
/// Refinement repeatedly re-creates previously-seen plans (rejected
/// trials revert to the incumbent, portfolio variants re-derive the
/// same assignment), so whole simulator windows can be skipped. The
/// key is a **structural** digest of the plan's simulator-visible
/// effects (see [`cache_key`]), interned to one `u64` — no per-call
/// allocation, and equivalent candidates reached via different
/// refinement paths collapse onto the same entry.
#[derive(Debug, Default)]
struct EmulationCache {
    entries: Mutex<HashMap<u64, Outcome>>,
    runs: AtomicUsize,
    hits: AtomicUsize,
    verifier_rejections: AtomicUsize,
    bounds_pruned: AtomicUsize,
    bound_aborts: AtomicUsize,
}

/// What one emulator window reports back to the search.
type Outcome = (Metric, Option<OomEvent>);

impl EmulationCache {
    fn lookup(&self, key: u64) -> Option<Outcome> {
        let found = self.entries.lock().expect("cache lock").get(&key).copied();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn insert(&self, key: u64, outcome: Outcome) {
        self.entries
            .lock()
            .expect("cache lock")
            .insert(key, outcome);
    }
}

/// Minimal FNV-1a 64-bit fold (std-only; `DefaultHasher` is not
/// guaranteed stable across releases and cache behavior should be
/// reproducible build-to-build).
pub(crate) fn fnv(h: u64, v: u64) -> u64 {
    let mut h = h;
    for byte in v.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub(crate) const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Canonical structural digest of one emulator input: the device map
/// plus, per tensor (in deterministic `BTreeMap` order), exactly the
/// directive properties the simulator consumes — technique, host tier,
/// and for D2D stripes the one-way transfer time and the per-chunk
/// `(target, bytes)` layout. Lane counts are deliberately **not**
/// hashed: the engine only reads them through `one_way_time()`, so two
/// stripes differing only in lanes (same timing, same placement) are
/// the same plan to the emulator and share a cache entry.
///
/// The digest is a 64-bit hash, so a collision is theoretically able to
/// return a wrong memoized metric; with the few hundred distinct plans
/// a search generates the probability is ~1e-15 per search, which we
/// accept for an allocation-free key (the property suite still pins
/// cached == uncached outcomes on real searches).
fn cache_key(plan: &InstrumentationPlan, device_map: &DeviceMap) -> u64 {
    plan_digest(plan, device_map, |device| device.0 as u64)
}

/// [`cache_key`] made invariant under consistent device relabeling:
/// every device id is replaced by its first-appearance rank (stage scan
/// first, then stripe chunk targets in plan order), so plans that are
/// equal up to a device permutation collide.
///
/// Its only job is the refinement [`Frontier`]'s tie-break between
/// trials with equal makespan lower bounds. It stays because that tie
/// order is part of every search's trajectory: the other tie-breaks
/// measured (the exact key alone, insertion order) change chosen plans
/// and emulator-run counts. The digest is pinned by a unit test below.
fn canon_key(plan: &InstrumentationPlan, device_map: &DeviceMap) -> u64 {
    // ranks[d] = 1 + device d's first-appearance rank (0 = unseen); no
    // allocation per call. Ids past the table keep a raw-id digest
    // disjoint from every rank: a finer, still sound key.
    let mut ranks = [0u32; CANON_DEVICES];
    let mut next = 0u32;
    plan_digest(plan, device_map, |device| {
        let Some(slot) = ranks.get_mut(device.0) else {
            return (CANON_DEVICES + device.0) as u64;
        };
        if *slot == 0 {
            next += 1;
            *slot = next;
        }
        u64::from(*slot - 1)
    })
}

/// The digest [`cache_key`] and [`canon_key`] share: the device map,
/// then per tensor the directive's simulator-visible properties, with
/// every device id (stage hosts first, then stripe chunk targets in
/// plan order) hashed as `device` reports it.
fn plan_digest(
    plan: &InstrumentationPlan,
    device_map: &DeviceMap,
    mut device: impl FnMut(DeviceId) -> u64,
) -> u64 {
    let mut h = fnv(FNV_SEED, device_map.len() as u64);
    for stage in 0..device_map.len() {
        h = fnv(h, device(device_map.device_of(stage)));
    }
    for (tensor, directive) in plan.iter() {
        h = fnv(h, tensor.index() as u64);
        match directive {
            MemoryDirective::Recompute => h = fnv(h, 0),
            MemoryDirective::SwapToHost(tier) => {
                h = fnv(h, 1);
                h = fnv(h, u64::from(*tier == HostTier::Nvme));
            }
            MemoryDirective::SwapD2d(stripe) => {
                h = fnv(h, 2);
                h = fnv(h, stripe.one_way_time().to_bits());
                h = fnv(h, stripe.chunks().len() as u64);
                for chunk in stripe.chunks() {
                    h = fnv(h, device(chunk.target));
                    h = fnv(h, chunk.bytes.as_u64());
                }
            }
        }
    }
    h
}

/// Device slots in [`canon_key`]'s rank table: four times the largest
/// modeled server (DGX-2, 16 GPUs).
const CANON_DEVICES: usize = 64;

/// One emulator-verified replacement attempt for a refinement victim:
/// the choice it tries in place of the incumbent's plus (for D2D
/// re-routes) the donor budgets the trial reserved from.
struct RefineTrial {
    replacement: Choice,
    budgets: Option<Vec<Vec<(DeviceId, u32, Bytes)>>>,
}

/// A refinement trial waiting on the [`Frontier`]. Every entry differs
/// from the incumbent in its victim's choice alone (a commit clears the
/// frontier), so only that choice is kept: the plan is emitted once for
/// the frontier key and again when popped, never held.
struct FrontierEntry {
    victim: usize,
    trial: RefineTrial,
}

/// The refinement frontier: the incumbent's trials for every victim not
/// yet visited, keyed by `(lb_bits, canon_key, exact_key)` — lowest
/// certified makespan bound first, digest tie-breaks (first insert wins)
/// making the order a pure function of the trial set. A popped trial
/// hands its exact key and bound on to the gate chain. Each victim is
/// visited once (DESIGN.md §13b).
type Frontier = BTreeMap<(u64, u64, u64), FrontierEntry>;

/// What one (possibly bounded) emulator window produced.
enum RunOut {
    Done(Outcome),
    /// The simulated clock passed the makespan bound; no usable metric.
    Aborted,
}

/// Assigns compaction techniques to one job's tensor classes.
#[derive(Debug)]
pub struct Planner<'a> {
    machine: &'a Machine,
    job: &'a PipelineJob,
    lowered: &'a LoweredJob,
    config: PlannerConfig,
    cache: EmulationCache,
    /// Reusable simulation arenas, one checked out per concurrent
    /// emulator window — steady-state `emulate()` calls reuse the graph
    /// tables and task buffers instead of rebuilding them. A shared pool
    /// (see [`Planner::with_arena_pool`]) lets a long-running process
    /// amortize the tables across planner instances.
    arenas: ArenaPool,
    /// Process-global outcome sharing: `(cache handle, job scope)`.
    /// Probed after the local exact map misses; see
    /// [`Planner::with_shared_cache`].
    shared: Option<(PlanCache, u64)>,
    /// Cancellation budget checked before every simulator window; see
    /// [`Planner::with_cancel`].
    cancel: Option<CancelToken>,
    /// Lazily built static plan verifier, run on every candidate before
    /// emulation. The graph-side tables (lifetime sites, happens-before
    /// bitset) are shared by every candidate check, so they are built
    /// once.
    verifier: OnceLock<PlanVerifier<'a>>,
    /// Lazily built certified-bounds analyzer for the certified-OOM
    /// prune; its per-stage residency tables are likewise shared by
    /// every candidate.
    bounds: OnceLock<BoundsAnalyzer<'a>>,
}

impl<'a> Planner<'a> {
    /// Creates a planner.
    pub fn new(
        machine: &'a Machine,
        job: &'a PipelineJob,
        lowered: &'a LoweredJob,
        config: PlannerConfig,
    ) -> Self {
        Planner {
            machine,
            job,
            lowered,
            config,
            cache: EmulationCache::default(),
            arenas: ArenaPool::new(),
            shared: None,
            cancel: None,
            verifier: OnceLock::new(),
            bounds: OnceLock::new(),
        }
    }

    /// Attaches a process-global [`PlanCache`] for emulation-outcome
    /// sharing, scoped by the job fingerprint `scope` (see
    /// [`Mpress::job_scope`](crate::Mpress::job_scope)): outcomes this
    /// planner computes become visible to other searches over the same
    /// job, and vice versa. Outcomes are a deterministic function of
    /// `(machine, graph, plan, device map)`, all covered by
    /// `(scope, cache_key)`, so sharing never changes a chosen plan —
    /// only which searches pay for the simulator windows.
    pub fn with_shared_cache(mut self, cache: PlanCache, scope: u64) -> Self {
        self.shared = Some((cache, scope));
        self
    }

    /// Attaches a cancellation budget: every simulator window charges
    /// the token first, and a tripped token aborts the search with
    /// [`SimError::Cancelled`].
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Replaces the private arena pool with a shared one, so emulator
    /// windows reuse prebuilt graph tables across planner instances.
    pub fn with_arena_pool(mut self, pool: ArenaPool) -> Self {
        self.arenas = pool;
        self
    }

    /// Emulator/cache/pool counters accumulated by this planner so far.
    pub fn search_stats(&self) -> SearchStats {
        SearchStats {
            emulator_runs: self.cache.runs.load(Ordering::Relaxed),
            cache_hits: self.cache.hits.load(Ordering::Relaxed),
            verifier_rejections: self.cache.verifier_rejections.load(Ordering::Relaxed),
            jobs: mpress_par::pool_width(),
            peak_workers: mpress_par::peak_workers(),
            cache_hits_canonical: 0,
            delta_replays: 0,
            windows_replayed: 0,
            windows_total: 0,
            bounds_pruned: self.cache.bounds_pruned.load(Ordering::Relaxed),
            steals: 0,
            speculative_runs: 0,
            speculation_wasted: 0,
            bound_aborts: self.cache.bound_aborts.load(Ordering::Relaxed),
        }
    }

    /// Charges one simulator window against the cancellation budget.
    /// Without a token this is free and can never fail.
    fn charge_cancel(&self) -> Result<(), SimError> {
        match &self.cancel {
            Some(token) if !token.charge_run() => Err(SimError::Cancelled),
            _ => Ok(()),
        }
    }

    /// Produces the memory-saving plan.
    ///
    /// An infeasible job (not enough savings available) still returns a
    /// best-effort plan; infeasibility surfaces as an OOM when simulating.
    ///
    /// When every technique is allowed, the planner builds a small
    /// *portfolio* — the full combined plan, a no-D2D variant, and a
    /// recompute-only variant — and keeps whichever the emulator favors,
    /// guaranteeing full MPress never loses to its own restricted
    /// baselines.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from profiling or emulator runs.
    pub fn plan(&self) -> Result<MpressPlan, SimError> {
        let profile = Profile::collect(self.machine, self.job, self.lowered)?;
        let opts = self.config.optimizations;
        let mut variants: Vec<OptimizationSet> = vec![opts];
        if opts.d2d && (opts.recompute || opts.host_swap) {
            variants.push(OptimizationSet { d2d: false, ..opts });
        }
        if opts.recompute && (opts.host_swap || opts.d2d) {
            // The recompute-only plan is the strongest antidote to over-
            // committed host swaps: giant statics often fit outright once
            // every activation is recomputed, and the initial assignment
            // only discovers that when host swap is off the table.
            variants.push(OptimizationSet {
                host_swap: false,
                d2d: false,
                ..opts
            });
        }
        // The full search and its restricted variants are independent:
        // run them as one parallel section (each frontier runs serially
        // on its lane), then fold the winners in the fixed variant order
        // so the outcome matches the serial walk.
        let mut planned =
            mpress_par::par_map(&variants, |variant| self.plan_with(*variant, &profile))
                .into_iter();
        let mut best = planned
            .next()
            .expect("the full variant is always planned")?;
        if variants.len() > 1 {
            // Pruning is against the full plan's metric — conservative
            // even though the fold may improve the incumbent, because
            // pruning against a worse incumbent only prunes less.
            let full_metric = self.emulate(&best.instrumentation, &best.device_map)?.0;
            let mut best_metric = full_metric;
            for (variant, alternative) in variants[1..].iter().zip(planned) {
                let alternative = alternative?;
                let Some((alt_metric, _)) = self.emulate_bounded(
                    &alternative.instrumentation,
                    &alternative.device_map,
                    Some(full_metric),
                    None,
                )?
                else {
                    continue; // pruned: cannot beat the incumbent
                };
                if mpress_obs::verbosity().plan_debug {
                    eprintln!(
                        "portfolio {variant:?}: oom={} makespan={:.4} vs best oom={} makespan={:.4}",
                        alt_metric.oom, alt_metric.makespan, best_metric.oom, best_metric.makespan
                    );
                }
                if metric_better(alt_metric, best_metric) {
                    best = alternative;
                    best_metric = alt_metric;
                }
            }
        }
        best.search = self.search_stats();
        Ok(best)
    }

    /// Plans with an explicit technique set against a shared profile.
    fn plan_with(&self, opts: OptimizationSet, profile: &Profile) -> Result<MpressPlan, SimError> {
        let cap = self.capacity_target();
        let n = self.lowered.graph.n_stages();
        let peaks = &profile.baseline.device_peak[..n];
        let overflow: Vec<Bytes> = peaks.iter().map(|&p| p.saturating_sub(cap)).collect();

        let cost = CostModel::new(self.machine.clone());
        let classes = &profile.classes;
        let mut choice: Vec<Choice> = vec![Choice::None; classes.len()];

        // --- Initial assignment (§III-D step 1) -------------------------------
        // The per-tensor cost model hides a swap behind its live interval,
        // but every host swap also occupies the stage's PCIe copy engine.
        // Steady-state 1F1B repeats one microbatch cycle per stage, so the
        // per-cycle copy demand must fit inside the cycle's compute time —
        // latency hiding needs slack, so utilization is kept near half.
        let m_count = self.job.microbatches() as f64;
        #[allow(clippy::needless_range_loop)]
        for stage in 0..n {
            if overflow[stage].is_zero() {
                continue;
            }
            let cycle = self.job.stage_forward_time(stage) + self.job.stage_backward_time(stage);
            let channel_budget = 0.5 * cycle;
            let mut candidates: Vec<(usize, Choice)> = classes
                .iter()
                .enumerate()
                .filter(|(_, c)| c.stage == stage)
                .filter_map(|(i, c)| self.best_static_choice(opts, &cost, c).map(|ch| (i, ch)))
                .collect();
            candidates.sort_by(|a, b| {
                a.1.overhead()
                    .partial_cmp(&b.1.overhead())
                    .expect("finite overheads")
                    .then(classes[b.0].peak_saving().cmp(&classes[a.0].peak_saving()))
            });
            let mut remaining = overflow[stage];
            let mut pcie_load = 0.0;
            for (i, mut ch) in candidates {
                if remaining.is_zero() && !self.config.exhaustive_swap {
                    break;
                }
                if let Choice::HostSwap { tier, .. } = ch {
                    let class = &classes[i];
                    // Activations round-trip once per microbatch; statics
                    // amortize their single round trip over the window.
                    let legs_per_cycle = class.instances.len() as f64 / m_count;
                    let extra =
                        legs_per_cycle * self.machine.pcie_transfer_time(class.bytes_per_instance);
                    if pcie_load + extra > channel_budget {
                        // The copy engine is saturated: fall back to
                        // recomputation when allowed, else accept the
                        // queued swap with its exposure made explicit.
                        if opts.recompute && class.recomputable() {
                            ch = Choice::Recompute {
                                overhead: cost.recompute(class.recompute_time).overhead,
                            };
                        } else {
                            ch = Choice::HostSwap {
                                overhead: extra.max(ch.overhead()),
                                tier,
                            };
                            pcie_load += extra;
                        }
                    } else {
                        pcie_load += extra;
                    }
                }
                remaining = remaining.saturating_sub(classes[i].peak_saving());
                choice[i] = ch;
            }
        }

        // --- Donor minting -----------------------------------------------------
        // D2D needs spare peer memory, and a stage sitting exactly at
        // capacity after compaction donates nothing. Long-lived statics
        // (optimizer states, weight stashes) swap to the host for free —
        // one hidden round trip per window — so when D2D is on the table,
        // offload them everywhere to mint donor space (the paper's
        // Table IV shows GPU-CPU swap spanning stages 0-7 for this
        // reason).
        let mut minted: Vec<usize> = Vec::new();
        if opts.d2d && opts.host_swap && overflow.iter().any(|o| !o.is_zero()) {
            for (i, class) in classes.iter().enumerate() {
                if choice[i].is_assigned() || !class.swappable || class.recomputable() {
                    continue;
                }
                if let Some(ch @ Choice::HostSwap { overhead, .. }) =
                    self.best_static_choice(opts, &cost, class)
                {
                    if overhead <= 1e-9 {
                        choice[i] = ch;
                        minted.push(i);
                    }
                }
            }
        }

        // --- Device mapping (§III-C) with post-compaction spare ---------------
        // Spare memory for D2D donation is what remains AFTER recompute and
        // host swap have done their work — at 15B+ every stage's raw peak
        // overflows, yet compacted late stages donate plenty (that is how
        // the paper's Table IV shows D2D at 20.4B).
        let projected: Vec<Bytes> = (0..n)
            .map(|stage| peaks[stage].saturating_sub(covered(classes, &choice, stage)))
            .collect();
        let spare: Vec<Bytes> = projected
            .iter()
            .map(|&p| cap.scale(0.97).saturating_sub(p))
            .collect();
        let search = MappingSearch::new(self.machine);
        let (device_map, spare_assignment) = if opts.d2d && self.config.mapping_search {
            let (m, a, _) = search.search(&overflow, &spare);
            (m, a)
        } else {
            let m = DeviceMap::identity(n);
            let a = search.assign_spare(&m, &overflow, &spare);
            (m, a)
        };
        let mut budgets = spare_assignment.per_stage.clone();

        // --- D2D coverage of leftover overflow --------------------------------
        if opts.d2d {
            for stage in 0..n {
                let mut remaining =
                    overflow[stage].saturating_sub(covered(classes, &choice, stage));
                if remaining.is_zero() {
                    continue;
                }
                let mut unassigned: Vec<usize> = classes
                    .iter()
                    .enumerate()
                    .filter(|(i, c)| c.stage == stage && !choice[*i].is_assigned() && c.swappable)
                    .map(|(i, _)| i)
                    .collect();
                // Short-lived tensors first: D2D is the only technique
                // whose latency they can hide (§III-A).
                unassigned.sort_by(|&a, &b| {
                    classes[a]
                        .live_interval
                        .partial_cmp(&classes[b].live_interval)
                        .expect("finite intervals")
                });
                for i in unassigned {
                    if remaining.is_zero() {
                        break;
                    }
                    if reserve_budget(&classes[i], &mut budgets[stage]) {
                        choice[i] = Choice::D2d;
                        remaining = remaining.saturating_sub(classes[i].peak_saving());
                    }
                }
            }
        }

        // --- Emulator feasibility loop (paper Fig. 5 step 5) -------------------
        // Static estimates under-predict dynamic residency (swap-out lag,
        // in-flight copies), so the emulator arbitrates: while the window
        // still overflows, assign the next-cheapest class on the failing
        // stage and re-run. The paper's planner/rewriter/emulator loop
        // "runs throughout a series of iterations to converge".
        let mut rounds = 0;
        let any_technique = opts.recompute || opts.host_swap || opts.d2d;
        if any_technique {
            for _ in 0..64 {
                let plan = self.emit(classes, &choice, &budgets, &device_map)?;
                let (metric, oom) = self.emulate(&plan, &device_map)?;
                if !metric.oom {
                    break;
                }
                rounds += 1;
                let Some(stage) = oom
                    .and_then(|e| e.device)
                    .and_then(|d| device_map.stage_of(d))
                else {
                    break; // host pool exhausted — nothing to reassign
                };
                let mut fixed = false;
                // Cheapest remaining class on the failing stage first.
                let mut remaining_classes: Vec<usize> = classes
                    .iter()
                    .enumerate()
                    .filter(|(i, c)| c.stage == stage && !choice[*i].is_assigned())
                    .map(|(i, _)| i)
                    .collect();
                remaining_classes.sort_by(|&a, &b| {
                    let oa = self
                        .best_static_choice(opts, &cost, &classes[a])
                        .map_or(f64::INFINITY, |c| c.overhead());
                    let ob = self
                        .best_static_choice(opts, &cost, &classes[b])
                        .map_or(f64::INFINITY, |c| c.overhead());
                    oa.partial_cmp(&ob)
                        .expect("finite overheads")
                        .then(classes[b].peak_saving().cmp(&classes[a].peak_saving()))
                });
                for i in remaining_classes {
                    if opts.d2d && reserve_budget(&classes[i], &mut budgets[stage]) {
                        choice[i] = Choice::D2d;
                        fixed = true;
                        break;
                    }
                    if let Some(ch) = self.best_static_choice(opts, &cost, &classes[i]) {
                        choice[i] = ch;
                        fixed = true;
                        break;
                    }
                }
                if !fixed {
                    break; // genuinely infeasible with the allowed techniques
                }
            }
        }

        // --- Emulator-verified refinement (§III-D step 2) ----------------------
        let mut refine_candidates: Vec<usize> = Vec::new();
        if (opts.d2d || opts.recompute) && self.config.refine_iters > 0 {
            let mut best_plan = self.emit(classes, &choice, &budgets, &device_map)?;
            let (mut best_metric, _) = self.emulate(&best_plan, &device_map)?;
            // Every assigned class is a replacement candidate: estimated
            // overheads order them, but queuing delays the estimates miss
            // are caught by the emulator, so zero-estimate classes are
            // still worth trying (largest savings first).
            let mut victims: Vec<usize> = (0..classes.len())
                .filter(|&i| choice[i].is_assigned() && choice[i] != Choice::D2d)
                .collect();
            victims.sort_by(|&a, &b| {
                choice[b]
                    .overhead()
                    .partial_cmp(&choice[a].overhead())
                    .expect("finite overheads")
                    .then(classes[b].peak_saving().cmp(&classes[a].peak_saving()))
            });
            let victims: Vec<usize> = victims.into_iter().take(self.config.refine_iters).collect();
            // --- Best-first frontier search, one visit per victim -------
            // Trials are adjudicated in frontier order against the
            // incumbent. Popping any trial of a victim marks it tried; a
            // commit clears the frontier (its trials were built on the
            // replaced incumbent) and re-enqueues the untried victims, so
            // the walk ends when the frontier runs dry.
            let mut tried: Vec<bool> = vec![false; classes.len()];
            let mut frontier = Frontier::new();
            let enqueue_victims = |frontier: &mut Frontier,
                                   choice: &[Choice],
                                   budgets: &[Vec<(DeviceId, u32, Bytes)>],
                                   tried: &[bool]|
             -> Result<(), SimError> {
                let mut trial_choice = choice.to_vec();
                for &i in victims.iter().filter(|&&i| !tried[i]) {
                    for trial in
                        self.refine_trials(opts, &cost, classes, &minted, i, choice, budgets)
                    {
                        trial_choice[i] = trial.replacement;
                        let trial_budgets = trial.budgets.as_deref().unwrap_or(budgets);
                        let plan = self.emit(classes, &trial_choice, trial_budgets, &device_map)?;
                        let key = cache_key(&plan, &device_map);
                        let lb = self.lower_bound(&plan, &device_map);
                        let ckey = canon_key(&plan, &device_map);
                        frontier
                            .entry((lb.to_bits(), ckey, key))
                            .or_insert(FrontierEntry { victim: i, trial });
                    }
                    trial_choice[i] = choice[i];
                }
                Ok(())
            };
            enqueue_victims(&mut frontier, &choice, &budgets, &tried)?;
            let mut since_commit = 0usize;
            while let Some(((lb_bits, _, key), FrontierEntry { victim, trial })) =
                frontier.pop_first()
            {
                tried[victim] = true;
                since_commit += 1;
                rounds += 1;
                let mut trial_choice = choice.clone();
                trial_choice[victim] = trial.replacement;
                let trial_budgets = trial.budgets.as_deref().unwrap_or(&budgets);
                let plan = self.emit(classes, &trial_choice, trial_budgets, &device_map)?;
                // The frontier holds trials of the current incumbent only,
                // so the re-emitted plan is the one that was keyed.
                debug_assert_eq!(cache_key(&plan, &device_map), key);
                let carried = Some((key, f64::from_bits(lb_bits)));
                let Some((metric, _)) =
                    self.emulate_bounded(&plan, &device_map, Some(best_metric), carried)?
                else {
                    continue; // rejected, pruned or aborted: cannot win
                };
                if !metric_better(metric, best_metric) {
                    continue;
                }
                choice = trial_choice;
                if let Some(b) = trial.budgets {
                    budgets = b;
                }
                best_plan = plan;
                best_metric = metric;
                refine_candidates.push(since_commit);
                since_commit = 0;
                frontier.clear();
                enqueue_victims(&mut frontier, &choice, &budgets, &tried)?;
            }
            if since_commit > 0 {
                refine_candidates.push(since_commit);
            }
            // Portfolio checks, each one emit away from the incumbent and
            // kept when the emulator favors it. A: minting donor space may
            // not have paid off at all — strip every unswitched minted
            // offload. B: the greedy start can over-commit to host swaps
            // whose queuing the estimates miss — prefer recomputation
            // wherever it applies (this also guarantees full MPress never
            // loses to its own recomputation baseline).
            for prefer_recompute in [false, true] {
                let mut alt = choice.clone();
                for (i, class) in classes.iter().enumerate() {
                    if !matches!(alt[i], Choice::HostSwap { .. }) {
                        continue;
                    }
                    if !prefer_recompute && minted.contains(&i) {
                        alt[i] = Choice::None;
                    } else if prefer_recompute && opts.recompute && class.recomputable() {
                        alt[i] = Choice::Recompute {
                            overhead: cost.recompute(class.recompute_time).overhead,
                        };
                    }
                }
                if alt == choice {
                    continue;
                }
                let alt_plan = self.emit(classes, &alt, &budgets, &device_map)?;
                let metric =
                    self.emulate_bounded(&alt_plan, &device_map, Some(best_metric), None)?;
                rounds += 1;
                refine_candidates.push(1);
                if let Some((metric, _)) = metric {
                    if metric_better(metric, best_metric) {
                        choice = alt;
                        best_plan = alt_plan;
                        best_metric = metric;
                    }
                }
            }
            return Ok(MpressPlan {
                device_map,
                instrumentation: best_plan,
                spare: spare_assignment,
                refinement_rounds: rounds,
                baseline: profile.baseline.clone(),
                search: self.search_stats(),
                refine_candidates,
            });
        }

        let instrumentation = self.emit(classes, &choice, &budgets, &device_map)?;
        Ok(MpressPlan {
            device_map,
            instrumentation,
            spare: spare_assignment,
            refinement_rounds: rounds,
            baseline: profile.baseline.clone(),
            search: self.search_stats(),
            refine_candidates,
        })
    }

    /// Memory target per device after workspace headroom.
    pub fn capacity_target(&self) -> Bytes {
        self.machine
            .gpu()
            .usable_memory()
            .scale(1.0 - self.config.headroom)
    }

    /// Best non-D2D technique for a class, or `None` when nothing applies.
    /// Host swaps land in DRAM while the pinned pool lasts and spill to
    /// the slower NVMe tier after (the §V hierarchy: slower levels for
    /// longer-lived data).
    fn best_static_choice(
        &self,
        opts: OptimizationSet,
        cost: &CostModel,
        class: &TensorClass,
    ) -> Option<Choice> {
        let mut best = (opts.host_swap && class.swappable).then(|| self.host_swap(cost, class));
        if opts.recompute && class.recomputable() {
            let o = cost.recompute(class.recompute_time).overhead;
            if best.is_none_or(|b| o < b.overhead()) {
                best = Some(Choice::Recompute { overhead: o });
            }
        }
        best
    }

    /// The host swap for one class. It lands in DRAM while the host pool
    /// has room for the class's projected swap footprint and on NVMe (when
    /// the machine has one) beyond. The projection is conservative (every
    /// instance resident off-GPU at once), which is exactly the capacity
    /// planners must guarantee.
    fn host_swap(&self, cost: &CostModel, class: &TensorClass) -> Choice {
        let projected = class.bytes_per_instance * class.instances.len() as u64;
        // Keep 10% of host DRAM free for pinned staging buffers.
        let budget = self.machine.cpu().memory.scale(0.9);
        let (bytes, interval) = (class.bytes_per_instance, class.live_interval);
        let (tier, c) = if self.machine.nvme().is_some() && projected > budget {
            (HostTier::Nvme, cost.nvme_swap(bytes, interval))
        } else {
            (HostTier::Dram, cost.gpu_cpu_swap(bytes, interval))
        };
        Choice::HostSwap {
            overhead: c.overhead,
            tier,
        }
    }

    /// Materializes choices into per-tensor directives. D2D stripes are
    /// rebuilt deterministically from the (already reserved) budgets.
    fn emit(
        &self,
        classes: &[TensorClass],
        choice: &[Choice],
        budgets: &[Vec<(DeviceId, u32, Bytes)>],
        device_map: &DeviceMap,
    ) -> Result<InstrumentationPlan, SimError> {
        // Collected, then bulk-built: the plan's map keeps the last
        // directive of a repeated tensor, as repeated `assign` would.
        let mut directives = Vec::new();
        for (class, &chosen) in classes.iter().zip(choice) {
            let directive = match chosen {
                Choice::None => continue,
                Choice::Recompute { .. } => MemoryDirective::Recompute,
                Choice::HostSwap { tier, .. } => MemoryDirective::SwapToHost(tier),
                Choice::D2d => {
                    let stripe = self
                        .stripe_over(class.bytes_per_instance, &budgets[class.stage])
                        .ok_or_else(|| {
                            SimError::BadPlan(format!(
                                "no donors available for stage {}",
                                class.stage
                            ))
                        })?;
                    stripe
                        .validate(device_map.device_of(class.stage), self.machine.topology())
                        .map_err(SimError::BadPlan)?;
                    MemoryDirective::SwapD2d(stripe)
                }
            };
            directives.extend(class.instances.iter().map(|&t| (t, directive.clone())));
        }
        Ok(directives.into_iter().collect())
    }

    /// Builds the stripe layout for one instance over a stage's donors.
    fn stripe_over(&self, bytes: Bytes, donors: &[(DeviceId, u32, Bytes)]) -> Option<StripePlan> {
        let active: Vec<(DeviceId, u32)> = donors
            .iter()
            .filter(|&&(_, _, b)| !b.is_zero())
            .map(|&(d, l, _)| (d, l))
            .collect();
        if active.is_empty() {
            return None;
        }
        if self.config.striping {
            Some(StripePlan::weighted(bytes, &active))
        } else {
            // Ablation: no striping — the whole tensor goes to the widest
            // single donor.
            let &(d, l) = active.iter().max_by_key(|&&(_, l)| l).expect("non-empty");
            Some(StripePlan::single(bytes, d, l))
        }
    }

    /// One emulator run (paper Fig. 5 step 5): a single simulated
    /// window, memoized on the exact `(plan, device_map)` structure.
    /// Refinement re-creates previously-seen plans constantly (rejected
    /// trials revert, portfolio variants converge), so hits skip whole
    /// simulator windows without changing any outcome.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from the underlying run.
    pub fn emulate(
        &self,
        plan: &InstrumentationPlan,
        device_map: &DeviceMap,
    ) -> Result<(Metric, Option<OomEvent>), SimError> {
        self.emulate_bounded(plan, device_map, None, None)
            .map(|outcome| outcome.expect("unbounded emulate always produces an outcome"))
    }

    /// [`Planner::emulate`] with an optional incumbent to beat. When the
    /// certified-bounds gate or bound-and-abort emulation proves that
    /// the candidate cannot beat a non-OOM incumbent (both are off in
    /// [`PlannerConfig::reference`] mode), `None` is returned — by
    /// [`metric_better`]'s rules such a candidate could never have been
    /// accepted, so the search outcome is unchanged. `keyed` carries the
    /// plan's [`cache_key`] and [`Planner::lower_bound`] when the caller
    /// already has them (a popped frontier trial); otherwise they are
    /// computed here, the bound only if a prune needs it.
    fn emulate_bounded(
        &self,
        plan: &InstrumentationPlan,
        device_map: &DeviceMap,
        incumbent: Option<Metric>,
        keyed: Option<(u64, Secs)>,
    ) -> Result<Option<(Metric, Option<OomEvent>)>, SimError> {
        // The gate chain: exact memo, shared memo, static verifier,
        // certified bounds, then a (possibly bound-and-abort) emulator
        // window. Aborted windows are never cached: an abort certifies a
        // loss against the gating incumbent, not an outcome.
        let key = keyed.map_or_else(|| cache_key(plan, device_map), |(key, _)| key);
        if let Some(outcome) = self.cache.lookup(key) {
            return Ok(Some(outcome));
        }
        // Process-global view: outcomes another search computed for this
        // exact (job scope, structural key). A hit is promoted into the
        // local exact map and counted as a local cache hit — the outcome
        // is what the skipped run would have produced, so every search
        // decision downstream is unchanged.
        if let Some((shared, scope)) = &self.shared {
            if let Some(outcome) = shared.emu_lookup(*scope, key) {
                self.cache.hits.fetch_add(1, Ordering::Relaxed);
                self.cache.insert(key, outcome);
                return Ok(Some(outcome));
            }
        }
        let verifier = self
            .verifier
            .get_or_init(|| PlanVerifier::new(self.machine, &self.lowered.graph));
        let report = verifier.verify(plan, device_map);
        // Only *structural* malformations reject: a predicted OOM
        // (MP007/MP008/MP013) must still reach the emulator, because
        // the feasibility loop and OOM-vs-OOM comparisons consume
        // the simulated `OomEvent`.
        if report.has_structural_errors() {
            self.cache
                .verifier_rejections
                .fetch_add(1, Ordering::Relaxed);
            return if incumbent.is_some() {
                Ok(None)
            } else {
                Err(SimError::BadPlan(format!(
                    "static verifier rejected plan: {}",
                    report.summary()
                )))
            };
        }
        // Only prune against a feasible incumbent: against an OOM one,
        // any non-OOM candidate wins regardless of makespan, and the
        // bounds cannot predict host-pool feasibility.
        if let Some(best) = incumbent.filter(|best| !self.config.reference && !best.oom) {
            // Certified OOM (MP013): emulation is guaranteed to report
            // an OOM metric, which `metric_better` can never prefer over
            // a non-OOM incumbent.
            if self.certified_oom(plan, device_map) {
                self.cache.bounds_pruned.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            // Certified makespan lower bound: `metric_better` accepts a
            // candidate at up to 1.001x the incumbent (the host-traffic
            // tiebreak), so only candidates that cannot even tie are
            // pruned.
            let lb = keyed.map_or_else(|| self.lower_bound(plan, device_map), |(_, lb)| lb);
            if lb > best.makespan * 1.001 {
                self.cache.bounds_pruned.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
        }
        // Bound-and-abort: against a feasible incumbent the emulator
        // only needs to run far enough to prove a loss — anything past
        // the acceptance slack is unobservable to `metric_better`.
        let bound = match incumbent {
            Some(best) if !self.config.reference && !best.oom => Some(best.makespan * 1.001),
            _ => None,
        };
        match self.emulate_uncached_bounded(plan, device_map, bound)? {
            RunOut::Aborted => Ok(None),
            RunOut::Done(outcome) => {
                self.cache.insert(key, outcome);
                if let Some((shared, scope)) = &self.shared {
                    shared.emu_insert(*scope, key, outcome);
                }
                Ok(Some(outcome))
            }
        }
    }

    /// [`Planner::emulate`] without the memoization layer — one real
    /// simulator window. Cached and uncached results are asserted equal
    /// by the property suite.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from the underlying run.
    pub fn emulate_uncached(
        &self,
        plan: &InstrumentationPlan,
        device_map: &DeviceMap,
    ) -> Result<(Metric, Option<OomEvent>), SimError> {
        match self.emulate_uncached_bounded(plan, device_map, None)? {
            RunOut::Done(outcome) => Ok(outcome),
            RunOut::Aborted => unreachable!("an unbounded emulator run cannot exceed a bound"),
        }
    }

    /// One real simulator window under an optional makespan bound: the
    /// engine aborts the moment its simulated clock passes `bound`
    /// (bound-and-abort emulation), which the caller must treat as
    /// a certified loss against the incumbent that produced the bound —
    /// never as an outcome.
    fn emulate_uncached_bounded(
        &self,
        plan: &InstrumentationPlan,
        device_map: &DeviceMap,
        bound: Option<Secs>,
    ) -> Result<RunOut, SimError> {
        self.charge_cancel()?;
        self.cache.runs.fetch_add(1, Ordering::Relaxed);
        let outcome = self.arenas.with(|arena| {
            Simulator::new(self.machine, &self.lowered.graph, plan, device_map.clone())
                .run_in_bounded(arena, bound)
        })?;
        let report = match outcome {
            SimOutcome::Completed(report) => report,
            SimOutcome::BoundExceeded { .. } => {
                self.cache.bound_aborts.fetch_add(1, Ordering::Relaxed);
                return Ok(RunOut::Aborted);
            }
        };
        Ok(RunOut::Done((
            Metric {
                oom: report.oom.is_some(),
                makespan: report.makespan,
                host_traffic: report.host_traffic,
            },
            report.oom,
        )))
    }

    /// The analytic makespan lower bound for one candidate. It orders
    /// the frontier and gates the makespan prune; a popped frontier
    /// trial carries its bound to the gate instead of recomputing it.
    fn lower_bound(&self, plan: &InstrumentationPlan, device_map: &DeviceMap) -> Secs {
        self.arenas.with(|arena| {
            arena.makespan_lower_bound(self.machine, &self.lowered.graph, plan, device_map)
        })
    }

    /// Builds the emulator-verified replacement trials for one
    /// refinement victim, in a fixed deterministic order (the frontier
    /// tie-breaks take over from there).
    #[allow(clippy::too_many_arguments)]
    fn refine_trials(
        &self,
        opts: OptimizationSet,
        cost: &CostModel,
        classes: &[TensorClass],
        minted: &[usize],
        i: usize,
        choice: &[Choice],
        budgets: &[Vec<(DeviceId, u32, Bytes)>],
    ) -> Vec<RefineTrial> {
        let stage = classes[i].stage;
        let mut trials: Vec<RefineTrial> = Vec::with_capacity(6);
        // Candidate: a minted donor offload that turned out to cost
        // critical-path time can simply be undone (the emulator rejects
        // the trial if the memory was needed).
        if minted.contains(&i) {
            trials.push(RefineTrial {
                replacement: Choice::None,
                budgets: None,
            });
        }
        // Candidate: re-route through NVLink to spare peers.
        if opts.d2d && classes[i].swappable {
            let mut trial_budgets = budgets.to_vec();
            if reserve_budget(&classes[i], &mut trial_budgets[stage]) {
                trials.push(RefineTrial {
                    replacement: Choice::D2d,
                    budgets: Some(trial_budgets),
                });
            }
        }
        // Candidate: a queued host swap may lose to recomputation.
        if opts.recompute
            && classes[i].recomputable()
            && matches!(choice[i], Choice::HostSwap { .. })
        {
            trials.push(RefineTrial {
                replacement: Choice::Recompute {
                    overhead: cost.recompute(classes[i].recompute_time).overhead,
                },
                budgets: None,
            });
        }
        // Candidate: the reverse — recomputation contending with
        // backward compute may lose to an overlappable host swap.
        if opts.host_swap && classes[i].swappable && matches!(choice[i], Choice::Recompute { .. }) {
            trials.push(RefineTrial {
                replacement: self.host_swap(cost, &classes[i]),
                budgets: None,
            });
        }
        trials
    }

    /// Whether the certified residency bounds prove one candidate OOM
    /// (MP013). The analyzer itself is built lazily once per planner,
    /// like the verifier.
    fn certified_oom(&self, plan: &InstrumentationPlan, device_map: &DeviceMap) -> bool {
        let analyzer = self
            .bounds
            .get_or_init(|| BoundsAnalyzer::new(self.machine, &self.lowered.graph));
        analyzer.certify(plan, device_map).verdict == BoundsVerdict::CertifiedOom
    }
}

/// Peak bytes the assigned classes of one stage save.
fn covered(classes: &[TensorClass], choice: &[Choice], stage: usize) -> Bytes {
    classes
        .iter()
        .zip(choice)
        .filter(|(c, ch)| c.stage == stage && ch.is_assigned())
        .map(|(c, _)| c.peak_saving())
        .sum()
}

/// Reserves donor budget for a whole class (all peak-resident instances).
/// Returns false (reserving nothing) when the donors cannot absorb it.
fn reserve_budget(class: &TensorClass, donors: &mut [(DeviceId, u32, Bytes)]) -> bool {
    let total: Bytes = donors.iter().map(|&(_, _, b)| b).sum();
    let need = class.peak_saving();
    if total < need {
        return false;
    }
    // Drain donors proportionally to their lane width (mirrors the
    // weighted stripe the emit phase builds).
    let lane_sum: u32 = donors
        .iter()
        .filter(|&&(_, _, b)| !b.is_zero())
        .map(|&(_, l, _)| l)
        .sum();
    if lane_sum == 0 {
        return false;
    }
    let mut left = need;
    for (_, lanes, budget) in donors.iter_mut() {
        if budget.is_zero() {
            continue;
        }
        let share = need
            .scale(f64::from(*lanes) / f64::from(lane_sum))
            .min(*budget)
            .min(left);
        *budget -= share;
        left = left.saturating_sub(share);
    }
    // Any residue (rounding or capped donors) drains from whoever has
    // budget left.
    if !left.is_zero() {
        for (_, _, budget) in donors.iter_mut() {
            let take = left.min(*budget);
            *budget -= take;
            left = left.saturating_sub(take);
            if left.is_zero() {
                break;
            }
        }
    }
    left.is_zero()
}

/// What one emulator run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Whether the window ran out of memory.
    pub oom: bool,
    /// Simulated window wall-clock.
    pub makespan: Secs,
    /// Bytes moved over the host (PCIe) channel.
    pub host_traffic: Bytes,
}

/// Emulator metric comparison: resolving OOM beats everything; a visibly
/// (>0.1%) shorter makespan wins; at equal speed, relieving the PCIe
/// channel wins (the paper keeps D2D even when the gain is not yet
/// visible — it frees the slow path for tensors that need it).
fn metric_better(candidate: Metric, best: Metric) -> bool {
    match (candidate.oom, best.oom) {
        (false, true) => true,
        (true, false) => false,
        _ => {
            if candidate.makespan < best.makespan * 0.999 {
                return true;
            }
            candidate.makespan <= best.makespan * 1.001
                && candidate.host_traffic < best.host_traffic
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpress_model::{ModelFamily, PrecisionPolicy, TransformerConfig};
    use mpress_pipeline::{PipelineJob, ScheduleKind};

    fn small_job() -> PipelineJob {
        PipelineJob::builder()
            .model(
                TransformerConfig::builder(ModelFamily::Gpt)
                    .layers(16)
                    .hidden(1024)
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

    /// A plan with every directive kind over a permuted 4-stage map,
    /// relabeled by `perm` (device `d` becomes `perm[d]`).
    fn canon_fixture(perm: [usize; 4]) -> (InstrumentationPlan, DeviceMap) {
        let dev = |d: usize| DeviceId(perm[d]);
        let stripe = StripePlan::equal(Bytes::mib(64), &[dev(3), dev(0)], 2);
        let mut plan = InstrumentationPlan::new();
        for (t, directive) in [
            (1, MemoryDirective::Recompute),
            (2, MemoryDirective::SwapToHost(HostTier::Nvme)),
            (5, MemoryDirective::SwapD2d(stripe)),
            (
                9,
                MemoryDirective::SwapD2d(StripePlan::single(Bytes::mib(8), dev(1), 1)),
            ),
        ] {
            plan.assign(mpress_graph::TensorId(t), directive);
        }
        let map = DeviceMap::from_vec(vec![dev(2), dev(0), dev(1), dev(3)]).unwrap();
        (plan, map)
    }

    #[test]
    fn canon_key_is_pinned_and_invariant_under_device_relabeling() {
        // Pinned digests: the emulation cache keys are part of every
        // search's trajectory (frontier tie-breaks), so they must not move.
        let (plan, map) = canon_fixture([0, 1, 2, 3]);
        assert_eq!(cache_key(&plan, &map), 0x8eb0_ad68_991c_425a);
        assert_eq!(canon_key(&plan, &map), 0xc286_5fa7_c5da_cb6c);
        let (relabeled, relabeled_map) = canon_fixture([3, 0, 1, 2]);
        assert_ne!(
            cache_key(&relabeled, &relabeled_map),
            cache_key(&plan, &map)
        );
        assert_eq!(
            canon_key(&relabeled, &relabeled_map),
            canon_key(&plan, &map)
        );
        // Another stripe target under the same map is not equivalent.
        let moved = StripePlan::single(Bytes::mib(8), DeviceId(2), 1);
        let mut plan_moved = plan.clone();
        plan_moved.assign(mpress_graph::TensorId(9), MemoryDirective::SwapD2d(moved));
        assert_ne!(canon_key(&plan_moved, &map), canon_key(&plan, &map));
    }

    #[test]
    fn optimization_presets() {
        assert!(OptimizationSet::all().d2d);
        assert!(!OptimizationSet::recompute_only().host_swap);
        assert!(OptimizationSet::d2d_only().d2d);
        assert!(!OptimizationSet::none().recompute);
    }

    fn m(oom: bool, makespan: Secs, host_traffic: Bytes) -> Metric {
        Metric {
            oom,
            makespan,
            host_traffic,
        }
    }

    #[test]
    fn metric_prefers_oom_resolution_then_speed() {
        let t = Bytes::gib(1);
        assert!(metric_better(m(false, 10.0, t), m(true, 1.0, t)));
        assert!(!metric_better(m(true, 1.0, t), m(false, 10.0, t)));
        assert!(metric_better(m(false, 1.0, t), m(false, 2.0, t)));
        assert!(!metric_better(m(false, 2.0, t), m(false, 1.0, t)));
        // Sub-0.1% gains are "non-visible": only accepted when they also
        // relieve the PCIe channel.
        assert!(!metric_better(m(false, 0.9999, t), m(false, 1.0, t)));
        assert!(metric_better(
            m(false, 0.9999, Bytes::ZERO),
            m(false, 1.0, t)
        ));
        assert!(!metric_better(m(false, 1.1, Bytes::ZERO), m(false, 1.0, t)));
    }

    #[test]
    fn reserve_budget_drains_proportionally() {
        let class = TensorClass {
            stage: 0,
            kind: crate::profiler::TensorClassKind::Activation { layer: Some(0) },
            instances: vec![],
            bytes_per_instance: Bytes::mib(100),
            resident_at_peak: 3,
            live_interval: 0.01,
            recompute_time: 0.001,
            swappable: true,
        };
        let mut donors = vec![
            (DeviceId(3), 2, Bytes::mib(400)),
            (DeviceId(1), 1, Bytes::mib(400)),
        ];
        assert!(reserve_budget(&class, &mut donors));
        // 300 MiB drained 2:1.
        assert_eq!(donors[0].2, Bytes::mib(200));
        assert_eq!(donors[1].2, Bytes::mib(300));
    }

    #[test]
    fn reserve_budget_refuses_when_insufficient() {
        let class = TensorClass {
            stage: 0,
            kind: crate::profiler::TensorClassKind::Stash,
            instances: vec![],
            bytes_per_instance: Bytes::gib(10),
            resident_at_peak: 1,
            live_interval: 1.0,
            recompute_time: 0.0,
            swappable: true,
        };
        let mut donors = vec![(DeviceId(3), 2, Bytes::gib(1))];
        assert!(!reserve_budget(&class, &mut donors));
    }

    #[test]
    fn fitting_job_needs_no_directives() {
        let machine = mpress_hw::Machine::dgx1();
        let job = small_job();
        let lowered = job.lower().unwrap();
        let planner = Planner::new(&machine, &job, &lowered, PlannerConfig::default());
        let plan = planner.plan().unwrap();
        assert!(
            plan.instrumentation.is_empty(),
            "small model must fit as-is"
        );
    }
}
