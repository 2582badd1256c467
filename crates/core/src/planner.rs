//! The memory-compaction planner (paper §III-D).
//!
//! Each portfolio variant plans in its own choice space (`space`), one
//! named phase per step of the paper's approximation (see
//! `Planner::plan_with`); every candidate, the variants' fold
//! included, is adjudicated through one gate chain and one commit path
//! (`gate`). DESIGN.md §13 maps the phases to the paper.

mod gate;
mod space;

pub use gate::Metric;
pub(crate) use gate::{fnv, FNV_SEED};

use crate::cache::{CancelToken, PlanCache};
use crate::mapping::{MappingSearch, SpareAssignment};
use crate::profiler::Profile;
use gate::{add, Best, Digests, EmulationCache};
use mpress_compaction::{InstrumentationPlan, Technique};
use mpress_hw::{Bytes, Machine};
use mpress_pipeline::{LoweredJob, PipelineJob};
use mpress_sim::{ArenaPool, BoundBase, DeviceMap, SimError, SimReport};
use serde::{Deserialize, Serialize};
use space::{reserve_budget, Choice, ChoiceSpace, Point, Trial};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

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
    /// Candidates the certified-bounds gate pruned without emulation: a
    /// certified makespan lower bound that cannot even tie the
    /// incumbent. Zero in reference mode ([`PlannerConfig::reference`]).
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
    /// Refinement trials put on a frontier, summed over the portfolio
    /// variants (a trial whose key is already queued still counts).
    pub trials_enqueued: usize,
    /// Op-DAG nodes whose start time the frontier's makespan bounds
    /// computed: a full critical-path pass counts every node. The gate's
    /// own bound for an uncarried candidate is not counted: it runs only
    /// on a memo miss, and at jobs > 1 which variant misses depends on
    /// timing.
    pub bound_node_visits: usize,
    /// Choice vectors materialized into an `InstrumentationPlan`.
    pub plan_emits: usize,
    /// Streams the engine's start passes visited, summed over the
    /// search's simulator windows (aborted ones up to the abort). The
    /// profiling run is not a window and is not counted.
    pub stream_visits: usize,
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
    /// Emulator-verified refinement rounds the winning portfolio
    /// variant executed (feasibility iterations, frontier pops and
    /// portfolio checks). Counts that variant only, whereas
    /// [`MpressPlan::search`] sums every variant's work.
    pub refinement_rounds: usize,
    /// The profiling baseline (uninstrumented timings and peaks).
    pub baseline: SimReport,
    /// Emulator/cache/pool and work counters for this search, summed
    /// over every portfolio variant.
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
            jobs: mpress_par::pool_width(),
            peak_workers: mpress_par::peak_workers(),
            bounds_pruned: self.cache.bounds_pruned.load(Ordering::Relaxed),
            bound_aborts: self.cache.bound_aborts.load(Ordering::Relaxed),
            trials_enqueued: self.cache.trials_enqueued.load(Ordering::Relaxed),
            bound_node_visits: self.cache.bound_node_visits.load(Ordering::Relaxed),
            plan_emits: self.cache.plan_emits.load(Ordering::Relaxed),
            stream_visits: self.cache.stream_visits.load(Ordering::Relaxed),
            ..SearchStats::default()
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
        let profile = self
            .arenas
            .with(|arena| Profile::collect_in(self.machine, self.job, self.lowered, arena))?;
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
        let (mut winner, mut instrumentation) = planned
            .next()
            .expect("the full variant is always planned")?;
        if variants.len() > 1 {
            // Pruning is against the full plan's metric — conservative
            // even though the fold may improve the incumbent, because
            // pruning against a worse incumbent only prunes less.
            let gate = self.emulate(&instrumentation, &winner.device_map)?.0;
            let mut best = Best {
                plan: instrumentation,
                metric: gate,
            };
            for alternative in planned {
                let (space, plan) = alternative?;
                let map = space.device_map.clone();
                best.offer(self, &mut winner, (space, plan), &map, gate, None)?;
            }
            instrumentation = best.plan;
        }
        Ok(MpressPlan {
            device_map: winner.device_map,
            instrumentation,
            spare: winner.spare,
            refinement_rounds: winner.refinement_rounds,
            baseline: profile.baseline.clone(),
            search: self.search_stats(),
            refine_candidates: winner.refine_candidates,
        })
    }

    /// Plans with an explicit technique set against a shared profile,
    /// one named phase at a time: initial assignment (§III-D step 1),
    /// donor minting, device mapping (§III-C), D2D coverage, the
    /// feasibility loop (Fig. 5 step 5) and refinement (§III-D step 2).
    /// Returns the finished space and its plan.
    fn plan_with<'p>(
        &'p self,
        opts: OptimizationSet,
        profile: &'p Profile,
    ) -> Result<(ChoiceSpace<'p>, InstrumentationPlan), SimError> {
        let peaks = &profile.baseline.device_peak[..self.lowered.graph.n_stages()];
        let cap = self.capacity_target();
        let overflow: Vec<Bytes> = peaks.iter().map(|&p| p.saturating_sub(cap)).collect();
        let mut space = ChoiceSpace::new(self, opts, &profile.classes);
        space.assign_initial(&overflow);
        space.mint_donors(&overflow);
        space.map_devices(peaks, &overflow);
        space.cover_with_d2d(&overflow);
        space.settle()?;
        let plan = if (opts.d2d || opts.recompute) && self.config.refine_iters > 0 {
            space.refine()?
        } else {
            space.emit(&space.at)?
        };
        Ok((space, plan))
    }

    /// Memory target per device after workspace headroom.
    pub fn capacity_target(&self) -> Bytes {
        self.machine
            .gpu()
            .usable_memory()
            .scale(1.0 - self.config.headroom)
    }
}

/// The phases, in the order [`Planner::plan_with`] runs them.
impl ChoiceSpace<'_> {
    /// Initial assignment (§III-D step 1): on each overflowing stage,
    /// classes take their best static choice, cheapest first, until the
    /// overflow is covered (every class, in exhaustive-swap mode).
    fn assign_initial(&mut self, overflow: &[Bytes]) {
        let (planner, classes) = (self.planner, self.classes);
        // The per-tensor cost model hides a swap behind its live interval,
        // but every host swap also occupies the stage's PCIe copy engine.
        // Steady-state 1F1B repeats one microbatch cycle per stage, so the
        // per-cycle copy demand must fit inside the cycle's compute time —
        // latency hiding needs slack, so utilization is kept near half.
        let m_count = planner.job.microbatches() as f64;
        for (stage, &overflow) in overflow.iter().enumerate() {
            if overflow.is_zero() {
                continue;
            }
            let cycle =
                planner.job.stage_forward_time(stage) + planner.job.stage_backward_time(stage);
            let channel_budget = 0.5 * cycle;
            let on_stage = (0..classes.len()).filter(|&i| classes[i].stage == stage);
            let mut remaining = overflow;
            let mut pcie_load = 0.0;
            for (i, chosen) in self.cheapest_first(on_stage) {
                if remaining.is_zero() && !planner.config.exhaustive_swap {
                    break;
                }
                let Some(mut ch) = chosen else {
                    continue;
                };
                let class = &classes[i];
                if let Choice::HostSwap { tier, .. } = ch {
                    // Activations round-trip once per microbatch; statics
                    // amortize their single round trip over the window.
                    let legs_per_cycle = class.instances.len() as f64 / m_count;
                    let extra = legs_per_cycle
                        * planner.machine.pcie_transfer_time(class.bytes_per_instance);
                    // A saturated copy engine: fall back to recomputation
                    // when allowed, else accept the queued swap with its
                    // exposure made explicit.
                    let saturated = pcie_load + extra > channel_budget;
                    if saturated && self.opts.recompute && class.recomputable() {
                        ch = self.recompute(class);
                    } else {
                        if saturated {
                            let overhead = extra.max(ch.overhead());
                            ch = Choice::HostSwap { overhead, tier };
                        }
                        pcie_load += extra;
                    }
                }
                remaining = remaining.saturating_sub(class.peak_saving());
                self.at.choice[i] = ch;
            }
        }
    }

    /// Donor minting. D2D needs spare peer memory, and a stage sitting
    /// exactly at capacity after compaction donates nothing. Long-lived
    /// statics (optimizer states, weight stashes) swap to the host for
    /// free — one hidden round trip per window — so when D2D is on the
    /// table, offload them everywhere to mint donor space (the paper's
    /// Table IV shows GPU-CPU swap spanning stages 0-7 for this reason).
    fn mint_donors(&mut self, overflow: &[Bytes]) {
        if !(self.opts.d2d && self.opts.host_swap && overflow.iter().any(|o| !o.is_zero())) {
            return;
        }
        for (i, class) in self.classes.iter().enumerate() {
            if self.at.choice[i].is_assigned() || !class.swappable || class.recomputable() {
                continue;
            }
            if let Some(ch @ Choice::HostSwap { overhead, .. }) = self.best_static_choice(class) {
                if overhead <= 1e-9 {
                    self.at.choice[i] = ch;
                    self.minted.push(i);
                }
            }
        }
    }

    /// Device mapping (§III-C) with post-compaction spare: the memory
    /// left for D2D donation is what remains AFTER recompute and host
    /// swap have done their work — at 15B+ every stage's raw peak
    /// overflows, yet compacted late stages donate plenty (that is how
    /// the paper's Table IV shows D2D at 20.4B).
    fn map_devices(&mut self, peaks: &[Bytes], overflow: &[Bytes]) {
        let cap = self.planner.capacity_target();
        let spare: Vec<Bytes> = (0..peaks.len())
            .map(|stage| {
                let projected = peaks[stage].saturating_sub(self.covered(stage));
                cap.scale(0.97).saturating_sub(projected)
            })
            .collect();
        let search = MappingSearch::new(self.planner.machine);
        self.spare = if self.opts.d2d && self.planner.config.mapping_search {
            let (map, assignment, _) = search.search(overflow, &spare);
            self.device_map = map;
            assignment
        } else {
            search.assign_spare(&self.device_map, overflow, &spare)
        };
        self.at.budgets = self.spare.per_stage.clone();
    }

    /// D2D coverage of leftover overflow, shortest-lived classes first:
    /// D2D is the only technique whose latency they can hide (§III-A).
    fn cover_with_d2d(&mut self, overflow: &[Bytes]) {
        if !self.opts.d2d {
            return;
        }
        let classes = self.classes;
        for (stage, &overflow) in overflow.iter().enumerate() {
            let mut remaining = overflow.saturating_sub(self.covered(stage));
            if remaining.is_zero() {
                continue;
            }
            let mut unassigned: Vec<usize> = (0..classes.len())
                .filter(|&i| classes[i].stage == stage && classes[i].swappable)
                .filter(|&i| !self.at.choice[i].is_assigned())
                .collect();
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
                if reserve_budget(&classes[i], &mut self.at.budgets[stage]) {
                    self.at.choice[i] = Choice::D2d;
                    remaining = remaining.saturating_sub(classes[i].peak_saving());
                }
            }
        }
    }

    /// Emulator feasibility loop (paper Fig. 5 step 5). Static estimates
    /// under-predict dynamic residency (swap-out lag, in-flight copies),
    /// so the emulator arbitrates: while the window still overflows,
    /// assign the cheapest remaining class on the failing stage — D2D
    /// while its donors have budget, else its best static choice — and
    /// re-run. The paper's planner/rewriter/emulator loop "runs
    /// throughout a series of iterations to converge".
    fn settle(&mut self) -> Result<(), SimError> {
        if !(self.opts.recompute || self.opts.host_swap || self.opts.d2d) {
            return Ok(());
        }
        for _ in 0..64 {
            let plan = self.emit(&self.at)?;
            let (metric, oom) = self.planner.emulate(&plan, &self.device_map)?;
            if !metric.oom {
                break;
            }
            self.refinement_rounds += 1;
            let Some(stage) = oom
                .and_then(|e| e.device)
                .and_then(|d| self.device_map.stage_of(d))
            else {
                break; // host pool exhausted — nothing to reassign
            };
            let classes = self.classes;
            let unassigned = (0..classes.len())
                .filter(|&i| classes[i].stage == stage && !self.at.choice[i].is_assigned());
            let ranked = self.cheapest_first(unassigned);
            let fixed = ranked.into_iter().find_map(|(i, chosen)| {
                if self.opts.d2d && reserve_budget(&classes[i], &mut self.at.budgets[stage]) {
                    return Some((i, Choice::D2d));
                }
                chosen.map(|ch| (i, ch))
            });
            let Some((i, ch)) = fixed else {
                break; // genuinely infeasible with the allowed techniques
            };
            self.at.choice[i] = ch;
        }
        Ok(())
    }

    /// Refinement (§III-D step 2) from the current point: the frontier
    /// walk, then the portfolio checks. Every candidate goes through
    /// [`Best::offer`], which moves the space to it when it wins; each
    /// counts one round. Returns the incumbent's plan.
    fn refine(&mut self) -> Result<InstrumentationPlan, SimError> {
        let plan = self.emit(&self.at)?;
        let (metric, _) = self.planner.emulate(&plan, &self.device_map)?;
        let mut best = Best { plan, metric };
        let mut since_commit = 0;
        // Best-first frontier search (DESIGN.md §13b): popping any trial
        // of a victim marks it tried; a commit re-bases the frontier on
        // the new incumbent, so the walk ends when the frontier runs
        // dry. A trial's plan is emitted only when it is popped.
        let victims = self.victims(self.planner.config.refine_iters);
        if !victims.is_empty() {
            let mut frontier = Frontier::new(self, victims, &best.plan)?;
            while let Some(((lb_bits, ckey, key), trial)) = frontier.trials.pop_first() {
                frontier.victims.retain(|&v| v != trial.victim);
                since_commit += 1;
                self.refinement_rounds += 1;
                let point = self.point_of(trial);
                let plan = self.emit(&point)?;
                // The frontier holds trials of the current incumbent
                // only, so the emitted plan is the one that was keyed
                // and bounded from its changes.
                debug_assert_eq!(gate::cache_key(&plan, &self.device_map), key);
                debug_assert_eq!(gate::canon_key(&plan, &self.device_map), ckey);
                debug_assert_eq!(
                    self.planner.lower_bound(&plan, &self.device_map).to_bits(),
                    lb_bits
                );
                let keyed = Some((key, f64::from_bits(lb_bits)));
                let (gate, map) = (best.metric, &self.device_map);
                if best.offer(self.planner, &mut self.at, (point, plan), map, gate, keyed)? {
                    self.refine_candidates.push(since_commit);
                    since_commit = 0;
                    frontier.rebase(self, &best.plan)?;
                }
            }
        }
        if since_commit > 0 {
            self.refine_candidates.push(since_commit);
        }
        // Portfolio checks, each one emit away from the incumbent and a
        // commit window of its own. A: minting donor space may not have
        // paid off at all — strip every unswitched minted offload. B: the
        // greedy start can over-commit to host swaps whose queuing the
        // estimates miss — prefer recomputation wherever it applies (this
        // also guarantees full MPress never loses to its own recomputation
        // baseline).
        for prefer_recompute in [false, true] {
            let mut choice = self.at.choice.clone();
            for (i, class) in self.classes.iter().enumerate() {
                if !matches!(choice[i], Choice::HostSwap { .. }) {
                    continue;
                }
                if !prefer_recompute && self.minted.contains(&i) {
                    choice[i] = Choice::None;
                } else if prefer_recompute && self.opts.recompute && class.recomputable() {
                    choice[i] = self.recompute(class);
                }
            }
            if choice == self.at.choice {
                continue;
            }
            let point = Point {
                choice,
                budgets: self.at.budgets.clone(),
            };
            let plan = self.emit(&point)?;
            self.refinement_rounds += 1;
            self.refine_candidates.push(1);
            let (gate, map) = (best.metric, &self.device_map);
            best.offer(self.planner, &mut self.at, (point, plan), map, gate, None)?;
        }
        Ok(best.plan)
    }
}

/// The refinement frontier: the incumbent's trials for every victim not
/// yet tried, keyed by `(lb_bits, canon_key, exact_key)` — lowest
/// certified makespan bound first, digest tie-breaks (first insert wins)
/// making the order a pure function of the trial set. All three are
/// computed from the trial's changes against the incumbent, with the
/// bits a full pass over the emitted plan would give. A popped trial
/// hands its exact key and bound on to the gate chain.
struct Frontier {
    /// The victims not yet tried.
    victims: Vec<usize>,
    trials: BTreeMap<(u64, u64, u64), Trial>,
    /// The incumbent's bound pass.
    bound: BoundBase,
}

impl Frontier {
    /// The trials of `victims` around the space's current point, whose
    /// plan is `plan`.
    fn new(
        space: &ChoiceSpace,
        victims: Vec<usize>,
        plan: &InstrumentationPlan,
    ) -> Result<Self, SimError> {
        let (p, map) = (space.planner, &space.device_map);
        let (bound, visits) = p
            .arenas
            .with(|arena| arena.bound_base(p.machine, &p.lowered.graph, plan, map));
        add(&p.cache.bound_node_visits, visits);
        let mut frontier = Frontier {
            victims,
            trials: BTreeMap::new(),
            bound,
        };
        frontier.enqueue(space, plan)?;
        Ok(frontier)
    }

    /// Moves the frontier onto the committed incumbent `plan`: drops the
    /// replaced incumbent's trials, carries the bound pass over instead
    /// of redoing it, and enqueues the untried victims' trials.
    fn rebase(&mut self, space: &ChoiceSpace, plan: &InstrumentationPlan) -> Result<(), SimError> {
        let (p, map) = (space.planner, &space.device_map);
        self.trials.clear();
        let bound = &mut self.bound;
        let visits = p
            .arenas
            .with(|arena| arena.rebase(bound, p.machine, &p.lowered.graph, plan, map));
        add(&p.cache.bound_node_visits, visits);
        self.enqueue(space, plan)
    }

    /// Keys, bounds and queues the victims' trials against `plan`.
    fn enqueue(&mut self, space: &ChoiceSpace, plan: &InstrumentationPlan) -> Result<(), SimError> {
        let (p, map) = (space.planner, &space.device_map);
        let digests = Digests::new(plan, map, p.machine.gpu_count());
        for &victim in &self.victims {
            for trial in space.trials(victim) {
                let changes = space.trial_changes(&trial)?;
                let (key, ckey) = digests.keys(plan, &changes);
                let (lb, visits) = p.arenas.with(|arena| {
                    arena.trial_bound(&mut self.bound, p.machine, &p.lowered.graph, map, &changes)
                });
                add(&p.cache.bound_node_visits, visits);
                add(&p.cache.trials_enqueued, 1);
                self.trials
                    .entry((lb.to_bits(), ckey, key))
                    .or_insert(trial);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpress_model::{ModelFamily, PrecisionPolicy, TransformerConfig};
    use mpress_pipeline::{PipelineJob, ScheduleKind};

    pub(super) fn small_job() -> PipelineJob {
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

    #[test]
    fn optimization_presets() {
        assert!(OptimizationSet::all().d2d);
        assert!(!OptimizationSet::recompute_only().host_swap);
        assert!(OptimizationSet::d2d_only().d2d);
        assert!(!OptimizationSet::none().recompute);
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
