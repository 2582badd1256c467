//! One portfolio variant's choice space: a technique choice per tensor
//! class, the donor budgets D2D choices reserve from, and what every
//! phase and the refinement walk ask of them.

use super::gate::{add, Changes};
use super::{OptimizationSet, Planner};
use crate::mapping::SpareAssignment;
use crate::profiler::TensorClass;
use mpress_compaction::{CostModel, HostTier, InstrumentationPlan, MemoryDirective, StripePlan};
use mpress_hw::{Bytes, DeviceId, Secs};
use mpress_sim::{DeviceMap, SimError};

/// Per-class planning state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Choice {
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
    pub(super) fn overhead(self) -> Secs {
        match self {
            Choice::None | Choice::D2d => 0.0,
            Choice::Recompute { overhead } | Choice::HostSwap { overhead, .. } => overhead,
        }
    }

    pub(super) fn is_assigned(self) -> bool {
        self != Choice::None
    }
}

/// A choice per class and, per stage, the donors its D2D choices draw
/// from: `(device, lanes, budget left)`.
pub(super) struct Point {
    pub(super) choice: Vec<Choice>,
    pub(super) budgets: Vec<Vec<(DeviceId, u32, Bytes)>>,
}

/// One emulator-verified replacement attempt for a refinement victim:
/// the choice it tries in place of the incumbent's plus (for D2D
/// re-routes) its stage's donors after the trial's reservation.
pub(super) struct Trial {
    pub(super) victim: usize,
    pub(super) replacement: Choice,
    donors: Option<Vec<(DeviceId, u32, Bytes)>>,
}

/// One portfolio variant's choice space and its current point.
pub(super) struct ChoiceSpace<'p> {
    pub(super) planner: &'p Planner<'p>,
    pub(super) opts: OptimizationSet,
    cost: CostModel,
    pub(super) classes: &'p [TensorClass],
    /// The current point: the incumbent once refinement starts.
    pub(super) at: Point,
    /// Classes offloaded to the host only to mint donor space.
    pub(super) minted: Vec<usize>,
    /// The stage→device map (identity until the mapping phase).
    pub(super) device_map: DeviceMap,
    /// The donors the mapping phase assigned (`MpressPlan::spare`).
    pub(super) spare: SpareAssignment,
    /// `MpressPlan::refinement_rounds` so far.
    pub(super) refinement_rounds: usize,
    /// `MpressPlan::refine_candidates` so far.
    pub(super) refine_candidates: Vec<usize>,
}

impl<'p> ChoiceSpace<'p> {
    /// Nothing assigned, no donors, the identity map.
    pub(super) fn new(
        planner: &'p Planner<'p>,
        opts: OptimizationSet,
        classes: &'p [TensorClass],
    ) -> Self {
        ChoiceSpace {
            planner,
            opts,
            cost: CostModel::new(planner.machine.clone()),
            classes,
            at: Point {
                choice: vec![Choice::None; classes.len()],
                budgets: Vec::new(),
            },
            minted: Vec::new(),
            device_map: DeviceMap::identity(planner.lowered.graph.n_stages()),
            spare: SpareAssignment::default(),
            refinement_rounds: 0,
            refine_candidates: Vec::new(),
        }
    }

    /// Recomputation of `class`, with its estimated overhead.
    pub(super) fn recompute(&self, class: &TensorClass) -> Choice {
        Choice::Recompute {
            overhead: self.cost.recompute(class.recompute_time).overhead,
        }
    }

    /// The host swap for one class. It lands in DRAM while the host pool
    /// has room for the class's projected swap footprint and on NVMe (when
    /// the machine has one) beyond. The projection is conservative (every
    /// instance resident off-GPU at once), which is exactly the capacity
    /// planners must guarantee.
    fn host_swap(&self, class: &TensorClass) -> Choice {
        let machine = self.planner.machine;
        let projected = class.bytes_per_instance * class.instances.len() as u64;
        // Keep 10% of host DRAM free for pinned staging buffers.
        let budget = machine.cpu().memory.scale(0.9);
        let (bytes, interval) = (class.bytes_per_instance, class.live_interval);
        let (tier, c) = if machine.nvme().is_some() && projected > budget {
            (HostTier::Nvme, self.cost.nvme_swap(bytes, interval))
        } else {
            (HostTier::Dram, self.cost.gpu_cpu_swap(bytes, interval))
        };
        Choice::HostSwap {
            overhead: c.overhead,
            tier,
        }
    }

    /// Best non-D2D technique for a class, or `None` when nothing applies.
    /// Host swaps land in DRAM while the pinned pool lasts and spill to
    /// the slower NVMe tier after (the §V hierarchy: slower levels for
    /// longer-lived data).
    pub(super) fn best_static_choice(&self, class: &TensorClass) -> Option<Choice> {
        let mut best = (self.opts.host_swap && class.swappable).then(|| self.host_swap(class));
        if self.opts.recompute && class.recomputable() {
            let recompute = self.recompute(class);
            if best.is_none_or(|b| recompute.overhead() < b.overhead()) {
                best = Some(recompute);
            }
        }
        best
    }

    /// `classes` with their best static choices, cheapest first:
    /// estimated overhead ascending (no static choice last), then peak
    /// saving descending. The sort is stable.
    pub(super) fn cheapest_first(
        &self,
        classes: impl Iterator<Item = usize>,
    ) -> Vec<(usize, Option<Choice>)> {
        let mut ranked: Vec<(usize, Option<Choice>)> = classes
            .map(|i| (i, self.best_static_choice(&self.classes[i])))
            .collect();
        let overhead = |chosen: Option<Choice>| chosen.map_or(f64::INFINITY, Choice::overhead);
        let saving = |i: usize| self.classes[i].peak_saving();
        ranked.sort_by(|a, b| {
            let by_overhead = overhead(a.1).partial_cmp(&overhead(b.1));
            let by_overhead = by_overhead.expect("finite overheads");
            by_overhead.then(saving(b.0).cmp(&saving(a.0)))
        });
        ranked
    }

    /// Peak bytes the assigned classes of one stage save.
    pub(super) fn covered(&self, stage: usize) -> Bytes {
        self.classes
            .iter()
            .zip(&self.at.choice)
            .filter(|(c, ch)| c.stage == stage && ch.is_assigned())
            .map(|(c, _)| c.peak_saving())
            .sum()
    }

    /// Materializes `point` into per-tensor directives. D2D stripes are
    /// rebuilt deterministically from the (already reserved) budgets.
    pub(super) fn emit(&self, point: &Point) -> Result<InstrumentationPlan, SimError> {
        add(&self.planner.cache.plan_emits, 1);
        // Collected, then bulk-built: the plan's map keeps the last
        // directive of a repeated tensor, as repeated `assign` would.
        let mut directives = Vec::new();
        for (class, &chosen) in self.classes.iter().zip(&point.choice) {
            if let Some(directive) = self.directive(class, chosen, &point.budgets[class.stage])? {
                directives.extend(class.instances.iter().map(|&t| (t, directive.clone())));
            }
        }
        Ok(directives.into_iter().collect())
    }

    /// The directive `emit` gives every instance of `class` under
    /// `chosen`, striping a D2D choice over `donors` (`None` for no
    /// directive).
    fn directive(
        &self,
        class: &TensorClass,
        chosen: Choice,
        donors: &[(DeviceId, u32, Bytes)],
    ) -> Result<Option<MemoryDirective>, SimError> {
        Ok(Some(match chosen {
            Choice::None => return Ok(None),
            Choice::Recompute { .. } => MemoryDirective::Recompute,
            Choice::HostSwap { tier, .. } => MemoryDirective::SwapToHost(tier),
            Choice::D2d => {
                let stripe = self
                    .stripe_over(class.bytes_per_instance, donors)
                    .ok_or_else(|| {
                        SimError::BadPlan(format!("no donors available for stage {}", class.stage))
                    })?;
                stripe
                    .validate(
                        self.device_map.device_of(class.stage),
                        self.planner.machine.topology(),
                    )
                    .map_err(SimError::BadPlan)?;
                MemoryDirective::SwapD2d(stripe)
            }
        }))
    }

    /// Builds the stripe layout for one instance over a stage's donors.
    fn stripe_over(&self, bytes: Bytes, donors: &[(DeviceId, u32, Bytes)]) -> Option<StripePlan> {
        let active: Vec<(DeviceId, u32)> = active_donors(donors).collect();
        if active.is_empty() {
            return None;
        }
        if self.planner.config.striping {
            Some(StripePlan::weighted(bytes, &active))
        } else {
            // Ablation: no striping — the whole tensor goes to the widest
            // single donor.
            let &(d, l) = active.iter().max_by_key(|&&(_, l)| l).expect("non-empty");
            Some(StripePlan::single(bytes, d, l))
        }
    }

    /// Refinement victims: every assigned class but the D2D ones, the
    /// largest estimated overhead first, then the largest saving; at
    /// most `limit`. Estimated overheads order them, but queuing delays
    /// the estimates miss are caught by the emulator, so zero-estimate
    /// classes are still worth trying.
    pub(super) fn victims(&self, limit: usize) -> Vec<usize> {
        let choice = &self.at.choice;
        let mut victims: Vec<usize> = (0..self.classes.len())
            .filter(|&i| choice[i].is_assigned() && choice[i] != Choice::D2d)
            .collect();
        let saving = |i: usize| self.classes[i].peak_saving();
        victims.sort_by(|&a, &b| {
            let by_overhead = choice[b].overhead().partial_cmp(&choice[a].overhead());
            let by_overhead = by_overhead.expect("finite overheads");
            by_overhead.then(saving(b).cmp(&saving(a)))
        });
        victims.truncate(limit);
        victims
    }

    /// The emulator-verified replacement trials for one refinement
    /// victim, in a fixed deterministic order (the frontier tie-breaks
    /// take over from there).
    pub(super) fn trials(&self, victim: usize) -> Vec<Trial> {
        let class = &self.classes[victim];
        let chosen = self.at.choice[victim];
        let trial = |replacement, donors| Trial {
            victim,
            replacement,
            donors,
        };
        let mut trials: Vec<Trial> = Vec::with_capacity(6);
        // Candidate: a minted donor offload that turned out to cost
        // critical-path time can simply be undone (the emulator rejects
        // the trial if the memory was needed).
        if self.minted.contains(&victim) {
            trials.push(trial(Choice::None, None));
        }
        // Candidate: re-route through NVLink to spare peers.
        if self.opts.d2d && class.swappable {
            let mut donors = self.at.budgets[class.stage].clone();
            if reserve_budget(class, &mut donors) {
                trials.push(trial(Choice::D2d, Some(donors)));
            }
        }
        // Candidate: a queued host swap may lose to recomputation.
        if self.opts.recompute && class.recomputable() && matches!(chosen, Choice::HostSwap { .. })
        {
            trials.push(trial(self.recompute(class), None));
        }
        // Candidate: the reverse — recomputation contending with
        // backward compute may lose to an overlappable host swap.
        if self.opts.host_swap && class.swappable && matches!(chosen, Choice::Recompute { .. }) {
            trials.push(trial(self.host_swap(class), None));
        }
        trials
    }

    /// The point `trial` moves to: the current point with the victim's
    /// choice replaced and, when the trial reserved donors, its stage's
    /// budgets too.
    pub(super) fn point_of(&self, trial: Trial) -> Point {
        let mut point = Point {
            choice: self.at.choice.clone(),
            budgets: self.at.budgets.clone(),
        };
        point.choice[trial.victim] = trial.replacement;
        if let Some(donors) = trial.donors {
            point.budgets[self.classes[trial.victim].stage] = donors;
        }
        point
    }

    /// What `trial` changes in the plan `emit` produces at the current
    /// point, without emitting either plan: the victim's instances take
    /// the replacement's directive, and when a D2D re-route's
    /// reservation changes which donors of its stage have budget left,
    /// every other D2D class of that stage is re-striped over them.
    pub(super) fn trial_changes(&self, trial: &Trial) -> Result<Changes, SimError> {
        let stage = self.classes[trial.victim].stage;
        let donors = trial.donors.as_deref().unwrap_or(&self.at.budgets[stage]);
        let restriped = !active_donors(&self.at.budgets[stage]).eq(active_donors(donors));
        let mut changes = Vec::new();
        // Class order, so the first failing stripe is the one `emit`
        // would have reported.
        for (i, class) in self.classes.iter().enumerate() {
            let chosen = if i == trial.victim {
                trial.replacement
            } else if restriped && class.stage == stage && self.at.choice[i] == Choice::D2d {
                Choice::D2d
            } else {
                continue;
            };
            let directive = self.directive(class, chosen, donors)?;
            changes.extend(class.instances.iter().map(|&t| (t, directive.clone())));
        }
        changes.sort_unstable_by_key(|&(t, _)| t);
        Ok(changes)
    }
}

/// The donors a stripe is laid over: those with budget left, as
/// `(device, lanes)`.
fn active_donors(donors: &[(DeviceId, u32, Bytes)]) -> impl Iterator<Item = (DeviceId, u32)> + '_ {
    donors
        .iter()
        .filter(|&&(_, _, b)| !b.is_zero())
        .map(|&(d, l, _)| (d, l))
}

/// Reserves donor budget for a whole class (all peak-resident instances).
/// Returns false (reserving nothing) when the donors cannot absorb it.
pub(super) fn reserve_budget(class: &TensorClass, donors: &mut [(DeviceId, u32, Bytes)]) -> bool {
    let total: Bytes = donors.iter().map(|&(_, _, b)| b).sum();
    let need = class.peak_saving();
    if total < need {
        return false;
    }
    // Drain donors proportionally to their lane width (mirrors the
    // weighted stripe the emit phase builds).
    let lane_sum: u32 = active_donors(donors).map(|(_, lanes)| lanes).sum();
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

#[cfg(test)]
mod tests {
    use super::super::gate::tests::overlaid;
    use super::super::gate::{cache_key, canon_key, Digests};
    use super::super::tests::small_job;
    use super::super::PlannerConfig;
    use super::*;
    use crate::profiler::{Profile, TensorClassKind};
    use mpress_hw::Machine;

    fn kind(choice: Choice) -> &'static str {
        match choice {
            Choice::None => "none",
            Choice::Recompute { .. } => "recompute",
            Choice::HostSwap { .. } => "host",
            Choice::D2d => "d2d",
        }
    }

    #[test]
    fn trial_changes_key_and_rebuild_the_emitted_trial_plan() {
        // Stage 0 of the small job, with every trial kind in play: an
        // activation on host swap (-> D2D, -> recompute), one recomputed
        // (-> host swap), a minted optimizer offload (-> none, -> D2D),
        // and an optimizer state already on D2D, whose stripe a re-route
        // re-lays when the reservation drains the narrow donor. DGX-2
        // donates from GPUs the 8-stage map leaves out.
        for machine in [Machine::dgx1(), Machine::dgx2()] {
            let job = small_job();
            let lowered = job.lower().unwrap();
            let planner = Planner::new(&machine, &job, &lowered, PlannerConfig::default());
            let profile = Profile::collect(&machine, &job, &lowered).unwrap();
            let classes = &profile.classes;
            let mut space = ChoiceSpace::new(&planner, OptimizationSet::all(), classes);
            let on_stage_0 = |kind: fn(&TensorClass) -> bool| -> Vec<usize> {
                (0..classes.len())
                    .filter(|&i| classes[i].stage == 0 && classes[i].swappable && kind(&classes[i]))
                    .collect()
            };
            let acts = on_stage_0(|c| c.recomputable());
            let states = on_stage_0(|c| matches!(c.kind, TensorClassKind::OptimizerState { .. }));
            assert!(acts.len() >= 2 && states.len() >= 2, "{acts:?} {states:?}");
            space.at.choice[acts[0]] = space.host_swap(&classes[acts[0]]);
            space.at.choice[acts[1]] = Choice::Recompute { overhead: 0.0 };
            space.at.choice[states[0]] = space.host_swap(&classes[states[0]]);
            space.at.choice[states[1]] = Choice::D2d;
            space.minted = vec![states[0]];
            assert_eq!(space.device_map, DeviceMap::identity(8));
            let map = &space.device_map;
            let mut donors = machine
                .topology()
                .neighbors(DeviceId(0))
                .into_iter()
                .filter(|&(d, _)| machine.gpu_count() == 8 || d.0 >= 8);
            let (wide, narrow) = (donors.next().unwrap(), donors.next().unwrap());
            space.at.budgets = vec![Vec::new(); 8];
            space.at.budgets[0] = vec![
                (wide.0, wide.1, Bytes::gib(64)),
                (narrow.0, narrow.1, Bytes::mib(1)),
            ];
            let incumbent = space.emit(&space.at).unwrap();
            let digests = Digests::new(&incumbent, map, machine.gpu_count());
            let mut kinds = Vec::new();
            let mut restriped = false;
            for victim in [acts[0], acts[1], states[0]] {
                for trial in space.trials(victim) {
                    let changes = space.trial_changes(&trial).unwrap();
                    let replacement = trial.replacement;
                    let emitted = space.emit(&space.point_of(trial)).unwrap();
                    assert_eq!(overlaid(&incumbent, &changes), emitted);
                    assert_eq!(
                        digests.keys(&incumbent, &changes),
                        (cache_key(&emitted, map), canon_key(&emitted, map))
                    );
                    restriped |= changes.len() > classes[victim].instances.len();
                    kinds.push((kind(space.at.choice[victim]), kind(replacement)));
                }
            }
            assert!(restriped, "no re-route re-laid a stripe");
            kinds.sort();
            kinds.dedup();
            assert_eq!(
                kinds,
                [
                    ("host", "d2d"),
                    ("host", "none"),
                    ("host", "recompute"),
                    ("recompute", "d2d"),
                    ("recompute", "host")
                ]
            );
        }
    }

    #[test]
    fn reserve_budget_drains_proportionally() {
        let class = TensorClass {
            stage: 0,
            kind: TensorClassKind::Activation { layer: Some(0) },
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
            kind: TensorClassKind::Stash,
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
}
