//! Analytic makespan bounds over a plan, computed on a [`SimArena`].
//!
//! The lower bound the planner uses to order and prune refinement
//! candidates (FlexFlow-style search pruning) is the max of the op
//! dependency graph's critical path (per-stream FIFO chains plus
//! cross-stage dependencies) and each copy engine's total transfer
//! time, both of which every simulated schedule must respect.
//!
//! [`SimArena::cost_profile`] computes it from scratch. A refinement
//! trial differs from its incumbent in a few directives, so the planner
//! keeps the incumbent's pass in a [`BoundBase`] and bounds each trial
//! with [`SimArena::trial_bound`], which redoes only what the changed
//! directives reach and still returns the from-scratch bits (DESIGN.md
//! §13c).

use crate::arena::{tables_for, BitSet, Csr, Prebuilt, SimArena};
use crate::device_map::DeviceMap;
use mpress_compaction::{HostTier, InstrumentationPlan, MemoryDirective};
use mpress_graph::{TensorId, TrainingGraph};
use mpress_hw::{Machine, Secs};

/// Marks an op that no topological order reaches (it sits on a cycle).
const OFF_ORDER: usize = usize::MAX;

/// The op dependency DAG of one graph in the form the critical-path pass
/// walks: consecutive ops on one FIFO stream (compute/comm per stage)
/// and the graph's cross-stage dependencies are edges, successor and
/// predecessor lists are stored flat, and `order` is the visit order of
/// Kahn's algorithm.
///
/// None of it depends on the plan, so one build serves every bound. A
/// node's start time is the `max` of its predecessors' finish times and
/// `max` is exact in floating point, so a pass in this fixed order gives
/// bit-for-bit the start times a per-call Kahn walk would.
pub(crate) struct BoundDag {
    /// Topological visit order (nodes on a cycle never appear).
    order: Vec<usize>,
    /// op -> its index in `order`, or [`OFF_ORDER`].
    pos: Vec<usize>,
    /// op -> its successors.
    succ: Csr,
    /// op -> its predecessors.
    pred: Csr,
    /// Ordered nodes with no ordered successor. Durations are never
    /// negative, so a finish time never falls along a path, and the
    /// latest of these finishes is the latest of all.
    terminals: Vec<usize>,
}

impl BoundDag {
    pub(crate) fn build(pre: &Prebuilt, graph: &TrainingGraph) -> Self {
        let n_ops = pre.n_ops;
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n_ops];
        let mut pred: Vec<Vec<usize>> = vec![Vec::new(); n_ops];
        let mut edge = |a: usize, b: usize| {
            succ[a].push(b);
            pred[b].push(a);
        };
        for stage in 0..graph.n_stages() {
            for seq in [&pre.compute_seq[stage], &pre.comm_seq[stage]] {
                for w in seq.windows(2) {
                    edge(w[0], w[1]);
                }
            }
        }
        for &(a, b) in graph.cross_deps() {
            edge(a.index(), b.index());
        }
        let mut indeg: Vec<usize> = pred.iter().map(Vec::len).collect();
        let mut order = Vec::with_capacity(n_ops);
        let mut queue: Vec<usize> = (0..n_ops).filter(|&i| indeg[i] == 0).collect();
        while let Some(u) = queue.pop() {
            order.push(u);
            for &v in &succ[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        let mut pos = vec![OFF_ORDER; n_ops];
        for (p, &u) in order.iter().enumerate() {
            pos[u] = p;
        }
        let terminals = order
            .iter()
            .copied()
            .filter(|&u| succ[u].iter().all(|&v| pos[v] == OFF_ORDER))
            .collect();
        BoundDag {
            order,
            pos,
            succ: Csr::from_lists(succ),
            pred: Csr::from_lists(pred),
            terminals,
        }
    }

    fn successors(&self, op: usize) -> &[usize] {
        &self.succ[op]
    }

    fn predecessors(&self, op: usize) -> &[usize] {
        &self.pred[op]
    }

    /// Longest path in push form, one pass in `order`: fills `start`
    /// and returns the latest finish.
    fn full_pass(&self, dur: &[Secs], start: &mut Vec<Secs>) -> Secs {
        start.clear();
        start.resize(dur.len(), 0.0);
        let mut critical_path = 0.0_f64;
        for &u in &self.order {
            let finish = start[u] + dur[u];
            critical_path = critical_path.max(finish);
            for &v in self.successors(u) {
                if finish > start[v] {
                    start[v] = finish;
                }
            }
        }
        critical_path
    }
}

/// Recycled per-call buffers of the bound passes.
#[derive(Default)]
pub(crate) struct BoundScratch {
    /// tensor -> whether the plan recomputes it.
    recompute: Vec<bool>,
    /// op -> recomputation-folded duration.
    dur: Vec<Secs>,
    /// op -> earliest start on the critical-path pass.
    start: Vec<Secs>,
    /// Positions in `BoundDag::order` still to recompute.
    work: BitSet,
    /// Positions whose op reads a flipped tensor: the only nodes whose
    /// folded duration changes.
    refold: BitSet,
    /// `(op, start, dur)` before a trial overwrote them.
    undo: Vec<(usize, Secs, Secs)>,
    /// Tensors whose recomputation flag a trial flipped.
    flips: Vec<usize>,
}

/// One op's duration with the engine's recomputation folds: the raw
/// duration plus the re-materialization cost of every recomputed input,
/// added in read order.
fn folded(pre: &Prebuilt, recompute: &[bool], op: usize) -> Secs {
    let mut d = pre.op_duration[op];
    for &r in &pre.op_reads[op] {
        if recompute[r] {
            d += pre.recompute_cost[r];
        }
    }
    d
}

/// The copy-engine load one swap directive puts on its home device,
/// expanded into exactly the legs the engine builds (initial export for
/// dynamic tensors, one import per consumer, re-exports between
/// consumers and after statics).
struct CopyLoad {
    /// The home device, or `None` when the map puts it past the
    /// machine's GPUs (the bound stays valid; the run itself errors).
    dev: Option<usize>,
    /// Summed copy-out leg time.
    out: Secs,
    /// Summed copy-in leg time.
    inn: Secs,
    legs: usize,
    /// The leg an eviction re-export would take: plain PCIe (host
    /// directives, both tiers) or the stripe links (D2D), never the NVMe
    /// path — matching `evict_tensor`.
    evict_leg: Secs,
}

/// The [`CopyLoad`] of `(t, d)`, or `None` for a recomputation.
fn copy_load(
    machine: &Machine,
    graph: &TrainingGraph,
    pre: &Prebuilt,
    device_map: &DeviceMap,
    t: TensorId,
    d: &MemoryDirective,
) -> Option<CopyLoad> {
    let i = t.index();
    let (out_dur, in_dur, evict_leg) = match d {
        MemoryDirective::Recompute => return None,
        MemoryDirective::SwapToHost(HostTier::Dram) => {
            let one_way = machine.pcie_transfer_time(pre.bytes[i]);
            (one_way, one_way, one_way)
        }
        MemoryDirective::SwapToHost(HostTier::Nvme) => {
            let pcie = machine.pcie_transfer_time(pre.bytes[i]);
            let out = pcie.max(machine.nvme_transfer_time(pre.bytes[i], true));
            let inn = pcie.max(machine.nvme_transfer_time(pre.bytes[i], false));
            (out, inn, pcie)
        }
        MemoryDirective::SwapD2d(stripe) => {
            let one_way = stripe.one_way_time();
            (one_way, one_way, one_way)
        }
    };
    let tensor = graph.tensor(t);
    let dev = device_map.device_of(tensor.stage).index();
    let is_static = tensor.kind.is_static();
    let n_cons = pre.consumers_of[i].len();
    let outs = usize::from(!is_static)
        + if n_cons > 0 {
            n_cons - 1 + usize::from(is_static)
        } else {
            0
        };
    Some(CopyLoad {
        dev: (dev < machine.gpu_count()).then_some(dev),
        out: outs as f64 * out_dur,
        inn: n_cons as f64 * in_dur,
        legs: outs + n_cons,
        evict_leg,
    })
}

/// Per-device copy-out and copy-in sums, folded in the order loads are
/// added (floating-point addition is not associative, so every caller
/// adds in tensor order).
struct CopySums {
    out: Vec<Secs>,
    inn: Vec<Secs>,
}

impl CopySums {
    fn new(gpus: usize) -> Self {
        CopySums {
            out: vec![0.0; gpus],
            inn: vec![0.0; gpus],
        }
    }

    fn add(&mut self, dev: usize, out: Secs, inn: Secs) {
        self.out[dev] += out;
        self.inn[dev] += inn;
    }

    /// The busiest copy stream's total.
    fn bound(&self) -> Secs {
        self.out
            .iter()
            .chain(&self.inn)
            .fold(0.0_f64, |acc, &x| acc.max(x))
    }
}

/// One incumbent directive's copy load on a real device.
#[derive(Debug, Clone, Copy)]
struct Leg {
    tensor: TensorId,
    dev: usize,
    out: Secs,
    inn: Secs,
}

/// An incumbent plan's lower-bound pass, kept so trials that change a
/// few directives are bounded from it ([`SimArena::trial_bound`]).
///
/// Holds the recomputation set, the folded durations and start times of
/// the critical-path pass, and every directive's copy load. Only the
/// graph's shape and the incumbent's directives go in, so a base built
/// on one arena stays valid on any arena holding the same graph.
#[derive(Debug, Clone)]
pub struct BoundBase {
    fingerprint: u64,
    recompute: Vec<bool>,
    dur: Vec<Secs>,
    start: Vec<Secs>,
    critical_path: Secs,
    /// Copy loads in tensor order (recomputations and off-machine homes
    /// carry none).
    legs: Vec<Leg>,
    copy_bound: Secs,
}

impl BoundBase {
    /// The incumbent's certified makespan lower bound, bit-identical to
    /// [`CostProfile::makespan_lo`] of its plan.
    pub fn makespan_lo(&self) -> Secs {
        self.critical_path.max(self.copy_bound)
    }

    /// Rebuilds the copy loads and their bound from `plan`.
    fn set_legs(
        &mut self,
        machine: &Machine,
        graph: &TrainingGraph,
        pre: &Prebuilt,
        plan: &InstrumentationPlan,
        device_map: &DeviceMap,
    ) {
        let mut sums = CopySums::new(machine.gpu_count());
        self.legs.clear();
        for (tensor, d) in plan.iter() {
            let Some(load) = copy_load(machine, graph, pre, device_map, tensor, d) else {
                continue;
            };
            let Some(dev) = load.dev else { continue };
            sums.add(dev, load.out, load.inn);
            self.legs.push(Leg {
                tensor,
                dev,
                out: load.out,
                inn: load.inn,
            });
        }
        self.copy_bound = sums.bound();
    }
}

/// Re-derives the start and duration of every queued node, in
/// topological position order, from the nodes before it: pull form,
/// `start = max(0, max over preds of finish)`. Only nodes in `refold`
/// (readers of a flipped tensor) re-fold their duration; every other
/// node's folded duration is unchanged. A node whose finish bits change
/// queues its successors; `undo` records each overwritten
/// `(op, start, dur)`. Returns the nodes visited.
fn propagate(
    dag: &BoundDag,
    pre: &Prebuilt,
    base: &mut BoundBase,
    work: &mut BitSet,
    refold: &BitSet,
    undo: &mut Vec<(usize, Secs, Secs)>,
) -> usize {
    let BoundBase {
        recompute,
        dur,
        start,
        ..
    } = base;
    let mut visits = 0;
    let mut next = work.next_at_or_after(0);
    while let Some(p) = next {
        work.remove(p);
        visits += 1;
        let v = dag.order[p];
        let new_dur = if refold.contains(p) {
            folded(pre, recompute, v)
        } else {
            dur[v]
        };
        let mut new_start = 0.0_f64;
        for &u in dag.predecessors(v) {
            let finish = start[u] + dur[u];
            if finish > new_start {
                new_start = finish;
            }
        }
        let (old_start, old_dur) = (start[v], dur[v]);
        if new_start.to_bits() != old_start.to_bits() || new_dur.to_bits() != old_dur.to_bits() {
            undo.push((v, old_start, old_dur));
            start[v] = new_start;
            dur[v] = new_dur;
            if (new_start + new_dur).to_bits() != (old_start + old_dur).to_bits() {
                for &s in dag.successors(v) {
                    if dag.pos[s] != OFF_ORDER {
                        work.insert(dag.pos[s]);
                    }
                }
            }
        }
        next = work.next_at_or_after(p + 1);
    }
    visits
}

/// The latest terminal finish: the critical path.
fn critical_path(dag: &BoundDag, dur: &[Secs], start: &[Secs]) -> Secs {
    dag.terminals
        .iter()
        .fold(0.0_f64, |acc, &u| acc.max(start[u] + dur[u]))
}

/// Flips `t`'s recomputation flag when `recomputed` disagrees with it,
/// queueing every reader of `t` in `work` and marking it in `refold`;
/// returns whether it flipped.
fn toggle(
    dag: &BoundDag,
    pre: &Prebuilt,
    recompute: &mut [bool],
    work: &mut BitSet,
    refold: &mut BitSet,
    t: usize,
    recomputed: bool,
) -> bool {
    if recompute[t] == recomputed {
        return false;
    }
    recompute[t] = recomputed;
    for &op in &pre.consumers_of[t] {
        if dag.pos[op] != OFF_ORDER {
            work.insert(dag.pos[op]);
            refold.insert(dag.pos[op]);
        }
    }
    true
}

impl SimArena {
    /// The analytic cost inputs the bounds pass and the planner's
    /// frontier ordering share, computed in one walk over the plan.
    ///
    /// The lower bound combines two constraints every simulated schedule
    /// must respect:
    ///
    /// * **Critical path** over the op dependency DAG, where consecutive
    ///   ops on one FIFO stream (compute/comm per stage) and cross-stage
    ///   dependencies are edges, and durations carry the same
    ///   recomputation folds the engine applies at build time.
    /// * **Copy-engine load**: each swap directive expands into exactly
    ///   the copy legs the engine builds (initial export for dynamic
    ///   tensors, one import per consumer, re-exports between consumers
    ///   and after statics); each device's copy-in/copy-out stream runs
    ///   its legs serially, so their duration sums bound the makespan.
    ///
    /// The bound ignores memory gating, admission windows and evictions,
    /// all of which only *delay* work — so it stays a true lower bound.
    ///
    /// The upper-bound ingredients mirror the engine's accounting the
    /// other way: the clock only ever advances to a task's completion
    /// time, so the makespan cannot exceed the summed duration of every
    /// task the run can create — the built tasks (ops plus planned swap
    /// legs, [`CostProfile::total_task_time`]) plus the worst-case
    /// eviction tasks (the engine caps evictions at `4 * n_tasks`, each
    /// `try_evict` sweep can add at most one eviction per tensor past
    /// the cap check, and each eviction pushes at most two legs of at
    /// most [`CostProfile::max_evict_leg`] each).
    pub fn cost_profile(
        &mut self,
        machine: &Machine,
        graph: &TrainingGraph,
        plan: &InstrumentationPlan,
        device_map: &DeviceMap,
    ) -> CostProfile {
        let pre = tables_for(&mut self.prebuilt, graph);
        let dag = pre.dag.get_or_init(|| BoundDag::build(pre, graph));
        let BoundScratch {
            recompute,
            dur,
            start,
            ..
        } = &mut self.bound;

        recompute.clear();
        recompute.resize(pre.n_tensors, false);
        for (t, d) in plan.iter() {
            recompute[t.index()] = matches!(d, MemoryDirective::Recompute);
        }
        // Folded durations — identical rule to the engine's task build.
        dur.clear();
        dur.extend((0..pre.n_ops).map(|op| folded(pre, recompute, op)));
        let op_total: Secs = dur.iter().sum();
        let critical_path = dag.full_pass(dur, start);

        // Per-device copy-stream load (leg counts, not schedules). The
        // same walk accumulates the upper-bound ingredients: the summed
        // duration and count of every planned leg, and the worst single
        // eviction leg.
        let mut sums = CopySums::new(machine.gpu_count());
        let mut leg_total = 0.0_f64;
        let mut n_legs = 0usize;
        let mut max_evict_leg = 0.0_f64;
        for (t, d) in plan.iter() {
            let Some(load) = copy_load(machine, graph, pre, device_map, t, d) else {
                continue;
            };
            max_evict_leg = max_evict_leg.max(load.evict_leg);
            let Some(dev) = load.dev else { continue };
            sums.add(dev, load.out, load.inn);
            leg_total += load.out + load.inn;
            n_legs += load.legs;
        }

        CostProfile {
            makespan_lo: critical_path.max(sums.bound()),
            total_task_time: op_total + leg_total,
            n_tasks: pre.n_ops + n_legs,
            n_tensors: pre.n_tensors,
            max_evict_leg,
        }
    }

    /// The lower-bound pass of an incumbent `plan`, kept for
    /// [`SimArena::trial_bound`], plus the DAG nodes it visited (all of
    /// them: this is a full pass).
    pub fn bound_base(
        &mut self,
        machine: &Machine,
        graph: &TrainingGraph,
        plan: &InstrumentationPlan,
        device_map: &DeviceMap,
    ) -> (BoundBase, usize) {
        let pre = tables_for(&mut self.prebuilt, graph);
        let dag = pre.dag.get_or_init(|| BoundDag::build(pre, graph));
        let mut recompute = vec![false; pre.n_tensors];
        for (t, d) in plan.iter() {
            recompute[t.index()] = matches!(d, MemoryDirective::Recompute);
        }
        let dur: Vec<Secs> = (0..pre.n_ops)
            .map(|op| folded(pre, &recompute, op))
            .collect();
        let mut start = Vec::new();
        let critical_path = dag.full_pass(&dur, &mut start);
        let mut base = BoundBase {
            fingerprint: pre.fingerprint,
            recompute,
            dur,
            start,
            critical_path,
            legs: Vec::new(),
            copy_bound: 0.0,
        };
        base.set_legs(machine, graph, pre, plan, device_map);
        (base, dag.order.len())
    }

    /// Moves `base` onto a new incumbent `plan` (a committed trial),
    /// re-deriving only the nodes its recomputation changes reach.
    /// Returns the DAG nodes visited.
    pub fn rebase(
        &mut self,
        base: &mut BoundBase,
        machine: &Machine,
        graph: &TrainingGraph,
        plan: &InstrumentationPlan,
        device_map: &DeviceMap,
    ) -> usize {
        let pre = tables_for(&mut self.prebuilt, graph);
        let dag = pre.dag.get_or_init(|| BoundDag::build(pre, graph));
        debug_assert_eq!(base.fingerprint, pre.fingerprint, "base of another graph");
        let BoundScratch {
            recompute: next,
            work,
            refold,
            undo,
            ..
        } = &mut self.bound;
        next.clear();
        next.resize(pre.n_tensors, false);
        for (t, d) in plan.iter() {
            next[t.index()] = matches!(d, MemoryDirective::Recompute);
        }
        work.clear_resize(dag.order.len());
        refold.clear_resize(dag.order.len());
        for (t, &recomputed) in next.iter().enumerate() {
            toggle(dag, pre, &mut base.recompute, work, refold, t, recomputed);
        }
        undo.clear();
        let visits = propagate(dag, pre, base, work, refold, undo);
        base.critical_path = critical_path(dag, &base.dur, &base.start);
        base.set_legs(machine, graph, pre, plan, device_map);
        visits
    }

    /// The certified makespan lower bound of the incumbent behind `base`
    /// with `changes` laid over it, bit-identical to
    /// [`CostProfile::makespan_lo`] of the changed plan, plus the DAG
    /// nodes visited. `changes` lists `(tensor, new directive or None
    /// for none)` in ascending tensor order, each tensor once.
    ///
    /// A change set that leaves the recomputation set alone keeps the
    /// incumbent's critical path and visits nothing. Otherwise only the
    /// readers of the flipped tensors and the nodes their new finish
    /// times reach are recomputed, in topological order, and `base` is
    /// restored afterwards. The copy bound is re-folded in tensor order
    /// from the cached loads, computing loads for the changed directives
    /// only.
    pub fn trial_bound(
        &mut self,
        base: &mut BoundBase,
        machine: &Machine,
        graph: &TrainingGraph,
        device_map: &DeviceMap,
        changes: &[(TensorId, Option<MemoryDirective>)],
    ) -> (Secs, usize) {
        let pre = tables_for(&mut self.prebuilt, graph);
        let dag = pre.dag.get_or_init(|| BoundDag::build(pre, graph));
        debug_assert_eq!(base.fingerprint, pre.fingerprint, "base of another graph");
        let BoundScratch {
            work,
            refold,
            undo,
            flips,
            ..
        } = &mut self.bound;

        work.clear_resize(dag.order.len());
        refold.clear_resize(dag.order.len());
        flips.clear();
        for (t, d) in changes {
            let recomputed = matches!(d, Some(MemoryDirective::Recompute));
            if toggle(
                dag,
                pre,
                &mut base.recompute,
                work,
                refold,
                t.index(),
                recomputed,
            ) {
                flips.push(t.index());
            }
        }
        let (critical, visits) = if flips.is_empty() {
            (base.critical_path, 0)
        } else {
            undo.clear();
            let visits = propagate(dag, pre, base, work, refold, undo);
            let critical = critical_path(dag, &base.dur, &base.start);
            for &(v, start, dur) in undo.iter().rev() {
                base.start[v] = start;
                base.dur[v] = dur;
            }
            for &t in flips.iter() {
                base.recompute[t] = !base.recompute[t];
            }
            (critical, visits)
        };

        // The copy fold in tensor order: the cached incumbent loads,
        // with each changed tensor's load computed afresh in its place.
        let mut sums = CopySums::new(machine.gpu_count());
        let mut legs = base.legs.iter().peekable();
        let mut pending = changes.iter().peekable();
        loop {
            let leg = legs.peek().copied();
            let Some((t, d)) = pending.peek().copied() else {
                legs.for_each(|leg| sums.add(leg.dev, leg.out, leg.inn));
                break;
            };
            match leg {
                Some(leg) if leg.tensor < *t => {
                    sums.add(leg.dev, leg.out, leg.inn);
                    legs.next();
                    continue;
                }
                Some(leg) if leg.tensor == *t => {
                    legs.next();
                }
                _ => {}
            }
            pending.next();
            let load = d
                .as_ref()
                .and_then(|d| copy_load(machine, graph, pre, device_map, *t, d));
            if let Some(CopyLoad {
                dev: Some(dev),
                out,
                inn,
                ..
            }) = load
            {
                sums.add(dev, out, inn);
            }
        }
        (critical.max(sums.bound()), visits)
    }
}

/// Analytic cost inputs shared by the planner's frontier ordering and
/// the certified-bounds pass, computed by [`SimArena::cost_profile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Certified makespan lower bound (critical path vs copy-engine
    /// load). Sound for *completed* runs only: an out-of-memory run
    /// stops early and may finish below the critical path.
    pub makespan_lo: Secs,
    /// Summed duration of every task the engine builds for this plan:
    /// recomputation-folded op durations plus every planned swap leg.
    pub total_task_time: Secs,
    /// Number of built tasks (ops + planned swap legs) — the base of the
    /// engine's eviction cap.
    pub n_tasks: usize,
    /// Tensor count (bounds the eviction overshoot past the cap check:
    /// one `try_evict` sweep evicts each tensor at most once).
    pub n_tensors: usize,
    /// Worst single eviction leg the engine could create: re-exports
    /// move over plain PCIe (host directives, both tiers) or the stripe
    /// links (D2D), mirroring `evict_tensor`.
    pub max_evict_leg: Secs,
}

impl CostProfile {
    /// Certified makespan upper bound: the clock only advances to task
    /// completion times, every completion time is a sum of distinct task
    /// durations, and the run can create at most
    /// `2 * (4 * n_tasks + n_tensors)` eviction legs on top of the built
    /// tasks. Sound for completed *and* out-of-memory runs.
    pub fn makespan_hi(&self) -> Secs {
        let evict_legs = 2 * (4 * self.n_tasks + self.n_tensors);
        self.total_task_time + evict_legs as f64 * self.max_evict_leg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpress_compaction::StripePlan;
    use mpress_graph::TensorKind;
    use mpress_hw::DeviceId;
    use mpress_model::{ModelFamily, PrecisionPolicy, TransformerConfig};
    use mpress_pipeline::{PipelineJob, ScheduleKind};
    use proptest::prelude::*;

    fn lowered(layers: usize, stages: usize) -> TrainingGraph {
        PipelineJob::builder()
            .model(
                TransformerConfig::builder(ModelFamily::Gpt)
                    .layers(layers)
                    .hidden(512)
                    .seq_len(256)
                    .build(),
            )
            .machine(Machine::dgx1())
            .schedule(ScheduleKind::Dapple)
            .stages(stages)
            .microbatch_size(2)
            .microbatches(4)
            .precision(PrecisionPolicy::mixed())
            .build()
            .unwrap()
            .lower()
            .unwrap()
            .graph
    }

    /// SplitMix64, so one sampled seed drives a whole case.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A random directive for `t`, or none: recomputation only where
    /// the graph allows it.
    fn directive(graph: &TrainingGraph, rng: &mut Rng, t: TensorId) -> Option<MemoryDirective> {
        let tensor = graph.tensor(t);
        match rng.below(5) {
            0 => None,
            1 | 2 if tensor.kind.recomputable() => Some(MemoryDirective::Recompute),
            3 => Some(MemoryDirective::SwapD2d(StripePlan::single(
                tensor.bytes,
                DeviceId(4 + rng.below(4)),
                1 + rng.below(2) as u32,
            ))),
            _ => Some(MemoryDirective::SwapToHost(if rng.below(2) == 0 {
                HostTier::Dram
            } else {
                HostTier::Nvme
            })),
        }
    }

    fn apply(
        plan: &InstrumentationPlan,
        changes: &[(TensorId, Option<MemoryDirective>)],
    ) -> InstrumentationPlan {
        let mut next = plan.clone();
        for (t, d) in changes {
            match d {
                Some(d) => next.assign(*t, d.clone()),
                None => {
                    next.remove(*t);
                }
            }
        }
        next
    }

    fn bits(xs: &[Secs]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Random change sets over a small lowered graph, every one
        /// flipping at least one tensor's recomputation (lengthening or
        /// shortening its readers): the trial bound has the bits of a
        /// fresh `cost_profile` of the changed plan, the base comes back
        /// untouched, and a rebase onto the changed plan reproduces a
        /// fresh base's durations and starts.
        #[test]
        fn trial_bounds_match_a_fresh_profile(seed in 0u64..u64::MAX, layers in 4usize..9, steps in 1usize..10) {
            let machine = Machine::dgx1();
            let graph = lowered(layers, 4);
            let map = DeviceMap::identity(4);
            let mut rng = Rng(seed);
            let tensors: Vec<TensorId> = graph
                .tensors()
                .iter()
                .filter(|t| t.kind != TensorKind::Boundary)
                .map(|t| t.id)
                .collect();
            let recomputable: Vec<TensorId> = tensors
                .iter()
                .copied()
                .filter(|&t| graph.tensor(t).kind.recomputable())
                .collect();
            prop_assume!(!recomputable.is_empty());
            let mut plan: InstrumentationPlan = tensors
                .iter()
                .filter_map(|&t| directive(&graph, &mut rng, t).map(|d| (t, d)))
                .collect();
            let mut arena = SimArena::new();
            let fresh = |plan: &InstrumentationPlan| {
                SimArena::new().cost_profile(&machine, &graph, plan, &map).makespan_lo.to_bits()
            };
            let (mut base, visits) = arena.bound_base(&machine, &graph, &plan, &map);
            prop_assert_eq!(base.makespan_lo().to_bits(), fresh(&plan));
            prop_assert_eq!(visits, graph.ops().len());
            for _ in 0..steps {
                // One recomputation flip, then a few random changes.
                let flip = recomputable[rng.below(recomputable.len())];
                let flipped = match plan.get(flip) {
                    Some(MemoryDirective::Recompute) => None,
                    _ => Some(MemoryDirective::Recompute),
                };
                let mut changes = vec![(flip, flipped)];
                for _ in 0..rng.below(4) {
                    let t = tensors[rng.below(tensors.len())];
                    if changes.iter().all(|&(c, _)| c != t) {
                        changes.push((t, directive(&graph, &mut rng, t)));
                    }
                }
                changes.sort_by_key(|&(t, _)| t);
                let trial = apply(&plan, &changes);
                let before = base.clone();
                let (lb, visits) = arena.trial_bound(&mut base, &machine, &graph, &map, &changes);
                prop_assert_eq!(lb.to_bits(), fresh(&trial));
                prop_assert!(visits > 0 && visits <= graph.ops().len());
                prop_assert_eq!(bits(&base.dur), bits(&before.dur));
                prop_assert_eq!(bits(&base.start), bits(&before.start));
                prop_assert_eq!(&base.recompute, &before.recompute);
                if rng.below(3) == 0 {
                    plan = trial;
                    arena.rebase(&mut base, &machine, &graph, &plan, &map);
                    let (rebuilt, _) = SimArena::new().bound_base(&machine, &graph, &plan, &map);
                    prop_assert_eq!(base.makespan_lo().to_bits(), fresh(&plan));
                    prop_assert_eq!(bits(&base.dur), bits(&rebuilt.dur));
                    prop_assert_eq!(bits(&base.start), bits(&rebuilt.start));
                }
            }
        }
    }

    #[test]
    fn a_trial_that_keeps_the_recompute_set_visits_no_node() {
        let machine = Machine::dgx1();
        let graph = lowered(6, 4);
        let map = DeviceMap::identity(4);
        let swapped = graph
            .tensors()
            .iter()
            .find(|t| t.kind.recomputable())
            .expect("the graph has activations")
            .id;
        let plan: InstrumentationPlan = [(swapped, MemoryDirective::SwapToHost(HostTier::Dram))]
            .into_iter()
            .collect();
        let mut arena = SimArena::new();
        let (mut base, _) = arena.bound_base(&machine, &graph, &plan, &map);
        let changes = [(swapped, Some(MemoryDirective::SwapToHost(HostTier::Nvme)))];
        let (lb, visits) = arena.trial_bound(&mut base, &machine, &graph, &map, &changes);
        assert_eq!(visits, 0);
        let trial = apply(&plan, &changes);
        let fresh = arena.cost_profile(&machine, &graph, &trial, &map);
        assert_eq!(lb.to_bits(), fresh.makespan_lo.to_bits());
    }
}
