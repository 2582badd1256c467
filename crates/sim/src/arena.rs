//! Reusable simulation arenas.
//!
//! A plan search runs thousands of emulator windows over the *same*
//! machine and graph; only the instrumentation plan and the device map
//! vary between calls. [`SimArena`] exploits that in two ways:
//!
//! * [`Prebuilt`] caches every plan-independent table the engine used to
//!   re-derive per run — per-op read/write/free tensor sets, per-tensor
//!   recomputation costs (which require a sort over sub-events), the
//!   producer/consumer tables, and the per-stage compute/comm sequences.
//! * [`Buffers`] recycles the engine's per-run allocations (task list,
//!   stream queues, residency, event heap, ready-set) between runs, so a
//!   steady-state `emulate()` call performs almost no heap traffic.
//!
//! The arena also hosts [`SimArena::makespan_lower_bound`], an analytic
//! best-case bound the planner uses to skip emulating refinement
//! candidates that cannot beat the incumbent (FlexFlow-style search
//! pruning): the bound is the max of the dependency-graph critical path
//! (per-stream FIFO chains plus cross-stage dependencies) and each copy
//! engine's total transfer time, both of which every simulated schedule
//! must respect. The op DAG behind the critical path never depends on
//! the plan, so it is built once per graph (`BoundDag`) on the first
//! bound an arena computes — never by a plain simulation run.

use crate::device_map::DeviceMap;
use crate::engine::StreamKind;
use mpress_compaction::{HostTier, InstrumentationPlan, MemoryDirective};
use mpress_graph::{OpKind, TrainingGraph};
use mpress_hw::{Bytes, Machine, Secs};

/// Plan-independent tables derived from one [`TrainingGraph`].
///
/// Everything here depends only on the graph — op durations are stored
/// *unfolded* (recomputation folds are applied per run from the plan),
/// and device placements are resolved per run from the device map.
pub(crate) struct Prebuilt {
    /// Content fingerprint of the source graph; a mismatch rebuilds the
    /// tables (guards against arena reuse across different graphs).
    pub(crate) fingerprint: u64,
    pub(crate) n_ops: usize,
    pub(crate) n_tensors: usize,
    /// tensor -> bytes.
    pub(crate) bytes: Vec<Bytes>,
    /// tensor -> compute time to re-materialize it (layer forward time).
    pub(crate) recompute_cost: Vec<Secs>,
    /// op -> raw duration (no recomputation folds).
    pub(crate) op_duration: Vec<Secs>,
    /// op -> stream its task runs on.
    pub(crate) op_stream: Vec<StreamKind>,
    pub(crate) op_kinds: Vec<OpKind>,
    /// Per-op tensor index sets copied out of the graph.
    pub(crate) op_writes: Vec<Vec<usize>>,
    pub(crate) op_reads: Vec<Vec<usize>>,
    pub(crate) op_frees: Vec<Vec<usize>>,
    /// tensor -> first writing op index.
    pub(crate) producer_of: Vec<Option<usize>>,
    /// tensor -> sorted reader op indices.
    pub(crate) consumers_of: Vec<Vec<usize>>,
    /// tensor -> number of writing ops (plan validation).
    pub(crate) writer_counts: Vec<usize>,
    /// Per-stage ordered compute-op task ids.
    pub(crate) compute_seq: Vec<Vec<usize>>,
    /// Per-stage ordered comm-op task ids (send/recv FIFO chains).
    pub(crate) comm_seq: Vec<Vec<usize>>,
    /// op -> (stage, position) on its stage's compute sequence.
    pub(crate) seq_pos: Vec<Option<(usize, usize)>>,
    /// The lower bound's op DAG, built on the first
    /// [`SimArena::cost_profile`] over this graph. Simulation runs never
    /// touch it, so a fresh arena that only simulates never pays for it.
    dag: std::cell::OnceCell<BoundDag>,
}

/// The op dependency DAG of one graph in the form the critical-path pass
/// walks: consecutive ops on one FIFO stream (compute/comm per stage)
/// and the graph's cross-stage dependencies are edges, successor lists
/// are stored flat, and `order` is the visit order of Kahn's algorithm.
///
/// None of it depends on the plan, so one build serves every bound. A
/// node's start time is the `max` of its predecessors' finish times and
/// `max` is exact in floating point, so a pass in this fixed order gives
/// bit-for-bit the start times a per-call Kahn walk would.
struct BoundDag {
    /// Topological visit order (nodes on a cycle never appear).
    order: Vec<usize>,
    /// op -> `succ[succ_start[op]..succ_start[op + 1]]`.
    succ_start: Vec<usize>,
    succ: Vec<usize>,
}

impl BoundDag {
    fn build(pre: &Prebuilt, graph: &TrainingGraph) -> Self {
        let n_ops = pre.n_ops;
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n_ops];
        let mut indeg = vec![0u32; n_ops];
        let mut chain = |seq: &[usize]| {
            for w in seq.windows(2) {
                succ[w[0]].push(w[1]);
                indeg[w[1]] += 1;
            }
        };
        for stage in 0..graph.n_stages() {
            chain(&pre.compute_seq[stage]);
            chain(&pre.comm_seq[stage]);
        }
        for &(a, b) in graph.cross_deps() {
            succ[a.index()].push(b.index());
            indeg[b.index()] += 1;
        }
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
        let mut succ_start = Vec::with_capacity(n_ops + 1);
        succ_start.push(0);
        for s in &succ {
            succ_start.push(succ_start[succ_start.len() - 1] + s.len());
        }
        BoundDag {
            order,
            succ_start,
            succ: succ.concat(),
        }
    }

    fn successors(&self, op: usize) -> &[usize] {
        &self.succ[self.succ_start[op]..self.succ_start[op + 1]]
    }
}

/// Cheap content fingerprint of a graph: shape plus every op duration.
/// Collisions would need two *different* graphs with identical op count,
/// tensor count, stage count, dependency count and duration sequence —
/// and even then the damage is bounded to reusing equivalent tables.
///
/// Public so cross-run caches (the planner's process-global `PlanCache`)
/// can scope their keys to the graph content they were computed for.
pub fn graph_fingerprint(graph: &TrainingGraph) -> u64 {
    fingerprint(graph)
}

/// Private implementation of [`graph_fingerprint`]; also keys
/// [`Prebuilt`] table reuse inside [`SimArena`].
fn fingerprint(graph: &TrainingGraph) -> u64 {
    let mut h = Fnv::new();
    h.write(graph.ops().len() as u64);
    h.write(graph.tensors().len() as u64);
    h.write(graph.n_stages() as u64);
    h.write(graph.cross_deps().len() as u64);
    for op in graph.ops() {
        h.write(op.duration.to_bits());
    }
    for t in graph.tensors() {
        h.write(t.bytes.as_u64());
    }
    h.finish()
}

impl Prebuilt {
    fn build(graph: &TrainingGraph, fingerprint: u64) -> Self {
        let n_ops = graph.ops().len();
        let n_tensors = graph.tensors().len();

        let bytes: Vec<Bytes> = graph.tensors().iter().map(|t| t.bytes).collect();

        // Per-tensor recomputation cost: the producing layer's forward
        // time, recovered from the producer op's sub-event offsets.
        let mut recompute_cost = vec![0.0_f64; n_tensors];
        for op in graph.ops() {
            if op.kind != OpKind::Forward || op.sub_events.is_empty() {
                continue;
            }
            let mut events: Vec<_> = op.sub_events.iter().collect();
            events.sort_by(|a, b| a.offset.partial_cmp(&b.offset).expect("finite offsets"));
            let mut prev = 0.0;
            for e in events {
                recompute_cost[e.tensor.index()] = (e.offset - prev).max(0.0);
                prev = e.offset;
            }
        }
        // Tensors without sub-events recompute by re-running their whole
        // producing op.
        for op in graph.ops() {
            if op.kind != OpKind::Forward {
                continue;
            }
            for t in &op.writes {
                if op.sub_event_offset(*t).is_none() {
                    recompute_cost[t.index()] = op.duration;
                }
            }
        }

        let op_stream: Vec<StreamKind> = graph
            .ops()
            .iter()
            .map(|op| match op.kind {
                OpKind::Send | OpKind::Recv => StreamKind::Comm,
                OpKind::SwapOut => StreamKind::CopyOut,
                OpKind::SwapIn => StreamKind::CopyIn,
                _ => StreamKind::Compute,
            })
            .collect();

        // One pass over the ops gives producer/consumer/writer tables;
        // scanning per directive would be quadratic in graph size.
        let mut producer_of: Vec<Option<usize>> = vec![None; n_tensors];
        let mut consumers_of: Vec<Vec<usize>> = vec![Vec::new(); n_tensors];
        let mut writer_counts = vec![0usize; n_tensors];
        for op in graph.ops() {
            for w in &op.writes {
                producer_of[w.index()].get_or_insert(op.id.index());
                writer_counts[w.index()] += 1;
            }
            for r in &op.reads {
                consumers_of[r.index()].push(op.id.index());
            }
        }
        for consumers in consumers_of.iter_mut() {
            consumers.sort_unstable();
        }

        // Per-stage compute/comm sequences and each compute op's position
        // — prefetch triggers anchor a few ops upstream of the consumer.
        let mut compute_seq: Vec<Vec<usize>> = Vec::with_capacity(graph.n_stages());
        let mut comm_seq: Vec<Vec<usize>> = Vec::with_capacity(graph.n_stages());
        let mut seq_pos: Vec<Option<(usize, usize)>> = vec![None; n_ops];
        for stage in 0..graph.n_stages() {
            let program = graph.stage_program(stage);
            let seq: Vec<usize> = program
                .iter()
                .map(|id| id.index())
                .filter(|&i| op_stream[i] == StreamKind::Compute)
                .collect();
            for (pos, &i) in seq.iter().enumerate() {
                seq_pos[i] = Some((stage, pos));
            }
            compute_seq.push(seq);
            comm_seq.push(
                program
                    .iter()
                    .map(|id| id.index())
                    .filter(|&i| op_stream[i] == StreamKind::Comm)
                    .collect(),
            );
        }

        Prebuilt {
            fingerprint,
            n_ops,
            n_tensors,
            bytes,
            recompute_cost,
            op_duration: graph.ops().iter().map(|o| o.duration).collect(),
            op_stream,
            op_kinds: graph.ops().iter().map(|o| o.kind).collect(),
            op_writes: graph
                .ops()
                .iter()
                .map(|o| o.writes.iter().map(|t| t.index()).collect())
                .collect(),
            op_reads: graph
                .ops()
                .iter()
                .map(|o| o.reads.iter().map(|t| t.index()).collect())
                .collect(),
            op_frees: graph
                .ops()
                .iter()
                .map(|o| o.frees.iter().map(|t| t.index()).collect())
                .collect(),
            producer_of,
            consumers_of,
            writer_counts,
            compute_seq,
            comm_seq,
            seq_pos,
            dag: std::cell::OnceCell::new(),
        }
    }
}

/// An indexed set of dependency-ready task ids, stored as a bitset:
/// O(1) insert/remove on the hot path (every task enters and leaves the
/// set once), with ascending-order iteration via word scans for the
/// quiescent blocked search — the same visit order as scanning all
/// tasks by id, at a fraction of the cost.
#[derive(Default)]
pub(crate) struct ReadySet {
    words: Vec<u64>,
}

impl ReadySet {
    /// Empties the set and reserves room for `n` task ids.
    pub(crate) fn clear_resize(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
    }

    pub(crate) fn insert(&mut self, tid: usize) {
        let w = tid / 64;
        if w >= self.words.len() {
            // Evictions append tasks past the build-time count.
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (tid % 64);
    }

    pub(crate) fn remove(&mut self, tid: usize) {
        if let Some(word) = self.words.get_mut(tid / 64) {
            *word &= !(1 << (tid % 64));
        }
    }

    /// The smallest member >= `from`, or `None`.
    pub(crate) fn next_at_or_after(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        if w >= self.words.len() {
            return None;
        }
        // Mask off bits below `from` in the first word.
        let mut word = self.words[w] & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            word = *self.words.get(w)?;
        }
    }
}

/// Recycled per-run engine buffers. Cleared (not reallocated) at the
/// start of every run built from an arena.
#[derive(Default)]
pub(crate) struct Buffers {
    pub(crate) tasks: Vec<crate::engine::Task>,
    pub(crate) streams: Vec<crate::engine::Stream>,
    pub(crate) dirty: Vec<bool>,
    pub(crate) ready_set: ReadySet,
    pub(crate) heap: std::collections::BinaryHeap<std::cmp::Reverse<crate::engine::CompletionKey>>,
    pub(crate) residency: Vec<crate::engine::Loc>,
    pub(crate) triggers: Vec<Vec<usize>>,
    pub(crate) home: Vec<mpress_hw::DeviceId>,
    pub(crate) stage_device: Vec<usize>,
    pub(crate) active_swaps: Vec<u32>,
    pub(crate) runnable_swaps: Vec<u32>,
    pub(crate) scratch_alloc: Vec<usize>,
}

/// A reusable allocation arena for repeated simulator runs.
///
/// ```no_run
/// use mpress_sim::{SimArena, Simulator, DeviceMap};
/// # fn demo(machine: &mpress_hw::Machine, graph: &mpress_graph::TrainingGraph,
/// #        plans: &[mpress_compaction::InstrumentationPlan]) {
/// let mut arena = SimArena::new();
/// for plan in plans {
///     let sim = Simulator::new(machine, graph, plan, DeviceMap::identity(graph.n_stages()));
///     let report = sim.run_in(&mut arena).expect("consistent inputs");
///     println!("makespan {:.3}s", report.makespan);
/// }
/// # }
/// ```
///
/// The arena is keyed by a content fingerprint of the graph: handing it
/// a different graph transparently rebuilds the cached tables, so reuse
/// is always safe, just fastest when the graph is stable.
#[derive(Default)]
pub struct SimArena {
    prebuilt: Option<Prebuilt>,
    buffers: Buffers,
    bound: BoundScratch,
}

/// The tables in `slot` for `graph`, rebuilt when the graph changed.
/// A free function so callers can keep borrowing the arena's other
/// fields alongside the tables.
fn tables_for<'a>(slot: &'a mut Option<Prebuilt>, graph: &TrainingGraph) -> &'a Prebuilt {
    let fp = fingerprint(graph);
    if slot.as_ref().is_some_and(|p| p.fingerprint != fp) {
        *slot = None;
    }
    slot.get_or_insert_with(|| Prebuilt::build(graph, fp))
}

/// Recycled per-call buffers of [`SimArena::cost_profile`].
#[derive(Default)]
struct BoundScratch {
    /// tensor -> whether the plan recomputes it.
    recompute: Vec<bool>,
    /// op -> recomputation-folded duration.
    dur: Vec<Secs>,
    /// op -> earliest start on the critical-path pass.
    start: Vec<Secs>,
}

impl std::fmt::Debug for SimArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimArena")
            .field("prebuilt", &self.prebuilt.as_ref().map(|p| p.fingerprint))
            .finish()
    }
}

/// A shareable pool of [`SimArena`]s.
///
/// Cloning the pool clones the *handle*; every clone checks arenas in
/// and out of the same underlying free list, so concurrent emulator
/// windows — within one planner search or across planner instances in a
/// long-running service — reuse the same prebuilt graph tables and task
/// buffers. The steady-state pool size is the peak number of concurrent
/// [`ArenaPool::with`] calls.
#[derive(Debug, Default, Clone)]
pub struct ArenaPool {
    free: std::sync::Arc<std::sync::Mutex<Vec<SimArena>>>,
    /// Lane-affine slots: every lane of a parallel section — the
    /// `par_run` caller as lane 0 and each worker thread — carries a
    /// stable lane id (`mpress_par::current_lane`), and a lane that
    /// keeps checking out *the same* arena keeps its graph tables, bound
    /// DAG and task buffers cache-warm across the emulations of one
    /// portfolio variant's serial frontier. Slots are
    /// `try_lock`ed — when two concurrent searches collide on a lane id
    /// the loser silently falls back to the free list, so affinity is
    /// purely a wall-clock optimization.
    lanes: std::sync::Arc<Vec<std::sync::Mutex<Option<SimArena>>>>,
}

/// Lane slots held by an [`ArenaPool`]; lanes at or above this fall
/// back to the shared free list. Generously above any realistic
/// `MPRESS_JOBS` width.
const LANE_SLOTS: usize = 64;

impl ArenaPool {
    /// An empty pool; arenas materialize on first checkout.
    pub fn new() -> Self {
        ArenaPool {
            free: std::sync::Arc::default(),
            lanes: std::sync::Arc::new(
                (0..LANE_SLOTS)
                    .map(|_| std::sync::Mutex::new(None))
                    .collect(),
            ),
        }
    }

    /// Checks an arena out (or makes a fresh one), runs `f`, and returns
    /// the arena for the next window. Concurrent calls check out
    /// distinct arenas, so `f` never contends on arena state. Threads
    /// with a pool lane identity get a lane-affine arena (see
    /// [`ArenaPool::lanes`]); everyone else shares the free list.
    pub fn with<T>(&self, f: impl FnOnce(&mut SimArena) -> T) -> T {
        if let Some(lane) = mpress_par::current_lane() {
            if let Some(slot) = self.lanes.get(lane) {
                if let Ok(mut held) = slot.try_lock() {
                    let mut arena = match held.take() {
                        Some(arena) => arena,
                        None => self
                            .free
                            .lock()
                            .expect("arena pool lock")
                            .pop()
                            .unwrap_or_default(),
                    };
                    let out = f(&mut arena);
                    *held = Some(arena);
                    return out;
                }
            }
        }
        let mut arena = self
            .free
            .lock()
            .expect("arena pool lock")
            .pop()
            .unwrap_or_default();
        let out = f(&mut arena);
        self.free.lock().expect("arena pool lock").push(arena);
        out
    }

    /// Arenas currently checked in (idle). Steady state equals the peak
    /// concurrency the pool has served.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("arena pool lock").len()
    }
}

impl SimArena {
    /// An empty arena; tables materialize on first use.
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Makes sure the cached tables match `graph`, rebuilding on change.
    pub(crate) fn ensure(&mut self, graph: &TrainingGraph) {
        tables_for(&mut self.prebuilt, graph);
    }

    pub(crate) fn prebuilt(&self) -> &Prebuilt {
        self.prebuilt.as_ref().expect("ensure() ran")
    }

    pub(crate) fn take_buffers(&mut self) -> Buffers {
        std::mem::take(&mut self.buffers)
    }

    pub(crate) fn put_buffers(&mut self, buffers: Buffers) {
        self.buffers = buffers;
    }

    /// An analytic lower bound on the makespan of `plan` on `machine`:
    /// no simulated schedule can beat it, because every component is a
    /// constraint the engine enforces. Thin wrapper over
    /// [`SimArena::cost_profile`]; see [`CostProfile::makespan_lo`].
    pub fn makespan_lower_bound(
        &mut self,
        machine: &Machine,
        graph: &TrainingGraph,
        plan: &InstrumentationPlan,
        device_map: &DeviceMap,
    ) -> Secs {
        self.cost_profile(machine, graph, plan, device_map)
            .makespan_lo
    }

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
        } = &mut self.bound;

        recompute.clear();
        recompute.resize(pre.n_tensors, false);
        for (t, d) in plan.iter() {
            recompute[t.index()] = matches!(d, MemoryDirective::Recompute);
        }

        // Folded durations — identical rule to the engine's task build.
        dur.clear();
        dur.extend_from_slice(&pre.op_duration);
        for (d, reads) in dur.iter_mut().zip(&pre.op_reads) {
            for &r in reads {
                if recompute[r] {
                    *d += pre.recompute_cost[r];
                }
            }
        }
        let op_total: Secs = dur.iter().sum();

        // DAG longest path: one pass in the prebuilt topological order.
        start.clear();
        start.resize(pre.n_ops, 0.0);
        let mut critical_path = 0.0_f64;
        for &u in &dag.order {
            let finish = start[u] + dur[u];
            critical_path = critical_path.max(finish);
            for &v in dag.successors(u) {
                if finish > start[v] {
                    start[v] = finish;
                }
            }
        }

        // Per-device copy-stream load, mirroring the engine's swap-leg
        // construction exactly (leg counts, not schedules). The same walk
        // accumulates the upper-bound ingredients: the summed duration
        // and count of every planned leg, and the worst single eviction
        // leg (evictions re-export over plain PCIe or the stripe links,
        // never the NVMe path — matching `evict_tensor`).
        let gpus = machine.gpu_count();
        let mut out_sum = vec![0.0_f64; gpus];
        let mut in_sum = vec![0.0_f64; gpus];
        let mut leg_total = 0.0_f64;
        let mut n_legs = 0usize;
        let mut max_evict_leg = 0.0_f64;
        for (t, d) in plan.iter() {
            let i = t.index();
            let (out_dur, in_dur) = match d {
                MemoryDirective::Recompute => continue,
                MemoryDirective::SwapToHost(HostTier::Dram) => {
                    let one_way = machine.pcie_transfer_time(pre.bytes[i]);
                    (one_way, one_way)
                }
                MemoryDirective::SwapToHost(HostTier::Nvme) => {
                    let pcie = machine.pcie_transfer_time(pre.bytes[i]);
                    let out = pcie.max(machine.nvme_transfer_time(pre.bytes[i], true));
                    let inn = pcie.max(machine.nvme_transfer_time(pre.bytes[i], false));
                    (out, inn)
                }
                MemoryDirective::SwapD2d(stripe) => (stripe.one_way_time(), stripe.one_way_time()),
            };
            let evict_leg = match d {
                MemoryDirective::Recompute => unreachable!("skipped above"),
                MemoryDirective::SwapToHost(_) => machine.pcie_transfer_time(pre.bytes[i]),
                MemoryDirective::SwapD2d(stripe) => stripe.one_way_time(),
            };
            max_evict_leg = max_evict_leg.max(evict_leg);
            let dev = device_map.device_of(graph.tensor(t).stage).index();
            if dev >= gpus {
                continue; // bound stays valid; the run itself will error
            }
            let is_static = graph.tensor(t).kind.is_static();
            let n_cons = pre.consumers_of[i].len();
            let outs = usize::from(!is_static)
                + if n_cons > 0 {
                    n_cons - 1 + usize::from(is_static)
                } else {
                    0
                };
            out_sum[dev] += outs as f64 * out_dur;
            in_sum[dev] += n_cons as f64 * in_dur;
            leg_total += outs as f64 * out_dur + n_cons as f64 * in_dur;
            n_legs += outs + n_cons;
        }
        let copy_bound = out_sum
            .iter()
            .chain(in_sum.iter())
            .fold(0.0_f64, |acc, &x| acc.max(x));

        CostProfile {
            makespan_lo: critical_path.max(copy_bound),
            total_task_time: op_total + leg_total,
            n_tasks: pre.n_ops + n_legs,
            n_tensors: pre.n_tensors,
            max_evict_leg,
        }
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

/// Minimal FNV-1a 64-bit hasher (std-only; `DefaultHasher` is not
/// guaranteed stable across releases and this hash feeds fingerprints).
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpress_graph::TensorId;
    use mpress_model::{ModelFamily, PrecisionPolicy, TransformerConfig};
    use mpress_pipeline::{PipelineJob, ScheduleKind};

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
            .microbatches(6)
            .precision(PrecisionPolicy::mixed())
            .build()
            .unwrap()
            .lower()
            .unwrap()
            .graph
    }

    /// Recomputes every third tensor and swaps every fifth to the host,
    /// so the bound exercises duration folds and copy legs alike.
    fn plan_for(graph: &TrainingGraph) -> InstrumentationPlan {
        let mut plan = InstrumentationPlan::new();
        for i in 0..graph.tensors().len() {
            let t = TensorId(i as u32);
            if i % 3 == 0 {
                plan.assign(t, MemoryDirective::Recompute);
            } else if i % 5 == 0 {
                plan.assign(t, MemoryDirective::SwapToHost(HostTier::Dram));
            }
        }
        plan
    }

    fn bits(p: &CostProfile) -> (u64, u64, usize, usize, u64) {
        (
            p.makespan_lo.to_bits(),
            p.total_task_time.to_bits(),
            p.n_tasks,
            p.n_tensors,
            p.max_evict_leg.to_bits(),
        )
    }

    #[test]
    fn reused_arena_never_bounds_with_a_stale_dag() {
        // One arena alternates between two graphs, so every call after
        // the first rebuilds the tables; each profile must match a fresh
        // arena's bit for bit.
        let machine = Machine::dgx1();
        let a = lowered(8, 4);
        let b = lowered(12, 6);
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
        let (plan_a, plan_b) = (plan_for(&a), plan_for(&b));
        let (map_a, map_b) = (DeviceMap::identity(4), DeviceMap::identity(6));
        let mut reused = SimArena::new();
        for (graph, plan, map) in [(&a, &plan_a, &map_a), (&b, &plan_b, &map_b)]
            .into_iter()
            .cycle()
            .take(3)
        {
            let fresh = SimArena::new().cost_profile(&machine, graph, plan, map);
            let got = reused.cost_profile(&machine, graph, plan, map);
            assert_eq!(bits(&got), bits(&fresh));
        }
    }
}
