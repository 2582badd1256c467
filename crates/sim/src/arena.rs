//! Reusable simulation arenas.
//!
//! A plan search runs thousands of emulator windows over the *same*
//! machine and graph; only the instrumentation plan and the device map
//! vary between calls. [`SimArena`] exploits that in two ways:
//!
//! * [`Prebuilt`] caches every plan-independent table the engine used to
//!   re-derive per run — per-op read/write/free tensor sets, per-tensor
//!   recomputation costs (which require a sort over sub-events), the
//!   producer/consumer tables, the per-stage compute/comm sequences, and
//!   the graph half of the task table: one template task per op with its
//!   cross-dependency count, and each op's successors in CSR form.
//! * [`Buffers`] recycles the engine's per-run allocations (task list,
//!   report log, plan edge list, stream ready lists, residency, event
//!   heap, dirty-stream set) between runs, so a steady-state `emulate()`
//!   call performs almost no heap traffic.
//!
//! [`ArenaPool`] shares arenas between concurrent callers through one
//! free list: a checkout pops any idle arena, so a warm arena serves
//! whichever thread asks next. The tables are shared too: a fresh arena
//! starts from the tables of the last arena checked in, so a second
//! concurrent caller on the same graph does not build them again.
//!
//! The arena also hosts the analytic makespan bounds (see
//! [`crate::bound`]): the op DAG behind their critical path never
//! depends on the plan, so it is built once per graph on the first bound
//! an arena computes — never by a plain simulation run.

use crate::bound::{BoundDag, BoundScratch};
use crate::engine::{StreamKind, Task};
use mpress_graph::{OpKind, TrainingGraph};
use mpress_hw::{Bytes, Secs};
use std::sync::{Arc, Mutex, OnceLock};

/// Plan-independent tables derived from one [`TrainingGraph`].
///
/// Everything here depends only on the graph — op durations are stored
/// *unfolded* (recomputation folds are applied per run from the plan),
/// and device placements are resolved per run from the device map.
/// Immutable once built (the bound DAG fills in once), so arenas share
/// one copy behind an [`Arc`].
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
    pub(crate) op_kinds: Vec<OpKind>,
    /// Per-op tensor index sets copied out of the graph.
    pub(crate) op_writes: Csr,
    pub(crate) op_reads: Csr,
    pub(crate) op_frees: Csr,
    /// tensor -> first writing op index.
    pub(crate) producer_of: Vec<Option<usize>>,
    /// tensor -> sorted reader op indices.
    pub(crate) consumers_of: Csr,
    /// Per-stage ordered compute-op task ids.
    pub(crate) compute_seq: Csr,
    /// Per-stage ordered comm-op task ids (send/recv FIFO chains).
    pub(crate) comm_seq: Csr,
    /// op -> (stage, position) on its stage's compute sequence.
    pub(crate) seq_pos: Vec<Option<(usize, usize)>>,
    /// op -> stage, which the device map turns into the op task's device.
    pub(crate) op_stage: Vec<usize>,
    /// tensor -> stage, which the device map turns into its home device.
    pub(crate) tensor_stage: Vec<usize>,
    /// Static tensors (weights, optimizer states), ascending.
    pub(crate) statics: Vec<usize>,
    /// The graph half of the task table (task id == op index): each op's
    /// payload, stream, raw duration and cross-dependency count. A run
    /// copies it, places each task on its stage's device, folds in the
    /// plan's recomputation and appends the directive legs.
    pub(crate) op_tasks: Vec<Task>,
    /// op -> its successors over `cross_deps`, in `cross_deps` order.
    pub(crate) succ: Csr,
    /// The lower bound's op DAG, built on the first bound over this
    /// graph. Simulation runs never touch it, so tables that only ever
    /// simulate never pay for it.
    pub(crate) dag: OnceLock<BoundDag>,
}

impl Prebuilt {
    fn build(graph: &TrainingGraph) -> Self {
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
                OpKind::Forward | OpKind::Backward | OpKind::OptimizerStep => StreamKind::Compute,
            })
            .collect();

        // One pass over the ops gives producer/consumer tables;
        // scanning per directive would be quadratic in graph size.
        let mut producer_of: Vec<Option<usize>> = vec![None; n_tensors];
        let mut consumers_of: Vec<Vec<usize>> = vec![Vec::new(); n_tensors];
        for op in graph.ops() {
            for w in &op.writes {
                producer_of[w.index()].get_or_insert(op.id.index());
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

        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n_ops];
        let mut op_deps = vec![0usize; n_ops];
        for &(a, b) in graph.cross_deps() {
            succ[a.index()].push(b.index());
            op_deps[b.index()] += 1;
        }
        let op_tasks = graph
            .ops()
            .iter()
            .map(|op| {
                let o = op.id.index();
                Task::op(op.id, op_stream[o], op.duration, op_deps[o])
            })
            .collect();

        Prebuilt {
            fingerprint: graph.fingerprint(),
            n_ops,
            n_tensors,
            bytes,
            recompute_cost,
            op_duration: graph.ops().iter().map(|o| o.duration).collect(),
            op_kinds: graph.ops().iter().map(|o| o.kind).collect(),
            op_writes: Csr::from_lists(
                graph
                    .ops()
                    .iter()
                    .map(|o| o.writes.iter().map(|t| t.index())),
            ),
            op_reads: Csr::from_lists(
                graph
                    .ops()
                    .iter()
                    .map(|o| o.reads.iter().map(|t| t.index())),
            ),
            op_frees: Csr::from_lists(
                graph
                    .ops()
                    .iter()
                    .map(|o| o.frees.iter().map(|t| t.index())),
            ),
            producer_of,
            consumers_of: Csr::from_lists(consumers_of),
            compute_seq: Csr::from_lists(compute_seq),
            comm_seq: Csr::from_lists(comm_seq),
            seq_pos,
            op_stage: graph.ops().iter().map(|o| o.stage).collect(),
            tensor_stage: graph.tensors().iter().map(|t| t.stage).collect(),
            statics: (0..n_tensors)
                .filter(|&i| graph.tensors()[i].kind.is_static())
                .collect(),
            op_tasks,
            succ: Csr::from_lists(succ),
            dag: OnceLock::new(),
        }
    }
}

/// Per-node index lists flattened into one buffer (compressed sparse
/// row): `csr[i]` is node `i`'s list, in the order it was given, one
/// bounds-checked slice away instead of behind a pointer per node.
#[derive(Debug, Default)]
pub(crate) struct Csr {
    starts: Vec<usize>,
    items: Vec<usize>,
}

impl Csr {
    pub(crate) fn from_lists<L: IntoIterator<Item = usize>>(
        lists: impl IntoIterator<Item = L>,
    ) -> Self {
        let (mut starts, mut items) = (vec![0], Vec::new());
        for list in lists {
            items.extend(list);
            starts.push(items.len());
        }
        Csr { starts, items }
    }
}

impl std::ops::Index<usize> for Csr {
    type Output = [usize];

    fn index(&self, node: usize) -> &[usize] {
        &self.items[self.starts[node]..self.starts[node + 1]]
    }
}

/// A set of small dense ids (task ids, stream ids) stored as a bitset:
/// O(1) insert/remove on the hot path, with ascending-order iteration
/// via word scans — the same visit order as testing every id in turn,
/// at a fraction of the cost. The engine keeps its dirty streams and its
/// copy-in cursor watchers in one each.
#[derive(Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Empties the set and makes room for ids below `n`, the only ids it
    /// takes.
    pub(crate) fn clear_resize(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
    }

    /// Makes the set exactly `0..n`.
    pub(crate) fn fill(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n / 64, u64::MAX);
        let rest = n % 64;
        if rest > 0 {
            self.words.push((1 << rest) - 1);
        }
    }

    pub(crate) fn insert(&mut self, id: usize) {
        self.words[id / 64] |= 1 << (id % 64);
    }

    pub(crate) fn remove(&mut self, id: usize) {
        self.words[id / 64] &= !(1 << (id % 64));
    }

    pub(crate) fn contains(&self, id: usize) -> bool {
        self.words[id / 64] & (1 << (id % 64)) != 0
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
    pub(crate) tasks: Vec<Task>,
    pub(crate) logs: Vec<crate::engine::TaskLog>,
    pub(crate) links: Vec<crate::engine::Link>,
    pub(crate) streams: Vec<crate::engine::Stream>,
    pub(crate) dirty: BitSet,
    pub(crate) cursor_watchers: BitSet,
    pub(crate) heap: std::collections::BinaryHeap<std::cmp::Reverse<crate::engine::CompletionKey>>,
    pub(crate) residency: Vec<crate::engine::Loc>,
    pub(crate) recompute: Vec<bool>,
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
    pub(crate) prebuilt: Option<Arc<Prebuilt>>,
    buffers: Buffers,
    /// Start-pass stream visits of the last run.
    stream_visits: usize,
    pub(crate) bound: BoundScratch,
}

/// The tables in `slot` for `graph`, rebuilt when the graph changed.
/// A free function so callers can keep borrowing the arena's other
/// fields alongside the tables.
pub(crate) fn tables_for<'a>(
    slot: &'a mut Option<Arc<Prebuilt>>,
    graph: &TrainingGraph,
) -> &'a Prebuilt {
    if slot
        .as_ref()
        .is_some_and(|p| p.fingerprint != graph.fingerprint())
    {
        *slot = None;
    }
    slot.get_or_insert_with(|| Arc::new(Prebuilt::build(graph)))
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
/// [`ArenaPool::with`] calls; all of them share one set of tables per
/// graph.
#[derive(Debug, Default, Clone)]
pub struct ArenaPool {
    state: Arc<Mutex<PoolState>>,
}

#[derive(Default)]
struct PoolState {
    free: Vec<SimArena>,
    /// The tables of the last arena checked in, which seed every fresh
    /// arena (a different graph rebuilds them in [`tables_for`]).
    tables: Option<Arc<Prebuilt>>,
}

impl std::fmt::Debug for PoolState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolState")
            .field("free", &self.free)
            .field("tables", &self.tables.as_ref().map(|p| p.fingerprint))
            .finish()
    }
}

impl ArenaPool {
    /// An empty pool; arenas materialize on first checkout.
    pub fn new() -> Self {
        ArenaPool::default()
    }

    /// Checks an arena out (or makes a fresh one), runs `f`, and returns
    /// the arena to the free list for the next window. Concurrent calls
    /// check out distinct arenas, so `f` never contends on arena state.
    pub fn with<T>(&self, f: impl FnOnce(&mut SimArena) -> T) -> T {
        let mut arena = {
            let mut state = self.state.lock().expect("arena pool lock");
            let tables = state.tables.clone();
            state.free.pop().unwrap_or_else(|| SimArena {
                prebuilt: tables,
                ..SimArena::default()
            })
        };
        let out = f(&mut arena);
        let mut state = self.state.lock().expect("arena pool lock");
        if arena.prebuilt.is_some() {
            state.tables.clone_from(&arena.prebuilt);
        }
        state.free.push(arena);
        out
    }

    /// Arenas currently checked in (idle). Steady state equals the peak
    /// concurrency the pool has served.
    pub fn idle(&self) -> usize {
        self.state.lock().expect("arena pool lock").free.len()
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

    pub(crate) fn put_buffers(&mut self, buffers: Buffers, stream_visits: usize) {
        self.buffers = buffers;
        self.stream_visits = stream_visits;
    }

    /// Streams the start passes of the last run in this arena visited:
    /// a deterministic measure of the engine's scheduling work, kept
    /// out of [`crate::SimReport`] so reports stay comparable with the
    /// full-scan engine's.
    pub fn stream_visits(&self) -> usize {
        self.stream_visits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostProfile, DeviceMap, Simulator};
    use mpress_compaction::{HostTier, InstrumentationPlan, MemoryDirective};
    use mpress_graph::{TensorId, TensorKind};
    use mpress_hw::Machine;
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

    /// Two stages, one microbatch, a forward and a backward op on each.
    /// Every op duration is multiplied by `scale`, so every scale gives
    /// the same shape and tensor sizes.
    fn chain(scale: f64) -> TrainingGraph {
        let mut b = TrainingGraph::builder(2);
        let a0 = b.add_tensor(TensorKind::Activation, Bytes::mib(64), 0, Some(0), Some(0));
        let w0 = b.add_tensor(TensorKind::Parameter, Bytes::mib(32), 0, Some(0), None);
        let bd = b.add_tensor(TensorKind::Boundary, Bytes::mib(8), 0, None, Some(0));
        let a1 = b.add_tensor(TensorKind::Activation, Bytes::mib(64), 1, Some(1), Some(0));
        let f0 = b.add_op(OpKind::Forward, 0, Some(0), 0.010 * scale, |op| {
            op.reads.push(w0);
            op.writes.extend([a0, bd]);
        });
        let f1 = b.add_op(OpKind::Forward, 1, Some(0), 0.012 * scale, |op| {
            op.reads.push(bd);
            op.writes.push(a1);
        });
        let b1 = b.add_op(OpKind::Backward, 1, Some(0), 0.024 * scale, |op| {
            op.reads.push(a1);
            op.frees.push(a1);
        });
        let b0 = b.add_op(OpKind::Backward, 0, Some(0), 0.020 * scale, |op| {
            op.reads.extend([a0, w0]);
            op.frees.extend([a0, bd]);
        });
        b.add_dep(f0, f1);
        b.add_dep(b1, b0);
        b.build().expect("valid graph")
    }

    #[test]
    fn same_shape_graphs_with_different_durations_get_their_own_tables() {
        // The arena keys its tables by content, not shape: alternating
        // between two graphs that differ only in op durations must give
        // each its own bounds and simulations.
        let machine = Machine::dgx1();
        let (fast, slow) = (chain(1.0), chain(3.0));
        assert_ne!(fast.fingerprint(), slow.fingerprint());
        let map = DeviceMap::identity(2);
        let mut reused = SimArena::new();
        // Recompute the stage-0 activation, swap the weight to the host.
        let plan: InstrumentationPlan = [
            (TensorId(0), MemoryDirective::Recompute),
            (TensorId(1), MemoryDirective::SwapToHost(HostTier::Dram)),
        ]
        .into_iter()
        .collect();
        let mut lows = Vec::new();
        for graph in [&fast, &slow, &fast, &slow] {
            let fresh = SimArena::new().cost_profile(&machine, graph, &plan, &map);
            let got = reused.cost_profile(&machine, graph, &plan, &map);
            assert_eq!(bits(&got), bits(&fresh));
            lows.push(got.makespan_lo);
            let sim = Simulator::new(&machine, graph, &plan, map.clone());
            let run = |arena: &mut SimArena| sim.run_in(arena).expect("runs").makespan;
            assert_eq!(
                run(&mut reused).to_bits(),
                run(&mut SimArena::new()).to_bits()
            );
        }
        assert!(lows[1] > lows[0], "{lows:?}");
    }

    #[test]
    fn fresh_pool_arenas_share_the_checked_in_tables() {
        let (a, b) = (lowered(8, 4), lowered(12, 6));
        let pool = ArenaPool::new();
        let tables = |arena: &SimArena| Arc::clone(arena.prebuilt.as_ref().expect("built"));
        let first = pool.with(|arena| {
            arena.ensure(&a);
            tables(arena)
        });
        // The outer call takes the idle arena, so the inner one starts a
        // fresh arena: it begins with the checked-in tables and keeps
        // them for the same graph ...
        let (fresh, other) = pool.with(|_| {
            pool.with(|arena| {
                arena.ensure(&a);
                let fresh = tables(arena);
                // ... and rebuilds them for a different graph.
                arena.ensure(&b);
                (fresh, tables(arena))
            })
        });
        assert!(Arc::ptr_eq(&fresh, &first));
        assert!(!Arc::ptr_eq(&other, &first));
        assert_eq!(other.fingerprint, b.fingerprint());
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn bit_set_fill_holds_exactly_the_prefix() {
        let mut set = BitSet::default();
        for n in [0, 1, 63, 64, 65, 130] {
            set.fill(n);
            let mut members = Vec::new();
            let mut next = set.next_at_or_after(0);
            while let Some(id) = next {
                members.push(id);
                next = set.next_at_or_after(id + 1);
            }
            assert_eq!(members, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn reused_arena_never_bounds_with_a_stale_dag() {
        // One arena alternates between two graphs, so every call after
        // the first rebuilds the tables; each profile must match a fresh
        // arena's bit for bit.
        let machine = Machine::dgx1();
        let a = lowered(8, 4);
        let b = lowered(12, 6);
        assert_ne!(a.fingerprint(), b.fingerprint());
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
