//! The discrete-event execution engine.
//!
//! Models each GPU as four in-flight lanes — a compute stream, a
//! communication stream and two copy engines (swap-in / swap-out), the
//! same stream layout the paper's runtime builds with `cudaStreamCreate`
//! (§III-E). Swap directives expand into copy tasks chained to their
//! producer/consumer ops; recomputation folds into consumer durations;
//! memory is tracked per device with OOM detection.
//!
//! The scheduler is event-driven: a dirty-stream work-list wakes only
//! the streams whose state could have changed (dependency resolutions,
//! memory releases, admission-cursor advances), and an indexed ready-set
//! replaces the O(n_tasks) quiescent blocked scan. The original
//! full-scan loop is retained behind [`SimConfig::reference_scan`] so
//! the equivalence of both paths stays testable.

use crate::arena::{Buffers, Prebuilt, SimArena};
use crate::device_map::DeviceMap;
use crate::memory::MemoryTracker;
use crate::metrics::{DeviceMetrics, LinkMetrics, SimMetrics, StreamBusy};
use crate::report::SimReport;
use crate::trace::{TraceEvent, TraceKind};
use mpress_compaction::{HostTier, InstrumentationPlan, MemoryDirective, PlanValidationError};
use mpress_graph::{OpId, OpKind, TensorId, TrainingGraph};
use mpress_hw::{Bytes, DeviceId, LinkKey, Machine, Secs};
use mpress_obs::{trace_window, verbosity, MetricsRecorder, StallBreakdown, StallCause};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::error::Error;
use std::fmt;

/// Simulation options.
///
/// Marked `#[non_exhaustive]`: construct via [`SimConfig::default`] and
/// the chainable setters so new options can be added without breaking
/// downstream crates.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct SimConfig {
    /// Stop at the first out-of-memory event (the default). When false the
    /// run continues so the full overflow magnitude is observable.
    pub strict_oom: bool,
    /// Record per-device `(time, bytes)` usage timelines.
    pub track_timeline: bool,
    /// Stall tasks whose home-device allocation would overflow (the
    /// real-runtime behavior). Disable for *profiling* runs that must
    /// observe the unconstrained memory demand.
    pub memory_gate: bool,
    /// Record a [`TraceEvent`] per executed task (exportable to the
    /// Chrome tracing format via [`crate::trace::to_chrome_trace`]).
    pub trace: bool,
    /// Collect [`SimMetrics`] (per-stream busy time, stall attribution,
    /// per-link traffic) into [`SimReport::metrics`]. Off by default:
    /// disabled runs skip all metric assembly.
    pub metrics: bool,
    /// Schedule with the reference full-scan loop instead of the
    /// dirty-stream work-list and indexed ready-set. Slower but
    /// structurally simpler; the property suite asserts both paths
    /// produce byte-identical reports.
    pub reference_scan: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            strict_oom: true,
            track_timeline: false,
            memory_gate: true,
            trace: false,
            metrics: false,
            reference_scan: false,
        }
    }
}

impl SimConfig {
    /// Sets [`strict_oom`](Self::strict_oom).
    pub fn strict_oom(mut self, on: bool) -> Self {
        self.strict_oom = on;
        self
    }

    /// Sets [`track_timeline`](Self::track_timeline).
    pub fn track_timeline(mut self, on: bool) -> Self {
        self.track_timeline = on;
        self
    }

    /// Sets [`memory_gate`](Self::memory_gate).
    pub fn memory_gate(mut self, on: bool) -> Self {
        self.memory_gate = on;
        self
    }

    /// Sets [`trace`](Self::trace).
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Sets [`metrics`](Self::metrics).
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Sets [`reference_scan`](Self::reference_scan).
    pub fn reference_scan(mut self, on: bool) -> Self {
        self.reference_scan = on;
        self
    }
}

/// Errors that abort a simulation before it starts.
///
/// Marked `#[non_exhaustive]` (matching the other public error enums):
/// downstream matches need a wildcard arm so new failure kinds can be
/// added compatibly.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The instrumentation plan failed validation against the graph.
    PlanInvalid(PlanValidationError),
    /// The plan is inconsistent with the machine or graph in a way only
    /// the simulator can see (unreachable stripe targets, swapping a
    /// multi-writer tensor, ...).
    BadPlan(String),
    /// The device map is not a permutation covering every stage.
    BadDeviceMap(String),
    /// The task graph stalled — a dependency cycle introduced by
    /// instrumentation (indicates a planner bug).
    Deadlock {
        /// Tasks completed before the stall.
        completed: usize,
        /// Total tasks.
        total: usize,
    },
    /// The caller's cancellation token tripped (explicit cancel or an
    /// exhausted emulator-run budget) before this window could run.
    Cancelled,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PlanInvalid(e) => write!(f, "invalid instrumentation plan: {e}"),
            SimError::BadPlan(msg) => write!(f, "unusable instrumentation plan: {msg}"),
            SimError::BadDeviceMap(msg) => write!(f, "bad device map: {msg}"),
            SimError::Deadlock { completed, total } => {
                write!(f, "simulation deadlock after {completed}/{total} tasks")
            }
            SimError::Cancelled => write!(f, "run cancelled before execution"),
        }
    }
}

impl Error for SimError {}

impl From<PlanValidationError> for SimError {
    fn from(e: PlanValidationError) -> Self {
        SimError::PlanInvalid(e)
    }
}

/// Result of a *bounded* simulation ([`Simulator::run_in_bounded`]).
///
/// `BoundExceeded` is deliberately **not** a [`SimError`]: the run was
/// healthy, it just proved it cannot finish by the caller's deadline.
/// Planner searches use the incumbent's makespan (plus the acceptance
/// slack) as the bound — a candidate whose simulated clock passes it
/// has *already* lost, so finishing the window would only burn time.
/// This is also distinct from [`SimError::Cancelled`], which reflects
/// an external abort (budget/token), not a property of the plan.
// Not boxed despite the size skew: outcomes are transient returns on
// the emulation hot path, consumed immediately by the caller — an
// allocation per window would cost more than the move.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum SimOutcome {
    /// The run finished; the report is byte-identical to what the
    /// unbounded [`Simulator::run_in`] would have produced.
    Completed(SimReport),
    /// The simulated clock passed `bound` before the run finished. The
    /// final makespan is provably `>= exceeded_at > bound`: task
    /// completions commit in nondecreasing time order, so the first
    /// completion past the bound is a floor on every later one.
    BoundExceeded {
        /// The makespan bound the run was launched with.
        bound: Secs,
        /// The completion time that first exceeded it.
        exceeded_at: Secs,
    },
}

/// Total-ordered wrapper for event times (panics on NaN by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdTime(Secs);

impl Eq for OrdTime {}

impl PartialOrd for OrdTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("event times are finite")
    }
}

/// The four per-device lanes. The discriminants double as the stream's
/// slot inside a device's group of four (`sid = dev * 4 + kind`), and
/// the derived order matches the old `BTreeMap<(usize, StreamKind), _>`
/// iteration, which scheduling determinism depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum StreamKind {
    Compute = 0,
    Comm = 1,
    CopyOut = 2,
    CopyIn = 3,
}

/// Streams per device (one slot per [`StreamKind`]).
const STREAMS_PER_DEV: usize = 4;

/// The flat stream index of `(dev, kind)`.
#[inline]
fn sid(dev: usize, kind: StreamKind) -> usize {
    dev * STREAMS_PER_DEV + kind as usize
}

/// Event-queue ordering for task completions. `BinaryHeap` breaks ties
/// by whatever order equal keys were pushed, so the key must be a total
/// order over *all* pending completions: time first, then stream kind
/// (compute before comm before copies), then task sequence number.
/// This makes traces and reports stable — a prerequisite for asserting
/// parallel == serial plan search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CompletionKey {
    time: OrdTime,
    stream: StreamKind,
    seq: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Payload {
    Op(OpId),
    SwapOut(TensorId),
    SwapIn(TensorId),
}

#[derive(Debug, Clone)]
pub(crate) struct Task {
    payload: Payload,
    device: DeviceId,
    stream: StreamKind,
    duration: Secs,
    deps: usize,
    trigger_fired: bool,
    dependents: Vec<usize>,
    started: bool,
    done: bool,
    /// Whether the task currently sits in its stream's ready list
    /// (non-FIFO streams only; avoids duplicate entries).
    in_ready: bool,
    /// Scheduling priority on non-FIFO streams: swap-ins carry their
    /// consumer's task id so prefetches land in execution order (fetching
    /// a later layer's tensor first can deadlock the earlier one out of
    /// memory). Lower runs first.
    priority: usize,
    /// For swap-ins: the (device, position) on the consumer's compute
    /// stream before which the fetch may not start — demand-window
    /// admission that stops far-future prefetches from squatting on
    /// memory the near-term work needs.
    admit: Option<(usize, usize)>,
    start: Secs,
    end: Secs,
    /// When the last dependency resolved (0 for tasks born ready). Feeds
    /// stall attribution: the gap before `ready_at` is dependency wait,
    /// the gap after is memory/back-pressure wait.
    ready_at: Secs,
    /// Whether the dependency that resolved last was a swap-in copy —
    /// splits dependency wait into exposed-copy vs pipeline stall.
    dep_wait_is_copy: bool,
}

impl Task {
    fn is_ready(&self) -> bool {
        !self.started && self.deps == 0 && self.trigger_fired
    }
}

#[derive(Debug)]
pub(crate) struct Stream {
    /// In-order (FIFO) streams model CUDA compute/comm queues; copy
    /// streams pick any ready task.
    fifo: bool,
    queue: Vec<usize>,
    cursor: usize,
    busy: bool,
    /// Dependency-ready, unstarted tasks (non-FIFO streams only) —
    /// bookkeeping that keeps scheduling O(ready) instead of O(queued).
    ready: Vec<usize>,
}

impl Stream {
    fn new(fifo: bool) -> Self {
        Stream {
            fifo,
            queue: Vec::new(),
            cursor: 0,
            busy: false,
            ready: Vec::new(),
        }
    }
}

/// Where a tensor currently lives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Loc {
    /// Not materialized yet (dynamic tensors before their producer runs).
    Unmaterialized,
    /// On its home GPU.
    Home,
    /// In host pinned memory.
    Host,
    /// Striped across peer GPUs.
    Peers,
    /// Released.
    Freed,
}

/// Executes one lowered training window against a machine model.
///
/// # Example
///
/// ```no_run
/// use mpress_sim::{Simulator, SimConfig, DeviceMap};
/// use mpress_compaction::InstrumentationPlan;
/// # fn demo(machine: &mpress_hw::Machine, graph: &mpress_graph::TrainingGraph) {
/// let plan = InstrumentationPlan::new();
/// let sim = Simulator::new(machine, graph, &plan, DeviceMap::identity(graph.n_stages()));
/// let report = sim.run().expect("consistent inputs");
/// println!("makespan: {:.3}s", report.makespan);
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    machine: &'a Machine,
    graph: &'a TrainingGraph,
    plan: &'a InstrumentationPlan,
    device_map: DeviceMap,
    config: SimConfig,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with default config.
    pub fn new(
        machine: &'a Machine,
        graph: &'a TrainingGraph,
        plan: &'a InstrumentationPlan,
        device_map: DeviceMap,
    ) -> Self {
        Simulator {
            machine,
            graph,
            plan,
            device_map,
            config: SimConfig::default(),
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for inconsistent inputs or instrumentation
    /// deadlocks. An out-of-memory *model outcome* is NOT an error: it is
    /// reported via [`SimReport::oom`].
    pub fn run(&self) -> Result<SimReport, SimError> {
        let mut arena = SimArena::new();
        self.run_in(&mut arena)
    }

    /// Runs the simulation inside a reusable [`SimArena`].
    ///
    /// Equivalent to [`run`](Self::run), but graph-derived tables and
    /// per-run buffers are recycled across calls — the fast path for
    /// planners emulating thousands of candidate plans over one graph.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_in(&self, arena: &mut SimArena) -> Result<SimReport, SimError> {
        match self.run_in_bounded(arena, None)? {
            SimOutcome::Completed(report) => Ok(report),
            SimOutcome::BoundExceeded { .. } => {
                unreachable!("an unbounded run cannot exceed a bound")
            }
        }
    }

    /// [`run_in`](Self::run_in) with an optional makespan bound: the
    /// moment the simulated clock would commit a completion time past
    /// `bound`, the run aborts with [`SimOutcome::BoundExceeded`]
    /// instead of finishing the window. Aborting is *sound* for
    /// best-cost searches — completions commit in nondecreasing time
    /// order, so the final makespan of the aborted run is provably
    /// above the bound — and the abort recycles the arena buffers
    /// exactly like a completed run. `None` behaves like `run_in`.
    ///
    /// # Errors
    ///
    /// Same as [`run_in`](Self::run_in).
    pub fn run_in_bounded(
        &self,
        arena: &mut SimArena,
        bound: Option<Secs>,
    ) -> Result<SimOutcome, SimError> {
        self.plan.validate(self.graph)?;
        arena.ensure(self.graph);
        self.validate_inputs(arena.prebuilt())?;
        let bufs = arena.take_buffers();
        let mut state = EngineState::build(
            self.machine,
            self.graph,
            self.plan,
            arena.prebuilt(),
            &self.device_map,
            self.config,
            bufs,
        )?;
        if let Some(exceeded_at) = state.run(self.config.strict_oom, bound) {
            arena.put_buffers(state.recycle());
            let bound = bound.unwrap_or(f64::INFINITY);
            return Ok(SimOutcome::BoundExceeded { bound, exceeded_at });
        }
        let (result, bufs) = state.into_report(self.graph);
        arena.put_buffers(bufs);
        result.map(SimOutcome::Completed)
    }

    fn validate_inputs(&self, pre: &Prebuilt) -> Result<(), SimError> {
        if self.device_map.len() != self.graph.n_stages() {
            return Err(SimError::BadDeviceMap(format!(
                "map covers {} stages, graph has {}",
                self.device_map.len(),
                self.graph.n_stages()
            )));
        }
        for stage in 0..self.graph.n_stages() {
            let d = self.device_map.device_of(stage);
            if d.index() >= self.machine.gpu_count() {
                return Err(SimError::BadDeviceMap(format!(
                    "{d} beyond machine's {} GPUs",
                    self.machine.gpu_count()
                )));
            }
        }
        for (t, directive) in self.plan.iter() {
            let tensor = self.graph.tensor(t);
            let writers = pre.writer_counts[t.index()];
            match directive {
                MemoryDirective::SwapToHost(_) | MemoryDirective::SwapD2d(_) => {
                    if writers > 1 {
                        return Err(SimError::BadPlan(format!(
                            "tensor {t} is written by {writers} ops and cannot swap"
                        )));
                    }
                }
                MemoryDirective::Recompute => {}
            }
            if let MemoryDirective::SwapD2d(stripe) = directive {
                let home = self.device_map.device_of(tensor.stage);
                stripe
                    .validate(home, self.machine.topology())
                    .map_err(SimError::BadPlan)?;
            }
        }
        Ok(())
    }
}

/// Writes a fully reinitialized task into the next slot, reusing the
/// slot (and its `dependents` allocation) when the buffer still has one
/// from a previous run.
#[allow(clippy::too_many_arguments)]
fn emit_task(
    tasks: &mut Vec<Task>,
    live: &mut usize,
    payload: Payload,
    device: DeviceId,
    stream: StreamKind,
    duration: Secs,
) -> usize {
    let tid = *live;
    if tid < tasks.len() {
        let t = &mut tasks[tid];
        t.dependents.clear();
        t.payload = payload;
        t.device = device;
        t.stream = stream;
        t.duration = duration;
        t.deps = 0;
        t.trigger_fired = true;
        t.started = false;
        t.done = false;
        t.in_ready = false;
        t.priority = usize::MAX;
        t.admit = None;
        t.start = 0.0;
        t.end = 0.0;
        t.ready_at = 0.0;
        t.dep_wait_is_copy = false;
    } else {
        tasks.push(Task {
            payload,
            device,
            stream,
            duration,
            deps: 0,
            trigger_fired: true,
            dependents: Vec::new(),
            started: false,
            done: false,
            in_ready: false,
            priority: usize::MAX,
            admit: None,
            start: 0.0,
            end: 0.0,
            ready_at: 0.0,
            dep_wait_is_copy: false,
        });
    }
    *live += 1;
    tid
}

/// Copy direction of a swap leg; fixes the payload and stream kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LegKind {
    /// Export (`SwapOut` on the copy-out stream).
    Out,
    /// Import (`SwapIn` on the copy-in stream).
    In,
}

/// One swap task ("leg") an instrumentation directive expands into,
/// described structurally before any task exists. `build` emits the
/// swap tasks from this list in order — leg task id = `n_ops + spec
/// index`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LegSpec {
    tensor: TensorId,
    kind: LegKind,
    dur: Secs,
    /// Op task id this leg depends on: the producer for a dynamic
    /// tensor's initial export, the consumer just served for a
    /// re-export. `None` for imports and static initial exports.
    op_dep: Option<usize>,
    /// Spec index of the export this import depends on (`None` for a
    /// static tensor's first import — the tensor starts swapped out).
    out_dep: Option<usize>,
    /// The consumer op an import feeds (doubles as its priority).
    consumer: Option<usize>,
    /// Prefetch trigger: the import stays untriggered until this op
    /// starts.
    anchor: Option<usize>,
    /// Demand-window admission `(device, compute position)`.
    admit: Option<(usize, usize)>,
}

/// Expands the plan's swap directives into the ordered leg-spec list.
/// `op_dur` must return the *folded* compute duration of an op task
/// (recomputation included) — the prefetch-anchor walk measures lead
/// time in folded durations, exactly as the emitted tasks will run.
fn plan_legs(
    machine: &Machine,
    graph: &TrainingGraph,
    plan: &InstrumentationPlan,
    pre: &Prebuilt,
    device_map: &DeviceMap,
    op_dur: impl Fn(usize) -> Secs,
    out: &mut Vec<LegSpec>,
) {
    out.clear();
    // The anchor op whose *start* leaves ~1.5x the swap-in time of
    // compute ahead of `consumer` — enough lead for the copy to land.
    let prefetch_anchor = |consumer: usize, in_dur: Secs| -> Option<usize> {
        let (stage, pos) = pre.seq_pos[consumer]?;
        let seq = &pre.compute_seq[stage];
        let mut lead = 0.0;
        let mut anchor = None;
        for j in (0..pos).rev() {
            anchor = Some(seq[j]);
            lead += op_dur(seq[j]);
            if lead >= 1.5 * in_dur {
                break;
            }
        }
        anchor
    };
    for (t, d) in plan.iter() {
        let (out_dur, in_dur) = match d {
            MemoryDirective::Recompute => continue,
            MemoryDirective::SwapToHost(HostTier::Dram) => {
                let one_way = machine.pcie_transfer_time(pre.bytes[t.index()]);
                (one_way, one_way)
            }
            MemoryDirective::SwapToHost(HostTier::Nvme) => {
                // GPU->host->NVMe staging pipelines; the slower leg
                // dominates each direction.
                let pcie = machine.pcie_transfer_time(pre.bytes[t.index()]);
                let out = pcie.max(machine.nvme_transfer_time(pre.bytes[t.index()], true));
                let inn = pcie.max(machine.nvme_transfer_time(pre.bytes[t.index()], false));
                (out, inn)
            }
            MemoryDirective::SwapD2d(stripe) => (stripe.one_way_time(), stripe.one_way_time()),
        };
        let tensor = graph.tensor(t);
        let producer = pre.producer_of[t.index()];
        let consumers = &pre.consumers_of[t.index()];
        let is_static = tensor.kind.is_static();

        // Static tensors start swapped out; dynamic ones swap out after
        // their producer.
        let mut last_out: Option<usize> = if is_static {
            None
        } else {
            out.push(LegSpec {
                tensor: t,
                kind: LegKind::Out,
                dur: out_dur,
                op_dep: producer,
                out_dep: None,
                consumer: None,
                anchor: None,
                admit: None,
            });
            Some(out.len() - 1)
        };

        for (k, &c) in consumers.iter().enumerate() {
            let anchor = prefetch_anchor(c, in_dur);
            let admit = anchor.and_then(|a| {
                pre.seq_pos[a].map(|(stage, pos)| (device_map.device_of(stage).index(), pos))
            });
            out.push(LegSpec {
                tensor: t,
                kind: LegKind::In,
                dur: in_dur,
                op_dep: None,
                out_dep: last_out,
                consumer: Some(c),
                anchor,
                admit,
            });

            // Re-export after the consumer. Dynamic tensors are freed
            // by their last consumer, but statics persist — without a
            // trailing export, consumed optimizer states would pile up
            // on the device and crowd out the next layer's swap-in.
            if k + 1 < consumers.len() || is_static {
                out.push(LegSpec {
                    tensor: t,
                    kind: LegKind::Out,
                    dur: out_dur,
                    op_dep: Some(c),
                    out_dep: None,
                    consumer: None,
                    anchor: None,
                    admit: None,
                });
                last_out = Some(out.len() - 1);
            } else {
                last_out = None;
            }
        }
    }
}

/// All mutable engine state for one run. Borrows the instrumentation
/// plan and the arena's prebuilt tables (`'p`) so directives, stripe
/// layouts and graph-derived tables are referenced, not cloned.
struct EngineState<'p> {
    pre: &'p Prebuilt,
    tasks: Vec<Task>,
    /// Flat stream table indexed by [`sid`].
    streams: Vec<Stream>,
    /// Work-list flags: streams whose scheduling state may have changed
    /// since they were last visited. The fast start-pass skips clean
    /// streams; every event that could enable a start marks one.
    dirty: Vec<bool>,
    /// Every task with `is_ready()` true, ordered by task id — the
    /// indexed replacement for the quiescent full-task blocked scan.
    ready_set: crate::arena::ReadySet,
    heap: BinaryHeap<Reverse<CompletionKey>>,
    clock: Secs,
    memory: MemoryTracker,
    residency: Vec<Loc>,
    /// op task id (dense, `< n_ops`) -> swap-in task ids it triggers on
    /// start.
    triggers: Vec<Vec<usize>>,
    /// tensor home device.
    home: Vec<DeviceId>,
    /// directive lookup by tensor index.
    directive: Vec<Option<&'p MemoryDirective>>,
    d2d_traffic: Bytes,
    host_traffic: Bytes,
    nvme_traffic: Bytes,
    recompute_time: Secs,
    completed: usize,
    memory_gate: bool,
    reference_scan: bool,
    /// stage -> hosting device index.
    stage_device: Vec<usize>,
    /// tensor index -> number of swap tasks currently *running* (started,
    /// not done); eviction requires zero — pending-but-unrunnable legs
    /// (e.g. a trailing export gated on a far-future consumer) must not
    /// pin a prefetched tensor in memory.
    active_swaps: Vec<u32>,
    /// tensor index -> number of swap tasks that are unstarted but already
    /// runnable (dependencies met). Evicting such a tensor would duplicate
    /// an imminent export, so eviction also requires zero here.
    runnable_swaps: Vec<u32>,
    evictions: usize,
    /// Refetch copies scheduled for evicted tensors with a future reader.
    refetches: usize,
    pcie_curve: mpress_hw::BandwidthCurve,
    trace: Option<Vec<TraceEvent>>,
    /// Assemble [`SimMetrics`] at report time (post-hoc; the hot loop only
    /// pays the two per-task stores `ready_at`/`dep_wait_is_copy`).
    metrics: bool,
    gpu_count: usize,
    /// `start_need` results for the most recently probed task, consumed
    /// by `start_task` so the admit path computes them exactly once:
    /// which tensors to materialize and the recompute time they fold in.
    scratch_tid: usize,
    scratch_alloc: Vec<usize>,
    scratch_extra: Secs,
}

impl<'p> EngineState<'p> {
    fn build(
        machine: &Machine,
        graph: &TrainingGraph,
        plan: &'p InstrumentationPlan,
        pre: &'p Prebuilt,
        device_map: &DeviceMap,
        config: SimConfig,
        mut bufs: Buffers,
    ) -> Result<Self, SimError> {
        let n_ops = pre.n_ops;
        let n_tensors = pre.n_tensors;

        let mut home = std::mem::take(&mut bufs.home);
        home.clear();
        home.extend(
            graph
                .tensors()
                .iter()
                .map(|t| device_map.device_of(t.stage)),
        );
        let mut directive: Vec<Option<&'p MemoryDirective>> = vec![None; n_tensors];
        for (t, d) in plan.iter() {
            directive[t.index()] = Some(d);
        }

        // --- Op tasks (task id == op index) ---------------------------------
        let mut tasks = std::mem::take(&mut bufs.tasks);
        let mut live = 0usize;
        for (idx, op) in graph.ops().iter().enumerate() {
            let mut duration = pre.op_duration[idx];
            // Recomputation folds into the consumer's compute time.
            for &r in &pre.op_reads[idx] {
                if matches!(directive[r], Some(MemoryDirective::Recompute)) {
                    duration += pre.recompute_cost[r];
                }
            }
            emit_task(
                &mut tasks,
                &mut live,
                Payload::Op(op.id),
                device_map.device_of(op.stage),
                pre.op_stream[idx],
                duration,
            );
        }
        for &(a, b) in graph.cross_deps() {
            tasks[a.index()].dependents.push(b.index());
            tasks[b.index()].deps += 1;
        }

        // --- Swap tasks ------------------------------------------------------
        let mut triggers = std::mem::take(&mut bufs.triggers);
        for v in triggers.iter_mut() {
            v.clear();
        }
        triggers.resize_with(n_ops, Vec::new);
        triggers.truncate(n_ops);
        let mut specs = Vec::new();
        plan_legs(
            machine,
            graph,
            plan,
            pre,
            device_map,
            |i| tasks[i].duration,
            &mut specs,
        );
        for (k, &spec) in specs.iter().enumerate() {
            let (payload, stream) = match spec.kind {
                LegKind::Out => (Payload::SwapOut(spec.tensor), StreamKind::CopyOut),
                LegKind::In => (Payload::SwapIn(spec.tensor), StreamKind::CopyIn),
            };
            let tid = emit_task(
                &mut tasks,
                &mut live,
                payload,
                home[spec.tensor.index()],
                stream,
                spec.dur,
            );
            debug_assert_eq!(tid, n_ops + k, "leg task ids are dense after the ops");
            if let Some(p) = spec.op_dep {
                tasks[p].dependents.push(tid);
                tasks[tid].deps += 1;
            }
            if let Some(o) = spec.out_dep {
                tasks[n_ops + o].dependents.push(tid);
                tasks[tid].deps += 1;
            }
            if let Some(c) = spec.consumer {
                // Prefetch trigger: an upstream compute op whose start
                // leaves enough compute time to hide the copy. The same
                // position doubles as the admission gate.
                if let Some(anchor) = spec.anchor {
                    tasks[tid].trigger_fired = false;
                    triggers[anchor].push(tid);
                    tasks[tid].admit = spec.admit;
                }
                tasks[tid].dependents.push(c);
                tasks[tid].priority = c;
                tasks[c].deps += 1;
            }
        }
        tasks.truncate(live);
        let mut runnable_swaps = std::mem::take(&mut bufs.runnable_swaps);
        runnable_swaps.clear();
        runnable_swaps.resize(n_tensors, 0);
        for (k, spec) in specs.iter().enumerate() {
            if tasks[n_ops + k].deps == 0 {
                runnable_swaps[spec.tensor.index()] += 1;
            }
        }

        // --- Streams ----------------------------------------------------------
        let n_sids = machine.gpu_count() * STREAMS_PER_DEV;
        let mut streams = std::mem::take(&mut bufs.streams);
        for s in streams.iter_mut() {
            s.queue.clear();
            s.ready.clear();
            s.cursor = 0;
            s.busy = false;
        }
        while streams.len() < n_sids {
            streams.push(Stream::new(false));
        }
        streams.truncate(n_sids);
        for (s, stream) in streams.iter_mut().enumerate() {
            stream.fifo = matches!(s % STREAMS_PER_DEV, 0 | 1); // Compute, Comm
        }
        // Compute/comm queues follow the stage program order; copy queues
        // follow creation order (scan-ready anyway).
        for stage in 0..graph.n_stages() {
            for id in graph.stage_program(stage) {
                let tid = id.index();
                streams[sid(tasks[tid].device.index(), tasks[tid].stream)]
                    .queue
                    .push(tid);
            }
        }
        for tid in n_ops..tasks.len() {
            streams[sid(tasks[tid].device.index(), tasks[tid].stream)]
                .queue
                .push(tid);
        }
        // Seed the ready-set and the non-FIFO ready lists with
        // already-eligible tasks.
        let mut ready_set = std::mem::take(&mut bufs.ready_set);
        ready_set.clear_resize(tasks.len());
        for (tid, task) in tasks.iter_mut().enumerate() {
            if task.is_ready() {
                ready_set.insert(tid);
                let stream = &mut streams[sid(task.device.index(), task.stream)];
                if !stream.fifo {
                    stream.ready.push(tid);
                    task.in_ready = true;
                }
            }
        }
        let mut dirty = std::mem::take(&mut bufs.dirty);
        dirty.clear();
        dirty.resize(n_sids, true);
        let mut heap = std::mem::take(&mut bufs.heap);
        heap.clear();

        // --- Initial memory ----------------------------------------------------
        let mut memory = MemoryTracker::new(
            machine.gpu_count(),
            machine.gpu().usable_memory(),
            machine.cpu().memory,
            machine.nvme().map_or(Bytes::ZERO, |nv| nv.capacity),
            config.track_timeline,
        );
        let mut residency = std::mem::take(&mut bufs.residency);
        residency.clear();
        residency.resize(n_tensors, Loc::Unmaterialized);
        for tensor in graph.tensors() {
            let i = tensor.id.index();
            if !tensor.kind.is_static() {
                continue;
            }
            match directive[i] {
                None | Some(MemoryDirective::Recompute) => {
                    memory.alloc(home[i], pre.bytes[i], 0.0);
                    residency[i] = Loc::Home;
                }
                Some(MemoryDirective::SwapToHost(HostTier::Dram)) => {
                    memory.host_alloc(pre.bytes[i], 0.0);
                    residency[i] = Loc::Host;
                }
                Some(MemoryDirective::SwapToHost(HostTier::Nvme)) => {
                    memory.nvme_alloc(pre.bytes[i], 0.0);
                    residency[i] = Loc::Host;
                }
                Some(MemoryDirective::SwapD2d(stripe)) => {
                    for c in stripe.chunks() {
                        memory.alloc(c.target, c.bytes, 0.0);
                    }
                    residency[i] = Loc::Peers;
                }
            }
        }

        let mut stage_device = std::mem::take(&mut bufs.stage_device);
        stage_device.clear();
        stage_device.extend((0..graph.n_stages()).map(|st| device_map.device_of(st).index()));
        let mut active_swaps = std::mem::take(&mut bufs.active_swaps);
        active_swaps.clear();
        active_swaps.resize(n_tensors, 0);
        let mut scratch_alloc = std::mem::take(&mut bufs.scratch_alloc);
        scratch_alloc.clear();

        Ok(EngineState {
            pre,
            tasks,
            streams,
            dirty,
            ready_set,
            heap,
            clock: 0.0,
            memory,
            residency,
            triggers,
            home,
            directive,
            d2d_traffic: Bytes::ZERO,
            host_traffic: Bytes::ZERO,
            nvme_traffic: Bytes::ZERO,
            recompute_time: 0.0,
            completed: 0,
            memory_gate: config.memory_gate,
            reference_scan: config.reference_scan,
            stage_device,
            active_swaps,
            runnable_swaps,
            evictions: 0,
            refetches: 0,
            pcie_curve: *machine.pcie(),
            trace: config.trace.then(Vec::new),
            metrics: config.metrics,
            gpu_count: machine.gpu_count(),
            scratch_tid: usize::MAX,
            scratch_alloc,
            scratch_extra: 0.0,
        })
    }

    /// The event loop. A `bound` turns it into a bound-and-abort run:
    /// the first completion event whose time exceeds the bound stops the
    /// loop *before* committing the clock, and its time is returned. The
    /// prefix executed up to that point is byte-identical to the
    /// unbounded run's prefix — the bound is only ever *read*.
    fn run(&mut self, strict_oom: bool, bound: Option<Secs>) -> Option<Secs> {
        // Snapshot: evictions append tasks, so a cap computed on the live
        // length would recede forever and allow an unbounded evict/refetch
        // loop under hopeless memory pressure.
        let eviction_cap = 4 * self.tasks.len();
        loop {
            self.start_pass();
            if strict_oom && self.memory.oom().is_some() {
                break;
            }
            if let Some(Reverse(key)) = self.heap.pop() {
                if let Some(b) = bound {
                    if key.time.0 > b {
                        return Some(key.time.0);
                    }
                }
                self.clock = key.time.0;
                self.complete_task(key.seq);
                continue;
            }
            // Quiescent. Done, or stalled on memory/dependencies.
            if self.completed >= self.tasks.len() {
                break;
            }
            let Some((blocked_tid, dev, need)) = self.find_blocked() else {
                break; // dependency stall — surfaces as Deadlock
            };
            // The memory manager's move: evict prefetched/idle swappable
            // tensors (furthest next use first, vDNN-style) to unblock the
            // head of the compute queue. If nothing can be evicted the
            // stall is a genuine OOM.
            if self.evictions < eviction_cap && self.try_evict(blocked_tid, dev, need) {
                continue;
            }
            if verbosity().sim_debug {
                let t = &self.tasks[blocked_tid];
                eprintln!(
                    "[stall] t={:.3}s dev={} need={} used={} cap={} payload={:?} evictions={} completed={}/{}",
                    self.clock, dev.index(), need, self.memory.used(dev),
                    self.memory.capacity(), t.payload, self.evictions,
                    self.completed, self.tasks.len()
                );
                let mut resident: Vec<(usize, Bytes)> = (0..self.residency.len())
                    .filter(|&i| self.residency[i] == Loc::Home && self.home[i] == dev)
                    .map(|i| (i, self.pre.bytes[i]))
                    .collect();
                resident.sort_by_key(|&(_, b)| std::cmp::Reverse(b));
                for (i, b) in resident.iter().take(8) {
                    eprintln!(
                        "  resident t{i}: {b} directive={:?} pending={}",
                        self.directive[*i].map(|d| d.technique()),
                        self.active_swaps[*i]
                    );
                }
            }
            self.memory.record_stall_oom(dev, need, self.clock);
            break;
        }
        None
    }

    /// Starts everything startable at the current clock. Tasks whose
    /// home-device allocation would not fit stay queued — this is the
    /// back-pressure that makes slow swap-outs *delay* the computation
    /// instead of overflowing it.
    ///
    /// The fast path visits only dirty streams; each pass a productive
    /// stream start marks every stream its side effects could wake, so
    /// skipping clean streams never skips a possible start. The
    /// reference path re-scans every stream, as the original loop did.
    fn start_pass(&mut self) {
        loop {
            let mut progress = false;
            for s in 0..self.streams.len() {
                if !self.reference_scan {
                    if !self.dirty[s] {
                        continue;
                    }
                    self.dirty[s] = false;
                }
                if self.streams[s].busy {
                    continue;
                }
                // Start immediately so this task's allocations are
                // visible to the next stream's memory-fit check.
                if let Some(tid) = self.pick_startable(s) {
                    let stream = &mut self.streams[s];
                    stream.busy = true;
                    if stream.fifo {
                        stream.cursor += 1;
                    }
                    self.start_task(tid);
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
    }

    /// The first (lowest task id) ready, admitted task whose start
    /// allocation does not fit — the quiescent stall witness. The fast
    /// path walks the indexed ready-set; the reference path re-derives
    /// readiness by scanning every task.
    fn find_blocked(&mut self) -> Option<(usize, DeviceId, Bytes)> {
        if self.reference_scan {
            let mut tid = 0;
            while tid < self.tasks.len() {
                if self.tasks[tid].is_ready() && self.admitted(tid) {
                    let (dev, need) = self.start_need(tid);
                    if !self.memory.fits(dev, need) {
                        return Some((tid, dev, need));
                    }
                }
                tid += 1;
            }
            None
        } else {
            let mut from = 0;
            loop {
                let tid = self.ready_set.next_at_or_after(from)?;
                from = tid + 1;
                debug_assert!(self.tasks[tid].is_ready(), "stale ready-set entry {tid}");
                if !self.admitted(tid) {
                    continue;
                }
                let (dev, need) = self.start_need(tid);
                if !self.memory.fits(dev, need) {
                    return Some((tid, dev, need));
                }
            }
        }
    }

    /// Re-exports Home-resident swap-directive tensors on `dev` until
    /// `need` bytes could fit, preferring tensors whose next use is
    /// furthest away. Returns false when no candidate exists.
    fn try_evict(&mut self, blocked_tid: usize, dev: DeviceId, need: Bytes) -> bool {
        let pre = self.pre;
        // Candidates: swap-directive tensors resident on `dev` with no
        // started-but-unfinished consumer; keyed by their next unstarted
        // consumer (None = no future use, evict first).
        let mut candidates: Vec<(usize, Option<usize>)> = Vec::new();
        for i in 0..self.residency.len() {
            if self.residency[i] != Loc::Home || self.home[i] != dev {
                continue;
            }
            let is_swap = matches!(
                self.directive[i],
                Some(MemoryDirective::SwapToHost(_)) | Some(MemoryDirective::SwapD2d(_))
            );
            if !is_swap {
                continue;
            }
            if self.active_swaps[i] != 0 || self.runnable_swaps[i] != 0 {
                continue; // a copy is in flight or imminently scheduled
            }
            let consumers = &pre.consumers_of[i];
            if consumers
                .iter()
                .any(|&c| self.tasks[c].started && !self.tasks[c].done)
            {
                continue; // actively being read
            }
            let next = consumers
                .iter()
                .copied()
                .filter(|&c| !self.tasks[c].started)
                .min();
            if next == Some(blocked_tid) {
                continue; // evicting the blocked task's own input livelocks
            }
            candidates.push((i, next));
        }
        if candidates.is_empty() {
            return false;
        }
        // No future use first, then furthest future use.
        candidates.sort_by(|a, b| match (a.1, b.1) {
            (None, None) => std::cmp::Ordering::Equal,
            (None, Some(_)) => std::cmp::Ordering::Less,
            (Some(_), None) => std::cmp::Ordering::Greater,
            (Some(x), Some(y)) => y.cmp(&x),
        });
        let free_now = self.memory.capacity().saturating_sub(self.memory.used(dev));
        let mut to_free = need.saturating_sub(free_now);
        let mut evicted_any = false;
        for (i, next) in candidates {
            if to_free.is_zero() {
                break;
            }
            self.evict_tensor(i, next, blocked_tid);
            to_free = to_free.saturating_sub(self.pre.bytes[i]);
            evicted_any = true;
        }
        evicted_any
    }

    /// Creates the re-export (and, when a future consumer exists, the
    /// re-import) tasks for one evicted tensor.
    fn evict_tensor(&mut self, i: usize, next_consumer: Option<usize>, blocked_tid: usize) {
        self.evictions += 1;
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                kind: TraceKind::Eviction,
                device: self.home[i].index(),
                start: self.clock,
                end: self.clock,
                bytes: self.pre.bytes[i],
            });
        }
        if verbosity().sim_debug && self.evictions <= 30 || self.evictions.is_multiple_of(500) {
            eprintln!(
                "[evict#{}] t={:.3}s tensor=t{i} bytes={} next={:?}",
                self.evictions, self.clock, self.pre.bytes[i], next_consumer
            );
        }
        let t = TensorId(i as u32);
        let directive = self.directive[i].expect("swap directive");
        let out_dur = match directive {
            MemoryDirective::SwapToHost(_) => self.machine_pcie_time(self.pre.bytes[i]),
            MemoryDirective::SwapD2d(stripe) => stripe.one_way_time(),
            MemoryDirective::Recompute => unreachable!("not a swap directive"),
        };
        let dev = self.home[i];
        let out = self.push_task(Payload::SwapOut(t), dev, StreamKind::CopyOut, out_dur);
        self.runnable_swaps[i] += 1;
        if let Some(consumer) = next_consumer {
            self.refetches += 1;
            let inn = self.push_task(Payload::SwapIn(t), dev, StreamKind::CopyIn, out_dur);
            self.tasks[out].dependents.push(inn);
            self.bump_dep(inn);
            // The refetch is immediately eligible; the memory gate paces
            // it, and compute streams are scanned before copy-in per
            // device, so the blocked task claims freed space first.
            self.tasks[inn].dependents.push(consumer);
            self.tasks[inn].priority = consumer;
            // Admitted at the later of its own prefetch anchor and the
            // position right past the task this eviction unblocks —
            // otherwise the refetch instantly reclaims the freed bytes
            // and the run ping-pongs one tensor forever.
            let anchor = self.refetch_admit(consumer, out_dur);
            let past_blocked = self.position_of(blocked_tid).map(|(d, p)| (d, p + 1));
            self.tasks[inn].admit = match (anchor, past_blocked) {
                (Some((d, a)), Some((d2, b))) if d == d2 => Some((d, a.max(b))),
                (a, None) => a,
                (None, b) => b,
                (a, _) => a, // different devices: keep the anchor
            };
            self.bump_dep(consumer);
        }
    }

    /// Appends a dynamically created task and enqueues it on its stream.
    fn push_task(
        &mut self,
        payload: Payload,
        device: DeviceId,
        stream: StreamKind,
        duration: Secs,
    ) -> usize {
        let tid = self.tasks.len();
        self.tasks.push(Task {
            payload,
            device,
            stream,
            duration,
            deps: 0,
            trigger_fired: true,
            dependents: Vec::new(),
            started: false,
            done: false,
            in_ready: false,
            priority: usize::MAX,
            admit: None,
            start: 0.0,
            end: 0.0,
            ready_at: self.clock,
            dep_wait_is_copy: false,
        });
        self.streams[sid(device.index(), stream)].queue.push(tid);
        self.note_ready(tid);
        tid
    }

    /// Adds one dependency to a task, retracting it from the ready-set
    /// when it was ready (eviction wires refetch copies in front of
    /// already-eligible tasks).
    fn bump_dep(&mut self, tid: usize) {
        if self.tasks[tid].deps == 0 {
            self.ready_set.remove(tid);
        }
        self.tasks[tid].deps += 1;
    }

    fn machine_pcie_time(&self, bytes: Bytes) -> Secs {
        self.pcie_curve.transfer_time(bytes)
    }

    /// The next task the stream could start right now, honoring FIFO
    /// order for compute/comm streams and memory back-pressure everywhere.
    /// Non-FIFO streams consult only their ready list (lazily pruning
    /// stale entries), keeping scheduling O(ready) per attempt.
    ///
    /// Always probes `start_need` on the returned candidate, so
    /// `start_task` can consume the cached result instead of recomputing
    /// it on the admit path.
    fn pick_startable(&mut self, s: usize) -> Option<usize> {
        let gate = self.memory_gate;
        if self.streams[s].fifo {
            let stream = &self.streams[s];
            let &tid = stream.queue.get(stream.cursor)?;
            if !self.tasks[tid].is_ready() {
                return None;
            }
            let (dev, need) = self.start_need(tid);
            if gate && !self.memory.fits(dev, need) {
                return None;
            }
            Some(tid)
        } else {
            // Prune stale entries, then take the minimum-priority ready
            // task. A best task that does not fit BLOCKS the stream:
            // starting a lower-priority one instead would invert prefetch
            // order and can deadlock the blocked consumer out of memory.
            let mut j = 0;
            while j < self.streams[s].ready.len() {
                let tid = self.streams[s].ready[j];
                if self.tasks[tid].is_ready() {
                    j += 1;
                } else {
                    self.streams[s].ready.swap_remove(j);
                    self.tasks[tid].in_ready = false;
                }
            }
            let stream = &self.streams[s];
            let best = stream
                .ready
                .iter()
                .copied()
                .filter(|&tid| self.admitted(tid))
                .min_by_key(|&tid| (self.tasks[tid].priority, tid))?;
            let (dev, need) = self.start_need(best);
            if gate && !self.memory.fits(dev, need) {
                return None;
            }
            let stream = &mut self.streams[s];
            let pos = stream
                .ready
                .iter()
                .position(|&t| t == best)
                .expect("best is in ready");
            stream.ready.swap_remove(pos);
            self.tasks[best].in_ready = false;
            Some(best)
        }
    }

    /// Registers a task that may have just become dependency-ready:
    /// inserts it into the ready-set, marks its stream dirty, and (for
    /// non-FIFO streams) adds it to the stream's ready list.
    fn note_ready(&mut self, tid: usize) {
        if !self.tasks[tid].is_ready() {
            return;
        }
        self.ready_set.insert(tid);
        let s = sid(self.tasks[tid].device.index(), self.tasks[tid].stream);
        self.dirty[s] = true;
        if !self.streams[s].fifo && !self.tasks[tid].in_ready {
            self.streams[s].ready.push(tid);
            self.tasks[tid].in_ready = true;
        }
    }

    /// Marks all four streams of one device dirty — called when memory
    /// is released (or a tensor lands Home) on that device, which can
    /// unblock any stream whose head failed its memory-fit check.
    fn mark_device(&mut self, dev: usize) {
        let base = dev * STREAMS_PER_DEV;
        for k in 0..STREAMS_PER_DEV {
            self.dirty[base + k] = true;
        }
    }

    /// The admission gate for a refetch created at eviction time: the same
    /// anchor rule as build-time prefetches (enough compute upstream of
    /// the consumer to hide the copy).
    fn refetch_admit(&self, consumer_tid: usize, in_dur: Secs) -> Option<(usize, usize)> {
        let (stage, pos) = self.pre.seq_pos.get(consumer_tid).copied().flatten()?;
        let seq = &self.pre.compute_seq[stage];
        let mut lead = 0.0;
        let mut anchor_pos = None;
        for j in (0..pos).rev() {
            anchor_pos = Some(j);
            lead += self.tasks[seq[j]].duration;
            if lead >= 1.5 * in_dur {
                break;
            }
        }
        anchor_pos.map(|p| (self.stage_device[stage], p))
    }

    /// The compute-stream slot a task occupies (ops directly; swap-ins via
    /// their consumer).
    fn position_of(&self, tid: usize) -> Option<(usize, usize)> {
        let key = match self.tasks[tid].payload {
            Payload::Op(_) => tid,
            Payload::SwapIn(_) => self.tasks[tid].priority,
            Payload::SwapOut(_) => return None,
        };
        self.pre
            .seq_pos
            .get(key)
            .copied()
            .flatten()
            .map(|(stage, pos)| (self.stage_device[stage], pos))
    }

    /// Whether a task's demand-window admission is satisfied.
    fn admitted(&self, tid: usize) -> bool {
        match self.tasks[tid].admit {
            None => true,
            Some((dev, pos)) => self.streams[sid(dev, StreamKind::Compute)].cursor >= pos,
        }
    }

    /// Home-device bytes a task allocates the moment it starts. For ops,
    /// the tensors to materialize and the folded recompute time land in
    /// the scratch fields, which `start_task` consumes — the admit path
    /// computes them exactly once per started task.
    fn start_need(&mut self, tid: usize) -> (DeviceId, Bytes) {
        let pre = self.pre;
        let (payload, device) = (self.tasks[tid].payload, self.tasks[tid].device);
        self.scratch_tid = tid;
        self.scratch_extra = 0.0;
        self.scratch_alloc.clear();
        match payload {
            Payload::Op(op_id) => {
                let idx = op_id.index();
                let mut need = Bytes::ZERO;
                for &i in &pre.op_writes[idx] {
                    if matches!(self.directive[i], Some(MemoryDirective::Recompute)) {
                        continue; // materialized only inside the consumer
                    }
                    if self.residency[i] != Loc::Home {
                        need += pre.bytes[i];
                        self.scratch_alloc.push(i);
                    }
                }
                for &i in &pre.op_reads[idx] {
                    if matches!(self.directive[i], Some(MemoryDirective::Recompute))
                        && self.residency[i] != Loc::Home
                    {
                        need += pre.bytes[i];
                        self.scratch_alloc.push(i);
                        self.scratch_extra += pre.recompute_cost[i];
                    }
                }
                (device, need)
            }
            Payload::SwapIn(t) => (self.home[t.index()], pre.bytes[t.index()]),
            Payload::SwapOut(_) => (device, Bytes::ZERO),
        }
    }

    fn start_task(&mut self, tid: usize) {
        let clock = self.clock;
        if verbosity().sim_trace {
            let dev = self.tasks[tid].device.index();
            if trace_window().is_none_or(|w| w.contains(clock, dev)) {
                eprintln!(
                    "[start t={clock:.4}] task{tid} {:?} dur={:.4} prio={}",
                    self.tasks[tid].payload, self.tasks[tid].duration, self.tasks[tid].priority
                );
            }
        }
        self.ready_set.remove(tid);
        self.tasks[tid].started = true;
        self.tasks[tid].start = clock;
        let end = clock + self.tasks[tid].duration;
        self.tasks[tid].end = end;
        self.heap.push(Reverse(CompletionKey {
            time: OrdTime(end),
            stream: self.tasks[tid].stream,
            seq: tid,
        }));
        if self.tasks[tid].stream == StreamKind::Compute {
            // The compute cursor just advanced; swap-in admission windows
            // on any device may reference it.
            for dev in 0..self.gpu_count {
                self.dirty[sid(dev, StreamKind::CopyIn)] = true;
            }
        }

        match self.tasks[tid].payload {
            Payload::Op(_) => {
                // Fire prefetch triggers anchored on this op (op task ids
                // are dense, so a Vec indexed by tid replaces the map).
                let n_triggers = self.triggers[tid].len();
                for k in 0..n_triggers {
                    let f = self.triggers[tid][k];
                    self.tasks[f].trigger_fired = true;
                    self.note_ready(f);
                }
                self.triggers[tid].clear();
                // Materialize from the scratch the admit-path probe left.
                debug_assert_eq!(self.scratch_tid, tid, "start_need precedes start_task");
                self.recompute_time += self.scratch_extra;
                let to_alloc = std::mem::take(&mut self.scratch_alloc);
                for &i in &to_alloc {
                    self.memory.alloc(self.home[i], self.pre.bytes[i], clock);
                    self.residency[i] = Loc::Home;
                }
                self.scratch_alloc = to_alloc;
            }
            Payload::SwapIn(t) => {
                // The return buffer is allocated when the copy begins.
                let i = t.index();
                self.runnable_swaps[i] = self.runnable_swaps[i].saturating_sub(1);
                self.active_swaps[i] += 1;
                self.memory.alloc(self.home[i], self.pre.bytes[i], clock);
            }
            Payload::SwapOut(t) => {
                let i = t.index();
                self.runnable_swaps[i] = self.runnable_swaps[i].saturating_sub(1);
                self.active_swaps[i] += 1;
            }
        }
    }

    fn complete_task(&mut self, tid: usize) {
        let pre = self.pre;
        let clock = self.clock;
        self.tasks[tid].done = true;
        self.completed += 1;
        if self.trace.is_some() {
            let task = &self.tasks[tid];
            let (kind, bytes) = match task.payload {
                Payload::Op(op_id) => (
                    match pre.op_kinds[op_id.index()] {
                        OpKind::Forward => TraceKind::Forward,
                        OpKind::Backward | OpKind::Drop => TraceKind::Backward,
                        OpKind::OptimizerStep => TraceKind::Optimizer,
                        OpKind::Send | OpKind::Recv => TraceKind::Send,
                        OpKind::SwapOut => TraceKind::SwapOut,
                        OpKind::SwapIn => TraceKind::SwapIn,
                    },
                    Bytes::ZERO,
                ),
                Payload::SwapOut(t) => (TraceKind::SwapOut, pre.bytes[t.index()]),
                Payload::SwapIn(t) => (TraceKind::SwapIn, pre.bytes[t.index()]),
            };
            let event = TraceEvent {
                kind,
                device: task.device.index(),
                start: task.start,
                end: task.end,
                bytes,
            };
            if let Some(trace) = &mut self.trace {
                trace.push(event);
            }
        }
        let s = sid(self.tasks[tid].device.index(), self.tasks[tid].stream);
        self.streams[s].busy = false;
        self.dirty[s] = true;

        match self.tasks[tid].payload {
            Payload::Op(op_id) => {
                for &i in &pre.op_frees[op_id.index()] {
                    if self.residency[i] == Loc::Home {
                        self.memory.free(self.home[i], pre.bytes[i], clock);
                        self.residency[i] = Loc::Freed;
                        self.mark_device(self.home[i].index());
                    }
                }
            }
            Payload::SwapOut(t) => {
                let i = t.index();
                self.active_swaps[i] -= 1;
                self.memory.free(self.home[i], pre.bytes[i], clock);
                self.mark_device(self.home[i].index());
                match self.directive[i].expect("swap task has directive") {
                    MemoryDirective::SwapToHost(tier) => {
                        match tier {
                            HostTier::Dram => self.memory.host_alloc(pre.bytes[i], clock),
                            HostTier::Nvme => {
                                self.memory.nvme_alloc(pre.bytes[i], clock);
                                self.nvme_traffic += pre.bytes[i];
                            }
                        }
                        self.residency[i] = Loc::Host;
                        self.host_traffic += pre.bytes[i];
                    }
                    MemoryDirective::SwapD2d(stripe) => {
                        for c in stripe.chunks() {
                            self.memory.alloc(c.target, c.bytes, clock);
                        }
                        self.residency[i] = Loc::Peers;
                        self.d2d_traffic += pre.bytes[i];
                    }
                    MemoryDirective::Recompute => unreachable!("recompute has no swap tasks"),
                }
            }
            Payload::SwapIn(t) => {
                let i = t.index();
                self.active_swaps[i] -= 1;
                match self.directive[i].expect("swap task has directive") {
                    MemoryDirective::SwapToHost(tier) => {
                        match tier {
                            HostTier::Dram => self.memory.host_free(pre.bytes[i]),
                            HostTier::Nvme => {
                                self.memory.nvme_free(pre.bytes[i]);
                                self.nvme_traffic += pre.bytes[i];
                            }
                        }
                        self.host_traffic += pre.bytes[i];
                    }
                    MemoryDirective::SwapD2d(stripe) => {
                        for c in stripe.chunks() {
                            self.memory.free(c.target, c.bytes, clock);
                            self.mark_device(c.target.index());
                        }
                        self.d2d_traffic += pre.bytes[i];
                    }
                    MemoryDirective::Recompute => unreachable!("recompute has no swap tasks"),
                }
                self.residency[i] = Loc::Home;
                // Landing Home shrinks dependents' start allocations on
                // this device.
                self.mark_device(self.home[i].index());
            }
        }

        let completed_stream = self.tasks[tid].stream;
        let dependents = std::mem::take(&mut self.tasks[tid].dependents);
        for &d in &dependents {
            self.tasks[d].deps -= 1;
            if self.tasks[d].deps == 0 {
                // Last dependency just resolved — remember when and by
                // what, for post-hoc stall attribution.
                self.tasks[d].ready_at = clock;
                self.tasks[d].dep_wait_is_copy = completed_stream == StreamKind::CopyIn;
                match self.tasks[d].payload {
                    Payload::SwapIn(t) | Payload::SwapOut(t) => {
                        self.runnable_swaps[t.index()] += 1;
                    }
                    Payload::Op(_) => {}
                }
            }
            self.note_ready(d);
        }
        self.tasks[tid].dependents = dependents;
    }

    /// Consumes a bound-aborted state into its recycled buffers only:
    /// no report exists (the run did not finish and is not a deadlock),
    /// but the allocations must still flow back to the arena.
    fn recycle(self) -> Buffers {
        let EngineState {
            tasks,
            streams,
            dirty,
            ready_set,
            heap,
            residency,
            triggers,
            home,
            stage_device,
            active_swaps,
            runnable_swaps,
            scratch_alloc,
            ..
        } = self;
        Buffers {
            tasks,
            streams,
            dirty,
            ready_set,
            heap,
            residency,
            triggers,
            home,
            stage_device,
            active_swaps,
            runnable_swaps,
            scratch_alloc,
        }
    }

    /// Consumes the state into a report, handing the recycled buffers
    /// back for the arena regardless of the outcome.
    fn into_report(self, graph: &TrainingGraph) -> (Result<SimReport, SimError>, Buffers) {
        let n_ops = graph.ops().len();
        let total = self.tasks.len();
        let oom = self.memory.oom().copied();
        let deadlock = self.completed < total && oom.is_none();
        if deadlock && verbosity().sim_debug {
            for (tid, task) in self.tasks.iter().enumerate() {
                if !task.done {
                    eprintln!(
                        "[deadlock] task {tid}: {:?} dev={} stream={:?} deps={} trig={} started={}",
                        task.payload,
                        task.device.index(),
                        task.stream,
                        task.deps,
                        task.trigger_fired,
                        task.started
                    );
                }
            }
        }
        let makespan = self
            .tasks
            .iter()
            .filter(|t| t.done)
            .map(|t| t.end)
            .fold(0.0, f64::max);
        let metrics = (!deadlock && self.metrics).then(|| self.build_metrics(makespan));
        let op_start: Vec<Secs> = self.tasks[..n_ops].iter().map(|t| t.start).collect();
        let op_end: Vec<Secs> = self.tasks[..n_ops].iter().map(|t| t.end).collect();
        let nvme_peak = self.memory.nvme_peak();
        let (d2d_traffic, host_traffic, nvme_traffic) =
            (self.d2d_traffic, self.host_traffic, self.nvme_traffic);
        let (recompute_time, completed) = (self.recompute_time, self.completed);
        let EngineState {
            tasks,
            streams,
            dirty,
            ready_set,
            heap,
            memory,
            residency,
            triggers,
            home,
            stage_device,
            active_swaps,
            runnable_swaps,
            scratch_alloc,
            trace,
            ..
        } = self;
        let bufs = Buffers {
            tasks,
            streams,
            dirty,
            ready_set,
            heap,
            residency,
            triggers,
            home,
            stage_device,
            active_swaps,
            runnable_swaps,
            scratch_alloc,
        };
        if deadlock {
            return (Err(SimError::Deadlock { completed, total }), bufs);
        }
        let (device_peak, host_peak, oom, timelines) = memory.into_parts();
        (
            Ok(SimReport {
                makespan,
                op_start,
                op_end,
                device_peak,
                host_peak,
                nvme_peak,
                oom,
                d2d_traffic,
                host_traffic,
                nvme_traffic,
                recompute_time,
                timelines,
                trace,
                metrics,
            }),
            bufs,
        )
    }

    /// Assembles [`SimMetrics`] from the completed task list. Runs once,
    /// at report time, only for metrics-enabled configs — the event loop
    /// itself carries no metric bookkeeping beyond the per-task
    /// `ready_at`/`dep_wait_is_copy` stores.
    fn build_metrics(&self, makespan: Secs) -> SimMetrics {
        let pre = self.pre;
        let mut recorder = MetricsRecorder::new();

        // --- Per-device stream busy time + task-duration histograms -----
        let mut busy: Vec<StreamBusy> = vec![StreamBusy::default(); self.gpu_count];
        for task in self.tasks.iter().filter(|t| t.done) {
            let b = &mut busy[task.device.index()];
            let (slot, hist): (&mut Secs, &str) = match task.stream {
                StreamKind::Compute => (&mut b.compute, "sim.task_duration.compute"),
                StreamKind::Comm => (&mut b.comm, "sim.task_duration.comm"),
                StreamKind::CopyOut => (&mut b.copy_out, "sim.task_duration.copy_out"),
                StreamKind::CopyIn => (&mut b.copy_in, "sim.task_duration.copy_in"),
            };
            *slot += task.duration;
            recorder.observe(hist, task.duration);
            match task.payload {
                Payload::Op(_) => recorder.inc("sim.tasks.ops"),
                Payload::SwapOut(_) => recorder.inc("sim.tasks.swap_out"),
                Payload::SwapIn(_) => recorder.inc("sim.tasks.swap_in"),
            }
        }

        // --- Stall attribution ------------------------------------------
        // Tile each device's compute-stream timeline [0, makespan] with
        // the done tasks (FIFO, so non-overlapping): the gap before a
        // task splits at `ready_at` into dependency wait (copy-in vs
        // other producer) and memory/back-pressure wait; the tail after
        // the last task is drain. The tiling telescopes, so per device
        // busy.compute + stalls.total() equals the makespan exactly.
        let mut devices: Vec<DeviceMetrics> = Vec::with_capacity(self.gpu_count);
        for (dev, dev_busy) in busy.iter().enumerate() {
            let mut timeline: Vec<&Task> = self
                .tasks
                .iter()
                .filter(|t| t.done && t.device.index() == dev && t.stream == StreamKind::Compute)
                .collect();
            timeline.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite start times"));
            let mut stalls = StallBreakdown::default();
            let mut prev_end = 0.0_f64;
            for task in &timeline {
                if task.start > prev_end {
                    let dep_until = task.ready_at.clamp(prev_end, task.start);
                    let dep_cause = if task.dep_wait_is_copy {
                        StallCause::WaitingOnCopyIn
                    } else {
                        StallCause::WaitingOnDependency
                    };
                    stalls.attribute(dep_cause, dep_until - prev_end);
                    stalls.attribute(StallCause::WaitingOnMemory, task.start - dep_until);
                }
                prev_end = task.end;
            }
            stalls.attribute(StallCause::Drained, (makespan - prev_end).max(0.0));
            devices.push(DeviceMetrics {
                device: DeviceId(dev),
                busy: *dev_busy,
                stalls,
            });
            recorder.observe("sim.device_busy.compute", dev_busy.compute);
        }

        // --- Per-link traffic -------------------------------------------
        // Attributed post-hoc from the done swap tasks by directive:
        // host swaps occupy the home device's PCIe lane (NVMe-tier swaps
        // additionally the drive), D2D swaps occupy one NVLink pair per
        // stripe chunk (chunks move in parallel on distinct links).
        let mut links: BTreeMap<LinkKey, (Bytes, Secs)> = BTreeMap::new();
        let mut tally = |key: LinkKey, bytes: Bytes, secs: Secs| {
            let e = links.entry(key).or_insert((Bytes::ZERO, 0.0));
            e.0 += bytes;
            e.1 += secs;
        };
        for task in self.tasks.iter().filter(|t| t.done) {
            let t = match task.payload {
                Payload::SwapOut(t) | Payload::SwapIn(t) => t,
                Payload::Op(_) => continue,
            };
            let i = t.index();
            let home = self.home[i];
            match self.directive[i].expect("swap task has directive") {
                MemoryDirective::SwapToHost(HostTier::Dram) => {
                    tally(LinkKey::Pcie(home), pre.bytes[i], task.duration);
                }
                MemoryDirective::SwapToHost(HostTier::Nvme) => {
                    tally(LinkKey::Pcie(home), pre.bytes[i], task.duration);
                    tally(LinkKey::Nvme, pre.bytes[i], task.duration);
                }
                MemoryDirective::SwapD2d(stripe) => {
                    for c in stripe.chunks() {
                        tally(LinkKey::nvlink(home, c.target), c.bytes, task.duration);
                    }
                }
                MemoryDirective::Recompute => unreachable!("recompute has no swap tasks"),
            }
        }
        let links: Vec<LinkMetrics> = links
            .into_iter()
            .map(|(link, (bytes, busy))| LinkMetrics {
                link,
                bytes,
                busy,
                occupancy: if makespan > 0.0 { busy / makespan } else { 0.0 },
            })
            .collect();

        recorder.add("sim.tasks.completed", self.completed as u64);
        recorder.add("sim.tasks.total", self.tasks.len() as u64);
        recorder.add("sim.evictions", self.evictions as u64);
        recorder.add("sim.refetches", self.refetches as u64);
        recorder.set_gauge("sim.makespan", makespan);
        recorder.set_gauge("sim.recompute_time", self.recompute_time);

        SimMetrics {
            total_time: makespan,
            devices,
            links,
            evictions: self.evictions as u64,
            refetches: self.refetches as u64,
            recorder: recorder.snapshot(),
        }
    }
}
