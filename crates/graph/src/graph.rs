//! The training-job dataflow graph.

use crate::ids::{OpId, TensorId};
use crate::op::{Op, OpKind};
use crate::tensor::{Tensor, TensorKind};
use mpress_hw::{Bytes, Secs};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Errors raised while building or validating a [`TrainingGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An op references a tensor id that was never added.
    UnknownTensor(TensorId, OpId),
    /// A dependency references an op id that was never added.
    UnknownOp(OpId),
    /// The combined graph (program order + cross-stage edges) has a cycle.
    Cycle,
    /// An op was placed on a stage beyond the declared stage count.
    StageOutOfRange(OpId, usize),
    /// A non-static tensor is read before any op writes it.
    ReadBeforeWrite(TensorId, OpId),
    /// A lowering pass violated one of its own structural invariants
    /// (for instance a stage with no layers, or a missing boundary
    /// tensor) — a bug in the lowering builder, not bad user input.
    LoweringInvariant(&'static str),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownTensor(t, o) => write!(f, "op {o} references unknown tensor {t}"),
            GraphError::UnknownOp(o) => write!(f, "dependency references unknown op {o}"),
            GraphError::Cycle => write!(f, "dependency cycle in training graph"),
            GraphError::StageOutOfRange(o, s) => {
                write!(f, "op {o} placed on out-of-range stage {s}")
            }
            GraphError::ReadBeforeWrite(t, o) => {
                write!(f, "op {o} reads tensor {t} before any producer runs")
            }
            GraphError::LoweringInvariant(msg) => {
                write!(f, "lowering invariant violated: {msg}")
            }
        }
    }
}

impl Error for GraphError {}

/// A validated dataflow graph of one training iteration, partitioned into
/// pipeline stages.
///
/// Each stage has a total *program order* (the sequence its GPU executes);
/// cross-stage edges express send/recv dependencies between adjacent
/// stages.
///
/// # Example
///
/// ```
/// use mpress_graph::{TrainingGraph, TensorKind, OpKind};
/// use mpress_hw::Bytes;
///
/// let mut b = TrainingGraph::builder(2);
/// let act = b.add_tensor(TensorKind::Activation, Bytes::mib(8), 0, Some(0), Some(0));
/// let fwd = b.add_op(OpKind::Forward, 0, Some(0), 0.010, |op| op.writes.push(act));
/// let bwd = b.add_op(OpKind::Backward, 0, Some(0), 0.020, |op| {
///     op.reads.push(act);
///     op.frees.push(act);
/// });
/// b.add_dep(fwd, bwd);
/// let g = b.build()?;
/// assert_eq!(g.consumers_of(act), vec![bwd]);
/// # Ok::<(), mpress_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingGraph {
    tensors: Vec<Tensor>,
    ops: Vec<Op>,
    stage_programs: Vec<Vec<OpId>>,
    cross_deps: Vec<(OpId, OpId)>,
    n_stages: usize,
    /// Computed once by [`TrainingGraphBuilder::build`]; every other
    /// field is private and never mutated, so it cannot go stale.
    fingerprint: u64,
    /// tensor -> number of ops that write it, counted once by
    /// [`TrainingGraphBuilder::build`] like `fingerprint`.
    writers: Vec<u32>,
}

impl TrainingGraph {
    /// Starts building a graph over `n_stages` pipeline stages.
    pub fn builder(n_stages: usize) -> TrainingGraphBuilder {
        TrainingGraphBuilder {
            tensors: Vec::new(),
            ops: Vec::new(),
            stage_programs: vec![Vec::new(); n_stages],
            cross_deps: Vec::new(),
            n_stages,
        }
    }

    /// Number of pipeline stages.
    pub fn n_stages(&self) -> usize {
        self.n_stages
    }

    /// Cheap content fingerprint: FNV-1a over the op, tensor, stage and
    /// dependency counts, then every op duration and every tensor size.
    /// Collisions would need two *different* graphs with identical
    /// counts, durations and sizes. Simulator arenas key their prebuilt
    /// tables on it and cross-run caches scope their keys by it.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// How many ops write `tensor` (0 for statics nothing updates).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn writer_count(&self, tensor: TensorId) -> usize {
        self.writers[tensor.index()] as usize
    }

    /// All tensors.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// All ops.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Looks up one tensor.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn tensor(&self, id: TensorId) -> &Tensor {
        &self.tensors[id.index()]
    }

    /// Looks up one op.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.index()]
    }

    /// The ordered op sequence of one stage.
    pub fn stage_program(&self, stage: usize) -> &[OpId] {
        &self.stage_programs[stage]
    }

    /// Cross-stage dependency edges `(from, to)`.
    pub fn cross_deps(&self) -> &[(OpId, OpId)] {
        &self.cross_deps
    }

    /// The op that writes `tensor`, if any (static tensors have none).
    pub fn producer_of(&self, tensor: TensorId) -> Option<OpId> {
        self.ops
            .iter()
            .find(|op| op.writes.contains(&tensor))
            .map(|op| op.id)
    }

    /// All ops that read `tensor`, in id order.
    pub fn consumers_of(&self, tensor: TensorId) -> Vec<OpId> {
        self.ops
            .iter()
            .filter(|op| op.reads.contains(&tensor))
            .map(|op| op.id)
            .collect()
    }

    /// Total bytes of all tensors on one stage.
    pub fn stage_bytes(&self, stage: usize) -> Bytes {
        self.tensors
            .iter()
            .filter(|t| t.stage == stage)
            .map(|t| t.bytes)
            .sum()
    }

    /// Serial (single-op-at-a-time, zero-communication) start times: each
    /// stage's program runs back-to-back, stages honor cross edges. Useful
    /// as a cheap timing estimate for liveness analysis before full
    /// simulation.
    ///
    /// Returns `start[op.index()]` in seconds.
    pub fn serial_start_times(&self) -> Vec<Secs> {
        // Kahn-style traversal over the combined graph.
        let order = self.topo_order().expect("validated graph is acyclic");
        let mut start = vec![0.0_f64; self.ops.len()];
        let mut stage_free: Vec<Secs> = vec![0.0; self.n_stages];
        let mut dep_ready: Vec<Secs> = vec![0.0; self.ops.len()];
        let mut preds: HashMap<usize, Vec<usize>> = HashMap::new();
        for &(a, b) in &self.cross_deps {
            preds.entry(b.index()).or_default().push(a.index());
        }
        for id in order {
            let i = id.index();
            let op = &self.ops[i];
            if let Some(ps) = preds.get(&i) {
                for &p in ps {
                    let end = start[p] + self.ops[p].duration;
                    if end > dep_ready[i] {
                        dep_ready[i] = end;
                    }
                }
            }
            let s = stage_free[op.stage].max(dep_ready[i]);
            start[i] = s;
            stage_free[op.stage] = s + op.duration;
        }
        start
    }

    /// Topological order over program-order + cross edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] when the graph is cyclic.
    pub fn topo_order(&self) -> Result<Vec<OpId>, GraphError> {
        let n = self.ops.len();
        let mut indeg = vec![0usize; n];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        let add_edge = |succ: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>, a: usize, b: usize| {
            succ[a].push(b);
            indeg[b] += 1;
        };
        for prog in &self.stage_programs {
            for w in prog.windows(2) {
                add_edge(&mut succ, &mut indeg, w[0].index(), w[1].index());
            }
        }
        for &(a, b) in &self.cross_deps {
            add_edge(&mut succ, &mut indeg, a.index(), b.index());
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut out = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            out.push(OpId(i as u32));
            for &j in &succ[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if out.len() == n {
            Ok(out)
        } else {
            Err(GraphError::Cycle)
        }
    }
}

/// Incremental builder for [`TrainingGraph`].
#[derive(Debug, Clone)]
pub struct TrainingGraphBuilder {
    tensors: Vec<Tensor>,
    ops: Vec<Op>,
    stage_programs: Vec<Vec<OpId>>,
    cross_deps: Vec<(OpId, OpId)>,
    n_stages: usize,
}

impl TrainingGraphBuilder {
    /// Adds a tensor and returns its id.
    pub fn add_tensor(
        &mut self,
        kind: TensorKind,
        bytes: Bytes,
        stage: usize,
        layer: Option<usize>,
        microbatch: Option<u32>,
    ) -> TensorId {
        let id = TensorId(self.tensors.len() as u32);
        self.tensors.push(Tensor {
            id,
            kind,
            bytes,
            stage,
            layer,
            microbatch,
        });
        id
    }

    /// Adds an op at the end of its stage's program order. The `configure`
    /// closure fills in reads/writes/frees/sub-events.
    pub fn add_op(
        &mut self,
        kind: OpKind,
        stage: usize,
        microbatch: Option<u32>,
        duration: Secs,
        configure: impl FnOnce(&mut Op),
    ) -> OpId {
        let id = OpId(self.ops.len() as u32);
        let mut op = Op::new(id, kind, stage, microbatch, duration);
        configure(&mut op);
        self.ops.push(op);
        if stage < self.stage_programs.len() {
            self.stage_programs[stage].push(id);
        }
        id
    }

    /// Adds a cross-stage dependency: `to` cannot start before `from` ends.
    pub fn add_dep(&mut self, from: OpId, to: OpId) {
        self.cross_deps.push((from, to));
    }

    /// Validates and finishes the graph.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: unknown ids, out-of-range stages,
    /// cycles, or reads of never-written dynamic tensors.
    pub fn build(self) -> Result<TrainingGraph, GraphError> {
        let n_tensors = self.tensors.len();
        let n_ops = self.ops.len();
        for op in &self.ops {
            if op.stage >= self.n_stages {
                return Err(GraphError::StageOutOfRange(op.id, op.stage));
            }
            for &t in op.reads.iter().chain(&op.writes).chain(&op.frees) {
                if t.index() >= n_tensors {
                    return Err(GraphError::UnknownTensor(t, op.id));
                }
            }
        }
        for &(a, b) in &self.cross_deps {
            if a.index() >= n_ops || b.index() >= n_ops {
                return Err(GraphError::UnknownOp(if a.index() >= n_ops {
                    a
                } else {
                    b
                }));
            }
        }
        let mut writers = vec![0u32; n_tensors];
        for op in &self.ops {
            for &t in &op.writes {
                writers[t.index()] += 1;
            }
        }
        let mut written = vec![false; n_tensors];
        for t in &self.tensors {
            if t.kind.is_static() {
                written[t.id.index()] = true; // pre-resident model data
            }
        }
        let fingerprint = fnv1a(
            [
                n_ops as u64,
                n_tensors as u64,
                self.n_stages as u64,
                self.cross_deps.len() as u64,
            ]
            .into_iter()
            .chain(self.ops.iter().map(|op| op.duration.to_bits()))
            .chain(self.tensors.iter().map(|t| t.bytes.as_u64())),
        );
        let graph = TrainingGraph {
            tensors: self.tensors,
            ops: self.ops,
            stage_programs: self.stage_programs,
            cross_deps: self.cross_deps,
            n_stages: self.n_stages,
            fingerprint,
            writers,
        };
        let order = graph.topo_order()?;
        for id in &order {
            let op = graph.op(*id);
            for &t in &op.reads {
                if !written[t.index()] {
                    return Err(GraphError::ReadBeforeWrite(t, op.id));
                }
            }
            for &t in &op.writes {
                written[t.index()] = true;
            }
        }
        Ok(graph)
    }
}

/// FNV-1a (64-bit) over the little-endian bytes of `words`. Std-only
/// and stable across releases, unlike `DefaultHasher`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_stage_graph() -> TrainingGraph {
        two_stage_graph_with(0.01, Bytes::mib(4))
    }

    /// The two-stage graph with the first forward op's duration and the
    /// stage-1 activation's size as parameters.
    fn two_stage_graph_with(f0_duration: Secs, a1_bytes: Bytes) -> TrainingGraph {
        let mut b = TrainingGraph::builder(2);
        let a0 = b.add_tensor(TensorKind::Activation, Bytes::mib(4), 0, Some(0), Some(0));
        let bd = b.add_tensor(TensorKind::Boundary, Bytes::mib(1), 0, None, Some(0));
        let a1 = b.add_tensor(TensorKind::Activation, a1_bytes, 1, Some(1), Some(0));
        let f0 = b.add_op(OpKind::Forward, 0, Some(0), f0_duration, |op| {
            op.writes.extend([a0, bd]);
        });
        let f1 = b.add_op(OpKind::Forward, 1, Some(0), 0.01, |op| {
            op.reads.push(bd);
            op.writes.push(a1);
        });
        let b1 = b.add_op(OpKind::Backward, 1, Some(0), 0.02, |op| {
            op.reads.push(a1);
            op.frees.push(a1);
        });
        let b0 = b.add_op(OpKind::Backward, 0, Some(0), 0.02, |op| {
            op.reads.push(a0);
            op.frees.extend([a0, bd]);
        });
        b.add_dep(f0, f1);
        b.add_dep(b1, b0);
        b.build().expect("valid graph")
    }

    #[test]
    fn fingerprint_is_pinned_and_tracks_content() {
        // The value the simulator's own fingerprint function returned for
        // this graph before the graph stored it: arenas and plan-cache
        // scopes keyed by it keep their identity.
        let g = two_stage_graph();
        assert_eq!(g.fingerprint(), 0x01b0_8a06_bb02_1072);
        assert_eq!(g.clone().fingerprint(), g.fingerprint());
        let slower = two_stage_graph_with(0.011, Bytes::mib(4));
        let bigger = two_stage_graph_with(0.01, Bytes::mib(5));
        assert_ne!(slower.fingerprint(), g.fingerprint());
        assert_ne!(bigger.fingerprint(), g.fingerprint());
        assert_ne!(slower.fingerprint(), bigger.fingerprint());
    }

    #[test]
    fn build_validates_ok() {
        let g = two_stage_graph();
        assert_eq!(g.ops().len(), 4);
        assert_eq!(g.n_stages(), 2);
        assert_eq!(g.stage_program(0).len(), 2);
    }

    #[test]
    fn producer_consumer_lookup() {
        let g = two_stage_graph();
        let a0 = TensorId(0);
        assert_eq!(g.producer_of(a0), Some(OpId(0)));
        assert_eq!(g.consumers_of(a0), vec![OpId(3)]);
        assert_eq!(g.writer_count(a0), 1);
    }

    #[test]
    fn topo_order_covers_all_ops() {
        let g = two_stage_graph();
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), 4);
        // f0 precedes f1; b1 precedes b0.
        let pos = |id: OpId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(OpId(0)) < pos(OpId(1)));
        assert!(pos(OpId(2)) < pos(OpId(3)));
    }

    #[test]
    fn serial_start_times_respect_deps() {
        let g = two_stage_graph();
        let start = g.serial_start_times();
        // f1 starts only after f0 ends (0.01).
        assert!(start[1] >= 0.01 - 1e-12);
        // b0 starts after b1 ends.
        assert!(start[3] >= start[2] + 0.02 - 1e-12);
    }

    #[test]
    fn cycle_detected() {
        let mut b = TrainingGraph::builder(1);
        let o1 = b.add_op(OpKind::Forward, 0, Some(0), 0.01, |_| {});
        let o2 = b.add_op(OpKind::Backward, 0, Some(0), 0.01, |_| {});
        // program order makes o1 -> o2; this edge closes the loop.
        b.add_dep(o2, o1);
        assert_eq!(b.build().unwrap_err(), GraphError::Cycle);
    }

    #[test]
    fn read_before_write_detected() {
        let mut b = TrainingGraph::builder(1);
        let t = b.add_tensor(TensorKind::Activation, Bytes::mib(1), 0, None, Some(0));
        b.add_op(OpKind::Backward, 0, Some(0), 0.01, |op| op.reads.push(t));
        match b.build() {
            Err(GraphError::ReadBeforeWrite(tt, _)) => assert_eq!(tt, t),
            other => panic!("expected ReadBeforeWrite, got {other:?}"),
        }
    }

    #[test]
    fn static_tensors_are_preresident() {
        let mut b = TrainingGraph::builder(1);
        let w = b.add_tensor(TensorKind::Parameter, Bytes::mib(1), 0, Some(0), None);
        b.add_op(OpKind::Forward, 0, Some(0), 0.01, |op| op.reads.push(w));
        assert!(b.build().is_ok());
    }

    #[test]
    fn stage_out_of_range_detected() {
        let mut b = TrainingGraph::builder(1);
        b.add_op(OpKind::Forward, 5, Some(0), 0.01, |_| {});
        assert!(matches!(b.build(), Err(GraphError::StageOutOfRange(_, 5))));
    }

    #[test]
    fn unknown_dep_detected() {
        let mut b = TrainingGraph::builder(1);
        let o = b.add_op(OpKind::Forward, 0, Some(0), 0.01, |_| {});
        b.add_dep(o, OpId(99));
        assert_eq!(b.build().unwrap_err(), GraphError::UnknownOp(OpId(99)));
    }

    #[test]
    fn stage_bytes_sums_all_kinds() {
        let g = two_stage_graph();
        assert_eq!(g.stage_bytes(0), Bytes::mib(5));
        assert_eq!(g.stage_bytes(1), Bytes::mib(4));
    }
}
