//! The instrumentation plan: tensor → technique assignments.
//!
//! MPress Static's *rewriter* instruments the dataflow graph with swap-out,
//! swap-in, drop and recompute operators (paper Fig. 5 step 4). Here no
//! pass rewrites the graph: the plan stays a per-tensor
//! [`MemoryDirective`] map, and the simulator executes it just in time,
//! expanding each directive into copy-stream tasks and compute-time
//! adjustments when a run is built.

use crate::striping::StripePlan;
use crate::technique::Technique;
use mpress_graph::{TensorId, TensorKind, TrainingGraph};
use mpress_hw::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

/// Which off-GPU pool a host-side swap lands in (§V's memory-hierarchy
/// extension: slower levels hold longer-lived data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum HostTier {
    /// Pinned host DRAM over PCIe.
    #[default]
    Dram,
    /// NVMe SSD behind the host (ZeRO-Infinity-style staging).
    Nvme,
}

impl fmt::Display for HostTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostTier::Dram => write!(f, "dram"),
            HostTier::Nvme => write!(f, "nvme"),
        }
    }
}

/// What the runtime does to one tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MemoryDirective {
    /// Drop after the forward pass, re-run the producing layer's forward
    /// inside the backward pass (activations only).
    Recompute,
    /// Swap off-GPU after each definition/use, prefetch before the next
    /// use; the tier selects host DRAM or NVMe.
    SwapToHost(HostTier),
    /// Stripe to peer GPUs over NVLink.
    SwapD2d(StripePlan),
}

impl MemoryDirective {
    /// The technique this directive applies.
    pub fn technique(&self) -> Technique {
        match self {
            MemoryDirective::Recompute => Technique::Recompute,
            MemoryDirective::SwapToHost(_) => Technique::GpuCpuSwap,
            MemoryDirective::SwapD2d(_) => Technique::D2dSwap,
        }
    }
}

impl fmt::Display for MemoryDirective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryDirective::Recompute => write!(f, "recompute"),
            MemoryDirective::SwapToHost(tier) => write!(f, "swap-to-{tier}"),
            MemoryDirective::SwapD2d(p) => write!(f, "d2d {p}"),
        }
    }
}

/// Why a plan failed validation against a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanValidationError {
    /// The directive names a tensor the graph does not contain.
    UnknownTensor(TensorId),
    /// Recomputation was assigned to a non-activation tensor.
    RecomputeNonActivation(TensorId),
    /// Any directive was assigned to a boundary tensor (they are tiny and
    /// pinned by the communication path).
    BoundaryTensor(TensorId),
    /// A stripe plan's chunk sizes do not sum to the tensor size.
    StripeSizeMismatch {
        /// The mis-planned tensor.
        tensor: TensorId,
        /// Tensor bytes.
        expected: Bytes,
        /// Stripe total.
        got: Bytes,
    },
}

impl fmt::Display for PlanValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanValidationError::UnknownTensor(t) => write!(f, "unknown tensor {t}"),
            PlanValidationError::RecomputeNonActivation(t) => {
                write!(f, "recomputation assigned to non-activation tensor {t}")
            }
            PlanValidationError::BoundaryTensor(t) => {
                write!(f, "directive assigned to boundary tensor {t}")
            }
            PlanValidationError::StripeSizeMismatch {
                tensor,
                expected,
                got,
            } => write!(
                f,
                "stripe plan for {tensor} moves {got} but the tensor is {expected}"
            ),
        }
    }
}

impl Error for PlanValidationError {}

/// A validated-on-demand map from tensors to directives.
///
/// # Example
///
/// ```
/// use mpress_compaction::{InstrumentationPlan, MemoryDirective};
/// use mpress_graph::TensorId;
///
/// let mut plan = InstrumentationPlan::new();
/// plan.assign(TensorId(3), MemoryDirective::Recompute);
/// assert_eq!(plan.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InstrumentationPlan {
    directives: BTreeMap<TensorId, MemoryDirective>,
}

impl InstrumentationPlan {
    /// An empty plan (no memory savings — the uninstrumented baseline).
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns (or replaces) a directive.
    pub fn assign(&mut self, tensor: TensorId, directive: MemoryDirective) {
        self.directives.insert(tensor, directive);
    }

    /// Removes a directive, returning it when present.
    pub fn remove(&mut self, tensor: TensorId) -> Option<MemoryDirective> {
        self.directives.remove(&tensor)
    }

    /// The directive assigned to `tensor`, if any.
    pub fn get(&self, tensor: TensorId) -> Option<&MemoryDirective> {
        self.directives.get(&tensor)
    }

    /// Iterates `(tensor, directive)` pairs in tensor-id order.
    pub fn iter(&self) -> impl Iterator<Item = (TensorId, &MemoryDirective)> {
        self.directives.iter().map(|(&t, d)| (t, d))
    }

    /// Number of assigned tensors.
    pub fn len(&self) -> usize {
        self.directives.len()
    }

    /// True when nothing is assigned.
    pub fn is_empty(&self) -> bool {
        self.directives.is_empty()
    }

    /// Bytes of GPU memory each technique saves on its home stage,
    /// evaluated against `graph` (the paper's Table IV breakdown).
    pub fn savings_by_technique(&self, graph: &TrainingGraph) -> HashMap<Technique, Bytes> {
        let mut out: HashMap<Technique, Bytes> = HashMap::new();
        for (t, d) in self.iter() {
            let bytes = graph.tensor(t).bytes;
            *out.entry(d.technique()).or_insert(Bytes::ZERO) += bytes;
        }
        out
    }

    /// The stages each technique touches, sorted (Table IV "Applied
    /// Stages").
    pub fn stages_by_technique(&self, graph: &TrainingGraph) -> HashMap<Technique, Vec<usize>> {
        let mut out: HashMap<Technique, Vec<usize>> = HashMap::new();
        for (t, d) in self.iter() {
            let stage = graph.tensor(t).stage;
            let v = out.entry(d.technique()).or_default();
            if !v.contains(&stage) {
                v.push(stage);
            }
        }
        for v in out.values_mut() {
            v.sort_unstable();
        }
        out
    }

    /// Validates the plan against a graph.
    ///
    /// # Errors
    ///
    /// Returns the first directive, in tensor-id order, that
    /// [`validate_directive`] rejects.
    pub fn validate(&self, graph: &TrainingGraph) -> Result<(), PlanValidationError> {
        self.iter()
            .try_for_each(|(t, d)| validate_directive(graph, t, d))
    }
}

/// Validates one directive against a graph.
///
/// # Errors
///
/// Returns the violation: an unknown tensor, a boundary tensor,
/// recomputation of a non-activation, or a stripe whose total does not
/// match the tensor's size.
pub fn validate_directive(
    graph: &TrainingGraph,
    t: TensorId,
    directive: &MemoryDirective,
) -> Result<(), PlanValidationError> {
    let Some(tensor) = graph.tensors().get(t.index()) else {
        return Err(PlanValidationError::UnknownTensor(t));
    };
    if tensor.kind == TensorKind::Boundary {
        return Err(PlanValidationError::BoundaryTensor(t));
    }
    match directive {
        MemoryDirective::Recompute if !tensor.kind.recomputable() => {
            Err(PlanValidationError::RecomputeNonActivation(t))
        }
        MemoryDirective::SwapD2d(plan) if plan.total_bytes() != tensor.bytes => {
            Err(PlanValidationError::StripeSizeMismatch {
                tensor: t,
                expected: tensor.bytes,
                got: plan.total_bytes(),
            })
        }
        _ => Ok(()),
    }
}

impl FromIterator<(TensorId, MemoryDirective)> for InstrumentationPlan {
    fn from_iter<I: IntoIterator<Item = (TensorId, MemoryDirective)>>(iter: I) -> Self {
        InstrumentationPlan {
            directives: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpress_graph::{OpKind, TrainingGraph};
    use mpress_hw::DeviceId;

    fn graph() -> TrainingGraph {
        let mut b = TrainingGraph::builder(2);
        let act = b.add_tensor(TensorKind::Activation, Bytes::mib(8), 0, Some(0), Some(0));
        let par = b.add_tensor(TensorKind::Parameter, Bytes::mib(4), 0, Some(0), None);
        let bnd = b.add_tensor(TensorKind::Boundary, Bytes::mib(1), 0, None, Some(0));
        b.add_op(OpKind::Forward, 0, Some(0), 0.01, |op| {
            op.reads.push(par);
            op.writes.extend([act, bnd]);
        });
        b.add_op(OpKind::Backward, 0, Some(0), 0.02, |op| {
            op.reads.extend([act, par]);
            op.frees.extend([act, bnd]);
        });
        b.build().unwrap()
    }

    #[test]
    fn valid_plan_passes() {
        let g = graph();
        let mut p = InstrumentationPlan::new();
        p.assign(TensorId(0), MemoryDirective::Recompute);
        p.assign(TensorId(1), MemoryDirective::SwapToHost(HostTier::Dram));
        assert!(p.validate(&g).is_ok());
    }

    #[test]
    fn recompute_on_parameter_rejected() {
        let g = graph();
        let mut p = InstrumentationPlan::new();
        p.assign(TensorId(1), MemoryDirective::Recompute);
        assert_eq!(
            p.validate(&g),
            Err(PlanValidationError::RecomputeNonActivation(TensorId(1)))
        );
    }

    #[test]
    fn boundary_directive_rejected() {
        let g = graph();
        let mut p = InstrumentationPlan::new();
        p.assign(TensorId(2), MemoryDirective::SwapToHost(HostTier::Dram));
        assert_eq!(
            p.validate(&g),
            Err(PlanValidationError::BoundaryTensor(TensorId(2)))
        );
    }

    #[test]
    fn stripe_size_mismatch_rejected() {
        let g = graph();
        let mut p = InstrumentationPlan::new();
        p.assign(
            TensorId(0),
            MemoryDirective::SwapD2d(StripePlan::single(Bytes::mib(4), DeviceId(1), 1)),
        );
        assert!(matches!(
            p.validate(&g),
            Err(PlanValidationError::StripeSizeMismatch { .. })
        ));
    }

    #[test]
    fn unknown_tensor_rejected() {
        let g = graph();
        let mut p = InstrumentationPlan::new();
        p.assign(TensorId(99), MemoryDirective::Recompute);
        assert_eq!(
            p.validate(&g),
            Err(PlanValidationError::UnknownTensor(TensorId(99)))
        );
    }

    #[test]
    fn savings_and_stage_breakdown() {
        let g = graph();
        let mut p = InstrumentationPlan::new();
        p.assign(TensorId(0), MemoryDirective::Recompute);
        p.assign(TensorId(1), MemoryDirective::SwapToHost(HostTier::Nvme));
        let savings = p.savings_by_technique(&g);
        assert_eq!(savings[&Technique::Recompute], Bytes::mib(8));
        assert_eq!(savings[&Technique::GpuCpuSwap], Bytes::mib(4));
        let stages = p.stages_by_technique(&g);
        assert_eq!(stages[&Technique::Recompute], vec![0]);
    }

    #[test]
    fn from_iterator_collects() {
        let p: InstrumentationPlan = [(TensorId(0), MemoryDirective::Recompute)]
            .into_iter()
            .collect();
        assert_eq!(p.len(), 1);
    }
}
