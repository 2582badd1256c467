//! Operator descriptions.

use crate::ids::{OpId, TensorId};
use mpress_hw::Secs;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What an operator does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Forward pass of one stage for one microbatch.
    Forward,
    /// Backward pass of one stage for one microbatch.
    Backward,
    /// Weight update of one stage (synchronous schedules: once per
    /// minibatch; asynchronous: folded into each backward).
    OptimizerStep,
    /// Transmit the boundary activation to the next stage.
    Send,
    /// Receive the boundary activation from the previous stage.
    Recv,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Forward => "fwd",
            OpKind::Backward => "bwd",
            OpKind::OptimizerStep => "opt",
            OpKind::Send => "send",
            OpKind::Recv => "recv",
        };
        write!(f, "{s}")
    }
}

/// A point inside an op at which one layer's activation tensor is produced
/// (forward) or first needed (backward).
///
/// Compute ops aggregate a whole stage, but MPress plans at tensor (layer)
/// granularity: the first layer of a stage is produced early in the forward
/// op and needed *late* in the backward op, so its live interval is the
/// stage's longest. Sub-events make that offset explicit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubEvent {
    /// The activation tensor concerned.
    pub tensor: TensorId,
    /// Seconds after the op's start at which the event fires.
    pub offset: Secs,
}

/// One operator of the training job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Op {
    /// Graph-unique identifier.
    pub id: OpId,
    /// What the operator does.
    pub kind: OpKind,
    /// Pipeline stage the operator runs on.
    pub stage: usize,
    /// Microbatch index (`None` for per-minibatch work such as
    /// [`OpKind::OptimizerStep`]).
    pub microbatch: Option<u32>,
    /// Uninstrumented execution time.
    pub duration: Secs,
    /// Tensors the operator reads (must be resident when it starts).
    pub reads: Vec<TensorId>,
    /// Tensors the operator materializes.
    pub writes: Vec<TensorId>,
    /// Tensors whose last use this is; their memory is released when the
    /// operator completes.
    pub frees: Vec<TensorId>,
    /// Per-layer production (forward) or consumption (backward) offsets.
    pub sub_events: Vec<SubEvent>,
}

impl Op {
    /// Creates an op with empty read/write/free sets.
    pub fn new(
        id: OpId,
        kind: OpKind,
        stage: usize,
        microbatch: Option<u32>,
        duration: Secs,
    ) -> Self {
        assert!(duration >= 0.0, "duration must be non-negative");
        Op {
            id,
            kind,
            stage,
            microbatch,
            duration,
            reads: Vec::new(),
            writes: Vec::new(),
            frees: Vec::new(),
            sub_events: Vec::new(),
        }
    }

    /// The sub-event offset for `tensor`, if recorded.
    pub fn sub_event_offset(&self, tensor: TensorId) -> Option<Secs> {
        self.sub_events
            .iter()
            .find(|e| e.tensor == tensor)
            .map(|e| e.offset)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}(stage {}", self.id, self.kind, self.stage)?;
        if let Some(m) = self.microbatch {
            write!(f, ", mb {m}")?;
        }
        write!(f, ", {:.3} ms)", self.duration * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_op_is_empty() {
        let op = Op::new(OpId(0), OpKind::Forward, 2, Some(1), 0.010);
        assert!(op.reads.is_empty() && op.writes.is_empty() && op.frees.is_empty());
        assert_eq!(op.stage, 2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_rejected() {
        let _ = Op::new(OpId(0), OpKind::Forward, 0, None, -1.0);
    }

    #[test]
    fn sub_event_lookup() {
        let mut op = Op::new(OpId(0), OpKind::Backward, 0, Some(0), 0.02);
        op.sub_events.push(SubEvent {
            tensor: TensorId(4),
            offset: 0.015,
        });
        assert_eq!(op.sub_event_offset(TensorId(4)), Some(0.015));
        assert_eq!(op.sub_event_offset(TensorId(5)), None);
    }

    #[test]
    fn display_includes_kind_and_stage() {
        let op = Op::new(OpId(9), OpKind::Send, 3, Some(7), 0.001);
        let s = op.to_string();
        assert!(s.contains("send") && s.contains("stage 3"), "{s}");
    }
}
