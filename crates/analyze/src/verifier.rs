//! The static plan verifier.
//!
//! Checks a compaction plan + device map against the training graph
//! and the machine **without running the emulator**. Graph-shape
//! properties (acyclicity, stream-order consistency, tensor lifetimes —
//! mirroring `graph/liveness`) are established once per graph
//! (MP001–MP005). Everything per-candidate comes from a single source:
//! the plan and simulator validation the emulator itself runs, mapped
//! onto MP006/MP009/MP010/MP011, and the certified residency lower
//! bound of [`BoundsAnalyzer`] for MP007/MP008/MP012. A plan flagged
//! with MP007 is *guaranteed* to OOM in the emulator; a clean verdict
//! promises nothing (the bound is not tight).

use crate::bounds::{BoundsAnalyzer, PlanBounds};
use crate::diag::{Code, Context, Diagnostic, Report};
use mpress_compaction::{
    validate_directive, InstrumentationPlan, MemoryDirective, PlanValidationError,
};
use mpress_graph::{OpId, TensorKind, TrainingGraph};
use mpress_hw::Machine;
use mpress_sim::{validate_device_map, validate_swap, DeviceMap, SimArena};

/// Dense ancestor ("happens-before") bitsets over the combined graph
/// (per-stage program order + cross-stage edges).
#[derive(Debug)]
struct AncestorTable {
    words: usize,
    bits: Vec<u64>,
}

impl AncestorTable {
    /// Builds the table from a topological order and predecessor lists.
    /// Visiting in topo order means every predecessor's row is final
    /// before it is folded into a successor.
    fn build(n: usize, topo: &[OpId], preds: &[Vec<usize>]) -> Self {
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; words * n];
        let mut row = vec![0u64; words];
        for id in topo {
            let v = id.index();
            row.fill(0);
            for &p in &preds[v] {
                for (d, s) in row.iter_mut().zip(&bits[p * words..(p + 1) * words]) {
                    *d |= *s;
                }
                row[p / 64] |= 1u64 << (p % 64);
            }
            bits[v * words..(v + 1) * words].copy_from_slice(&row);
        }
        AncestorTable { words, bits }
    }

    /// Whether `ancestor` happens strictly before `of`.
    fn contains(&self, ancestor: OpId, of: OpId) -> bool {
        let a = ancestor.index();
        let row = of.index() * self.words;
        self.bits[row + a / 64] & (1u64 << (a % 64)) != 0
    }
}

/// Per-tensor cross-reference built once per graph.
#[derive(Default, Clone)]
struct TensorSites {
    writers: Vec<OpId>,
    readers: Vec<OpId>,
    frees: Vec<OpId>,
}

/// The static plan verifier. Construct once per (machine, graph); call
/// [`PlanVerifier::verify`] per candidate plan.
#[derive(Debug)]
pub struct PlanVerifier<'a> {
    machine: &'a Machine,
    graph: &'a TrainingGraph,
    /// Graph-shape findings (MP001–MP005), computed once.
    graph_diags: Vec<Diagnostic>,
    /// The residency findings (MP007/MP008/MP012).
    bounds: BoundsAnalyzer<'a>,
}

impl<'a> PlanVerifier<'a> {
    /// Builds the verifier: runs the graph-shape checks and builds the
    /// bounds analyzer's per-stage tables.
    pub fn new(machine: &'a Machine, graph: &'a TrainingGraph) -> Self {
        let n_ops = graph.ops().len();
        let n_tensors = graph.tensors().len();
        let n_stages = graph.n_stages();
        let mut graph_diags = Vec::new();

        // Cross-reference tensors once (graph.producer_of/consumers_of
        // are linear scans per call — too slow to use per tensor here).
        let mut sites: Vec<TensorSites> = vec![TensorSites::default(); n_tensors];
        for op in graph.ops() {
            for &t in &op.writes {
                sites[t.index()].writers.push(op.id);
            }
            for &t in &op.reads {
                sites[t.index()].readers.push(op.id);
            }
            for &t in &op.frees {
                sites[t.index()].frees.push(op.id);
            }
        }

        // MP002: every tensor an op touches must live on the op's stage,
        // except boundary tensors (the schedule itself moves those
        // between devices).
        for op in graph.ops() {
            for &t in op.reads.iter().chain(&op.writes).chain(&op.frees) {
                let tensor = graph.tensor(t);
                if tensor.stage != op.stage && tensor.kind != TensorKind::Boundary {
                    graph_diags.push(Diagnostic::error(
                        Code::StreamOrder,
                        Context::none().stage(op.stage).tensor(t.0).op(op.id.0),
                        format!(
                            "op {} on stage {} touches {} tensor {} homed on stage {}",
                            op.id, op.stage, tensor.kind, t, tensor.stage
                        ),
                    ));
                }
            }
        }

        // MP001 + lifetime checks need a topological order. A cyclic
        // graph gets the cycle diagnostic and skips the rest (no order
        // exists to reason about).
        match graph.topo_order() {
            Err(_) => graph_diags.push(Diagnostic::error(
                Code::Cycle,
                Context::none(),
                "dependency cycle in program-order + cross-stage graph",
            )),
            Ok(topo) => {
                let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n_ops];
                for s in 0..n_stages {
                    for w in graph.stage_program(s).windows(2) {
                        preds[w[1].index()].push(w[0].index());
                    }
                }
                for &(a, b) in graph.cross_deps() {
                    preds[b.index()].push(a.index());
                }
                let anc = AncestorTable::build(n_ops, &topo, &preds);
                Self::check_lifetimes(graph, &sites, &anc, &mut graph_diags);
            }
        }

        PlanVerifier {
            machine,
            graph,
            graph_diags,
            bounds: BoundsAnalyzer::new(machine, graph),
        }
    }

    /// MP003/MP004/MP005 over the happens-before relation, mirroring
    /// what `graph/liveness` assumes when it builds live intervals.
    fn check_lifetimes(
        graph: &TrainingGraph,
        sites: &[TensorSites],
        anc: &AncestorTable,
        diags: &mut Vec<Diagnostic>,
    ) {
        for (idx, site) in sites.iter().enumerate() {
            let tensor = &graph.tensors()[idx];
            let tid = tensor.id;
            // MP003: every read of a dynamic tensor must be ordered
            // after some producer (statics are pre-resident).
            if !tensor.kind.is_static() {
                for &r in &site.readers {
                    let produced = site.writers.iter().any(|&w| anc.contains(w, r));
                    if !produced {
                        diags.push(Diagnostic::error(
                            Code::UseBeforeProduce,
                            Context::none().stage(tensor.stage).tensor(tid.0).op(r.0),
                            format!("op {r} reads {tid} with no producer ordered before it"),
                        ));
                    }
                }
            }
            // MP005: more than one free site.
            if site.frees.len() > 1 {
                diags.push(Diagnostic::error(
                    Code::DoubleFree,
                    Context::none().stage(tensor.stage).tensor(tid.0),
                    format!("{} ops free {tid}", site.frees.len()),
                ));
            }
            // MP004: a read strictly after a free.
            for &f in &site.frees {
                for &r in site.readers.iter().chain(&site.writers) {
                    if r != f && anc.contains(f, r) {
                        diags.push(Diagnostic::error(
                            Code::UseAfterFree,
                            Context::none().stage(tensor.stage).tensor(tid.0).op(r.0),
                            format!("op {r} uses {tid} after op {f} freed it"),
                        ));
                    }
                }
            }
        }
    }

    /// The graph-shape findings alone (MP001–MP005), with no plan
    /// applied.
    pub fn graph_report(&self) -> Report {
        let mut report = Report::new();
        for d in &self.graph_diags {
            report.push(d.clone());
        }
        report
    }

    /// Verifies one candidate: the cached graph findings, every
    /// directive and device-map error the emulator's own validation
    /// raises, and the residency findings.
    pub fn verify(&self, plan: &InstrumentationPlan, device_map: &DeviceMap) -> Report {
        let graph = self.graph;
        let mut report = self.graph_report();

        // MP011: the simulator's device-map check. Stripes are checked
        // from their home device only on a map that places every stage.
        let map_ok = match validate_device_map(self.machine, graph, device_map) {
            Ok(()) => true,
            Err(e) => {
                report.push(Diagnostic::error(
                    Code::BadDeviceMap,
                    Context::none(),
                    e.to_string(),
                ));
                false
            }
        };
        // MP006/MP009/MP010: each directive through the plan's own
        // validation, then the simulator's swap-writer and stripe checks.
        for (t, directive) in plan.iter() {
            let mut ctx = Context::none().tensor(t.0);
            if let Err(e) = validate_directive(graph, t, directive) {
                if let Some(tensor) = graph.tensors().get(t.index()) {
                    ctx = ctx.stage(tensor.stage);
                }
                report.push(Diagnostic::error(plan_code(&e), ctx, e.to_string()));
                continue;
            }
            let stage = graph.tensor(t).stage;
            ctx = ctx.stage(stage);
            if let Err(e) = validate_swap(graph, t, directive) {
                report.push(Diagnostic::error(
                    Code::BadDirectiveTarget,
                    ctx,
                    e.to_string(),
                ));
            }
            if let (MemoryDirective::SwapD2d(stripe), true) = (directive, map_ok) {
                let home = device_map.device_of(stage);
                if let Err(msg) = stripe.validate(home, self.machine.topology()) {
                    report.push(Diagnostic::error(
                        Code::BadStripe,
                        ctx.device(home.index()),
                        format!("d2d stripe for {t}: {msg}"),
                    ));
                }
            }
        }

        for d in self.bounds.diagnose(plan, device_map).diagnostics() {
            report.push(d.clone());
        }
        report
    }

    /// [`BoundsAnalyzer::certify_with_arena`] through the analyzer this
    /// verifier holds, so one `check` builds the residency tables once.
    pub fn certify_with_arena(
        &self,
        plan: &InstrumentationPlan,
        device_map: &DeviceMap,
        arena: &mut SimArena,
    ) -> PlanBounds {
        self.bounds.certify_with_arena(plan, device_map, arena)
    }
}

/// The code of a plan-validation error.
fn plan_code(e: &PlanValidationError) -> Code {
    match e {
        PlanValidationError::StripeSizeMismatch { .. } => Code::BadStripe,
        PlanValidationError::RecomputeNonActivation(_) => Code::BadRecompute,
        PlanValidationError::UnknownTensor(_) | PlanValidationError::BoundaryTensor(_) => {
            Code::BadDirectiveTarget
        }
    }
}

/// One-shot convenience: build a verifier and check a single plan.
pub fn check_plan(
    machine: &Machine,
    graph: &TrainingGraph,
    plan: &InstrumentationPlan,
    device_map: &DeviceMap,
) -> Report {
    PlanVerifier::new(machine, graph).verify(plan, device_map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpress_compaction::{HostTier, StripePlan};
    use mpress_graph::{OpKind, TensorId};
    use mpress_hw::{Bytes, DeviceId};

    /// A 2-stage toy job: fwd0 → fwd1 → bwd1 → bwd0, one activation per
    /// stage plus a boundary, and a parameter on each stage.
    fn toy_graph() -> (TrainingGraph, Vec<TensorId>) {
        let mut b = TrainingGraph::builder(2);
        let p0 = b.add_tensor(TensorKind::Parameter, Bytes::gib(1), 0, Some(0), None);
        let p1 = b.add_tensor(TensorKind::Parameter, Bytes::gib(1), 1, Some(1), None);
        let a0 = b.add_tensor(TensorKind::Activation, Bytes::gib(2), 0, Some(0), Some(0));
        let a1 = b.add_tensor(TensorKind::Activation, Bytes::gib(2), 1, Some(1), Some(0));
        let bd = b.add_tensor(TensorKind::Boundary, Bytes::mib(64), 0, None, Some(0));
        let f0 = b.add_op(OpKind::Forward, 0, Some(0), 0.01, |op| {
            op.reads.push(p0);
            op.writes.extend([a0, bd]);
        });
        let f1 = b.add_op(OpKind::Forward, 1, Some(0), 0.01, |op| {
            op.reads.extend([p1, bd]);
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
        let g = b.build().expect("toy graph is valid");
        (g, vec![p0, p1, a0, a1, bd])
    }

    fn dgx1() -> Machine {
        Machine::dgx1()
    }

    #[test]
    fn clean_toy_plan_verifies() {
        let (g, _) = toy_graph();
        let machine = dgx1();
        let plan = InstrumentationPlan::new();
        let map = DeviceMap::identity(2);
        let report = PlanVerifier::new(&machine, &g).verify(&plan, &map);
        assert!(report.is_clean(), "{}", report.render_table());
    }

    #[test]
    fn mp003_fires_when_a_dependency_edge_is_dropped() {
        // Same toy job but WITHOUT the f0 → f1 cross edge: stage 1's
        // forward reads the boundary with no ordering after its
        // producer. (Reader added first so the builder's one sampled
        // topo order happens to run the producer first and the graph
        // builds; happens-before still leaves the pair unordered.)
        let mut b = TrainingGraph::builder(2);
        let bd = b.add_tensor(TensorKind::Boundary, Bytes::mib(64), 0, None, Some(0));
        let _f1 = b.add_op(OpKind::Forward, 1, Some(0), 0.01, |op| op.reads.push(bd));
        let _f0 = b.add_op(OpKind::Forward, 0, Some(0), 0.01, |op| op.writes.push(bd));
        let g = b
            .build()
            .expect("builder's sampled topo order hides the race");
        let machine = dgx1();
        let report = PlanVerifier::new(&machine, &g)
            .verify(&InstrumentationPlan::new(), &DeviceMap::identity(2));
        assert!(
            report.has_code(Code::UseBeforeProduce),
            "{}",
            report.render_table()
        );
    }

    #[test]
    fn mp004_fires_on_use_after_free() {
        let mut b = TrainingGraph::builder(1);
        let a = b.add_tensor(TensorKind::Activation, Bytes::mib(8), 0, Some(0), Some(0));
        let w = b.add_op(OpKind::Forward, 0, Some(0), 0.01, |op| op.writes.push(a));
        let f = b.add_op(OpKind::Forward, 0, Some(0), 0.01, |op| op.frees.push(a));
        let r = b.add_op(OpKind::Backward, 0, Some(0), 0.01, |op| op.reads.push(a));
        let _ = (w, f, r);
        let g = b.build().expect("valid shape");
        let machine = dgx1();
        let report = PlanVerifier::new(&machine, &g)
            .verify(&InstrumentationPlan::new(), &DeviceMap::identity(1));
        assert!(
            report.has_code(Code::UseAfterFree),
            "{}",
            report.render_table()
        );
    }

    #[test]
    fn mp005_fires_on_double_free() {
        let mut b = TrainingGraph::builder(1);
        let a = b.add_tensor(TensorKind::Activation, Bytes::mib(8), 0, Some(0), Some(0));
        b.add_op(OpKind::Forward, 0, Some(0), 0.01, |op| op.writes.push(a));
        b.add_op(OpKind::Backward, 0, Some(0), 0.01, |op| {
            op.reads.push(a);
            op.frees.push(a);
        });
        b.add_op(OpKind::Backward, 0, Some(0), 0.01, |op| op.frees.push(a));
        let g = b.build().expect("valid shape");
        let machine = dgx1();
        let report = PlanVerifier::new(&machine, &g)
            .verify(&InstrumentationPlan::new(), &DeviceMap::identity(1));
        assert!(
            report.has_code(Code::DoubleFree),
            "{}",
            report.render_table()
        );
    }

    #[test]
    fn mp002_fires_on_cross_stage_tensor_touch() {
        let mut b = TrainingGraph::builder(2);
        let a = b.add_tensor(TensorKind::Activation, Bytes::mib(8), 0, Some(0), Some(0));
        // Stage 1 reads stage 0's (non-boundary) activation directly.
        // Reader first (see mp003 test) so the builder accepts the graph.
        let r = b.add_op(OpKind::Forward, 1, Some(0), 0.01, |op| op.reads.push(a));
        let w = b.add_op(OpKind::Forward, 0, Some(0), 0.01, |op| op.writes.push(a));
        let _ = (r, w);
        let g = b.build().expect("valid shape");
        let machine = dgx1();
        let report = PlanVerifier::new(&machine, &g)
            .verify(&InstrumentationPlan::new(), &DeviceMap::identity(2));
        assert!(
            report.has_code(Code::StreamOrder),
            "{}",
            report.render_table()
        );
    }

    #[test]
    fn mp006_fires_on_unreachable_stripe_target() {
        let (g, t) = toy_graph();
        let machine = dgx1();
        let mut plan = InstrumentationPlan::new();
        // GPU0 and GPU5 have no direct NVLink on DGX-1.
        plan.assign(
            t[2],
            MemoryDirective::SwapD2d(StripePlan::single(Bytes::gib(2), DeviceId(5), 1)),
        );
        let report = PlanVerifier::new(&machine, &g).verify(&plan, &DeviceMap::identity(2));
        assert!(
            report.has_code(Code::BadStripe),
            "{}",
            report.render_table()
        );
        assert!(report.has_structural_errors());
    }

    #[test]
    fn mp006_fires_on_stripe_size_mismatch() {
        let (g, t) = toy_graph();
        let machine = dgx1();
        let mut plan = InstrumentationPlan::new();
        // Reachable target (GPU0 → GPU3), but only half the bytes move.
        plan.assign(
            t[2],
            MemoryDirective::SwapD2d(StripePlan::single(Bytes::gib(1), DeviceId(3), 2)),
        );
        let report = PlanVerifier::new(&machine, &g).verify(&plan, &DeviceMap::identity(2));
        assert!(
            report.has_code(Code::BadStripe),
            "{}",
            report.render_table()
        );
    }

    #[test]
    fn mp007_fires_on_inflated_tensor() {
        // A 100 GiB activation can never fit a 32 GiB V100.
        let mut b = TrainingGraph::builder(1);
        let a = b.add_tensor(TensorKind::Activation, Bytes::gib(100), 0, Some(0), Some(0));
        b.add_op(OpKind::Forward, 0, Some(0), 0.01, |op| op.writes.push(a));
        b.add_op(OpKind::Backward, 0, Some(0), 0.01, |op| {
            op.reads.push(a);
            op.frees.push(a);
        });
        let g = b.build().expect("valid shape");
        let machine = dgx1();
        let report = PlanVerifier::new(&machine, &g)
            .verify(&InstrumentationPlan::new(), &DeviceMap::identity(1));
        assert!(
            report.has_code(Code::CapacityExceeded),
            "{}",
            report.render_table()
        );
        // Predicted OOM is NOT a structural rejection (the emulator must
        // still observe it).
        assert!(!report.has_structural_errors());
    }

    #[test]
    fn mp008_fires_when_victim_lacks_headroom() {
        // Victim stage 1 already holds ~31 GiB of statics; a 2 GiB chunk
        // pushes it past the V100's 32 GiB (minus reserve).
        let mut b = TrainingGraph::builder(2);
        let p1 = b.add_tensor(TensorKind::Parameter, Bytes::gib(31), 1, Some(1), None);
        let a0 = b.add_tensor(TensorKind::Activation, Bytes::gib(2), 0, Some(0), Some(0));
        b.add_op(OpKind::Forward, 0, Some(0), 0.01, |op| op.writes.push(a0));
        b.add_op(OpKind::Backward, 0, Some(0), 0.01, |op| {
            op.reads.push(a0);
            op.frees.push(a0);
        });
        b.add_op(OpKind::Forward, 1, Some(0), 0.01, |op| op.reads.push(p1));
        let g = b.build().expect("valid shape");
        let machine = dgx1();
        let mut plan = InstrumentationPlan::new();
        // GPU0 → GPU1 is a real 1-lane link; stage 1 sits on GPU1 under
        // the identity map, so the chunk lands on a loaded victim.
        plan.assign(
            a0,
            MemoryDirective::SwapD2d(StripePlan::single(Bytes::gib(2), DeviceId(1), 1)),
        );
        let report = PlanVerifier::new(&machine, &g).verify(&plan, &DeviceMap::identity(2));
        assert!(
            report.has_code(Code::VictimOverflow),
            "{}",
            report.render_table()
        );
    }

    #[test]
    fn mp009_fires_on_bad_recompute() {
        let (g, t) = toy_graph();
        let machine = dgx1();
        // Recompute on a parameter.
        let mut plan = InstrumentationPlan::new();
        plan.assign(t[0], MemoryDirective::Recompute);
        let report = PlanVerifier::new(&machine, &g).verify(&plan, &DeviceMap::identity(2));
        assert!(
            report.has_code(Code::BadRecompute),
            "{}",
            report.render_table()
        );
    }

    #[test]
    fn mp010_fires_on_unknown_and_boundary_targets() {
        let (g, t) = toy_graph();
        let machine = dgx1();
        let verifier = PlanVerifier::new(&machine, &g);
        let mut plan = InstrumentationPlan::new();
        plan.assign(TensorId(999), MemoryDirective::SwapToHost(HostTier::Dram));
        plan.assign(t[4], MemoryDirective::SwapToHost(HostTier::Dram)); // boundary
        let report = verifier.verify(&plan, &DeviceMap::identity(2));
        assert!(
            report.has_code(Code::BadDirectiveTarget),
            "{}",
            report.render_table()
        );
        assert_eq!(report.error_count(), 2);
    }

    #[test]
    fn mp011_fires_on_short_device_map() {
        let (g, _) = toy_graph();
        let machine = dgx1();
        let report = PlanVerifier::new(&machine, &g)
            .verify(&InstrumentationPlan::new(), &DeviceMap::identity(1));
        assert!(
            report.has_code(Code::BadDeviceMap),
            "{}",
            report.render_table()
        );
    }

    #[test]
    fn mp012_fires_on_overflowing_bytes() {
        let mut b = TrainingGraph::builder(1);
        let h1 = b.add_tensor(
            TensorKind::Parameter,
            Bytes(u64::MAX / 2 + 1),
            0,
            None,
            None,
        );
        let h2 = b.add_tensor(
            TensorKind::Parameter,
            Bytes(u64::MAX / 2 + 1),
            0,
            None,
            None,
        );
        b.add_op(OpKind::Forward, 0, Some(0), 0.01, |op| {
            op.reads.extend([h1, h2]);
        });
        let g = b.build().expect("valid shape");
        let machine = dgx1();
        let report = PlanVerifier::new(&machine, &g)
            .verify(&InstrumentationPlan::new(), &DeviceMap::identity(1));
        assert!(report.has_code(Code::Overflow), "{}", report.render_table());
        // Saturated totals still flag the capacity error.
        assert!(
            report.has_code(Code::CapacityExceeded),
            "{}",
            report.render_table()
        );
    }

    #[test]
    fn check_plan_one_shot_matches_verifier() {
        let (g, _) = toy_graph();
        let machine = dgx1();
        let plan = InstrumentationPlan::new();
        let map = DeviceMap::identity(2);
        let a = PlanVerifier::new(&machine, &g).verify(&plan, &map);
        let b = check_plan(&machine, &g, &plan, &map);
        assert_eq!(a, b);
    }
}
