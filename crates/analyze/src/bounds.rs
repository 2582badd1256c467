//! Certified plan bounds: an abstract interpretation over lowered plans.
//!
//! Where the verifier ([`crate::verifier`]) answers "is this plan
//! well-formed?", the bounds pass answers "what can the emulator's
//! numbers possibly be?" — without running it. For one candidate
//! `(plan, device_map)` it computes
//!
//! * a **per-device residency envelope** `[lo, hi]` in exact,
//!   overflow-checked u64 bytes, and
//! * a **makespan interval** `[makespan_lo, makespan_hi]` from the
//!   arena's cost profile (critical path / copy-engine occupancy below,
//!   total task time plus the engine's bounded eviction work above).
//!
//! Both sides are *certified* against the emulator's actual accounting
//! rules, giving a three-way verdict:
//!
//! * [`BoundsVerdict::CertifiedOom`] — some device's residency **lower**
//!   bound exceeds capacity. Emulation is guaranteed to end
//!   out-of-memory; `check` reports it as MP007 (and MP008 on a victim
//!   a landed stripe chunk overfills).
//! * [`BoundsVerdict::CertifiedFit`] — every device's residency
//!   **upper** bound fits. No device-capacity OOM is possible (host/NVMe
//!   pools are out of scope).
//! * [`BoundsVerdict::Unknown`] — neither side is conclusive; emulate.
//!
//! # The residency lattice
//!
//! The emulator allocates a tensor only on its **home** device
//! (`device_map.device_of(tensor.stage)`) and d2d stripe chunks only on
//! their **target** devices. That home-only invariant makes the per-device
//! interval arithmetic exact rather than heuristic:
//!
//! * `hi[d]` = every byte that could ever be simultaneously resident on
//!   `d`: all tensors homed on stages mapped to `d` plus all stripe
//!   chunks targeting `d`.
//! * `lo[d]` = the largest of three witnesses, each a residency some
//!   instant of *every completed* run carries. `perm` is the permanent
//!   core: never-freed statics no swap directive makes evictable.
//!   - the exact `t = 0` allocation (statics resident per their
//!     directives, static stripe chunks at their targets);
//!   - `perm` plus the largest op set: an op's distinct same-stage
//!     dynamic reads and writes, all resident the instant it starts,
//!     less the recomputed tensors it writes without reading (a
//!     recomputed tensor is materialized inside its readers). This
//!     covers the largest write set after directive cuts, a subset;
//!   - on a victim device, its `perm` plus its largest incoming chunk of
//!     a dynamic tensor with a producer: the chunk lands when the
//!     producer's swap-out completes.
//!
//! Saturating arithmetic keeps `lo` sound under overflow (a saturated
//! sum understates the true demand), while any overflow on the `hi`
//! side withdraws the certified-fit verdict.

use crate::diag::{Code, Context, Diagnostic, Report};
use mpress_compaction::{InstrumentationPlan, MemoryDirective};
use mpress_graph::{TensorId, TensorKind, TrainingGraph};
use mpress_hw::{Bytes, DeviceId, Machine, Secs};
use mpress_sim::{DeviceMap, SimArena};
use serde::{Serialize, Value};

/// The three-way outcome of the residency interval comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundsVerdict {
    /// Some device's residency lower bound exceeds capacity: emulation
    /// is guaranteed to report out-of-memory.
    CertifiedOom,
    /// Every device's residency upper bound fits: no device-capacity
    /// OOM is possible (host/NVMe exhaustion remains possible).
    CertifiedFit,
    /// Neither bound is conclusive; only emulation can decide.
    Unknown,
}

impl BoundsVerdict {
    /// Stable wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            BoundsVerdict::CertifiedOom => "certified-oom",
            BoundsVerdict::CertifiedFit => "certified-fit",
            BoundsVerdict::Unknown => "unknown",
        }
    }
}

impl std::fmt::Display for BoundsVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for BoundsVerdict {
    fn to_json(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

/// Per-device certified residency envelope for one candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidencyBounds {
    /// Certified lower bound on peak residency, one entry per machine
    /// GPU (devices hosting no stage get their stripe-chunk floor).
    pub lo: Vec<Bytes>,
    /// Certified upper bound on peak residency, same indexing.
    pub hi: Vec<Bytes>,
    /// The capacity verdict the envelopes imply.
    pub verdict: BoundsVerdict,
    /// Byte arithmetic saturated somewhere; `lo` stays sound, but
    /// certified-fit is withdrawn.
    pub overflowed: bool,
}

impl ResidencyBounds {
    /// One MP007 row per device whose lower bound exceeds `usable`,
    /// when the verdict is certified-OOM.
    fn over_capacity(&self, usable: Bytes) -> Report {
        let mut report = Report::new();
        if self.verdict != BoundsVerdict::CertifiedOom {
            return report;
        }
        for (d, &lo) in self.lo.iter().enumerate() {
            if lo > usable {
                report.push(Diagnostic::error(
                    Code::CapacityExceeded,
                    Context::none().device(d),
                    format!(
                        "device {d} residency is certified to reach at least {lo}, \
                         capacity is {usable}"
                    ),
                ));
            }
        }
        report
    }
}

impl Serialize for ResidencyBounds {
    fn to_json(&self) -> Value {
        let lo: Vec<u64> = self.lo.iter().map(|b| b.0).collect();
        let hi: Vec<u64> = self.hi.iter().map(|b| b.0).collect();
        Value::Object(vec![
            ("lo_bytes".to_string(), lo.to_json()),
            ("hi_bytes".to_string(), hi.to_json()),
            ("verdict".to_string(), self.verdict.to_json()),
            ("overflowed".to_string(), self.overflowed.to_json()),
        ])
    }
}

/// The full certified interval set for one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanBounds {
    /// Certified makespan lower bound (critical path / copy occupancy).
    /// Holds for every run that completes without OOM.
    pub makespan_lo: Secs,
    /// Certified makespan upper bound (total task time plus the
    /// engine's eviction-cap-bounded swap work). Holds for every run,
    /// OOM or not.
    pub makespan_hi: Secs,
    /// Per-device residency envelope and capacity verdict.
    pub residency: ResidencyBounds,
}

impl Serialize for PlanBounds {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("makespan_lo_s".to_string(), self.makespan_lo.to_json()),
            ("makespan_hi_s".to_string(), self.makespan_hi.to_json()),
            ("residency".to_string(), self.residency.to_json()),
        ])
    }
}

/// The bounds analyzer. Construct once per `(machine, graph)`; call
/// [`BoundsAnalyzer::certify`] per candidate plan — it is arena-free
/// (pure byte math), so it can run before any emulation state exists.
#[derive(Debug)]
pub struct BoundsAnalyzer<'a> {
    machine: &'a Machine,
    graph: &'a TrainingGraph,
    /// Per-stage total bytes over ALL tensors homed on the stage.
    stage_total: Vec<Bytes>,
    /// Per-stage total bytes of static tensors (the exact `t = 0`
    /// residency before directive adjustments).
    static_total: Vec<Bytes>,
    /// Per-stage bytes of statics with no free site: resident forever
    /// unless a swap directive makes them evictable.
    perm_static: Vec<Bytes>,
    /// Per-tensor: no op frees it.
    never_freed: Vec<bool>,
    /// Per-op bytes of its set: its distinct same-stage non-static reads
    /// and writes, all resident the instant the op starts.
    op_set: Vec<Bytes>,
    /// Sorted `(tensor, op)` pairs, one per op whose set counts the
    /// tensor only as a write: a recompute directive cuts it there (the
    /// writer does not materialize it).
    write_only: Vec<(u32, u32)>,
    /// A byte sum saturated during precomputation.
    precompute_overflow: bool,
}

/// The largest incoming D2D chunk certain to land on one victim: a
/// dynamic tensor's chunk, which lands when its producer's swap-out
/// completes.
#[derive(Debug, Clone, Copy)]
struct Landed {
    tensor: TensorId,
    chunk: Bytes,
    /// The victim's permanent statics plus the chunk.
    floor: Bytes,
}

impl<'a> BoundsAnalyzer<'a> {
    /// Precomputes the per-stage residency tables.
    pub fn new(machine: &'a Machine, graph: &'a TrainingGraph) -> Self {
        let n_stages = graph.n_stages();
        let n_tensors = graph.tensors().len();
        let mut overflowed = false;
        let mut add = |acc: &mut Bytes, b: Bytes| add_checked(acc, b, &mut overflowed);

        let mut never_freed = vec![true; n_tensors];
        for op in graph.ops() {
            for &t in &op.frees {
                never_freed[t.index()] = false;
            }
        }

        let mut stage_total = vec![Bytes::ZERO; n_stages];
        let mut static_total = vec![Bytes::ZERO; n_stages];
        let mut perm_static = vec![Bytes::ZERO; n_stages];
        for t in graph.tensors().iter().filter(|t| t.stage < n_stages) {
            add(&mut stage_total[t.stage], t.bytes);
            if t.kind.is_static() {
                add(&mut static_total[t.stage], t.bytes);
                if never_freed[t.id.index()] {
                    add(&mut perm_static[t.stage], t.bytes);
                }
            }
        }

        let mut op_set = Vec::with_capacity(graph.ops().len());
        let mut write_only = Vec::new();
        let mut seen = Vec::new();
        for (i, op) in graph.ops().iter().enumerate() {
            seen.clear();
            let mut set = Bytes::ZERO;
            for &t in op.reads.iter().chain(&op.writes) {
                let tensor = graph.tensor(t);
                if tensor.kind.is_static() || tensor.stage != op.stage || seen.contains(&t) {
                    continue;
                }
                seen.push(t);
                add(&mut set, tensor.bytes);
                if !op.reads.contains(&t) {
                    write_only.push((t.0, i as u32));
                }
            }
            op_set.push(set);
        }
        write_only.sort_unstable();

        BoundsAnalyzer {
            machine,
            graph,
            stage_total,
            static_total,
            perm_static,
            never_freed,
            op_set,
            write_only,
            precompute_overflow: overflowed,
        }
    }

    /// Computes the certified per-device residency envelope for one
    /// candidate. Malformed input (short device map, out-of-range
    /// devices, directives on unknown or boundary tensors) degrades the
    /// verdict to [`BoundsVerdict::Unknown`]: the simulator refuses
    /// such a plan, and the verifier reports why.
    pub fn certify(&self, plan: &InstrumentationPlan, device_map: &DeviceMap) -> ResidencyBounds {
        self.envelope(plan, device_map).0
    }

    /// The residency findings `check` reports for one candidate: MP007
    /// on each device a certified-OOM verdict puts over capacity, MP008
    /// on each victim whose landed-chunk floor alone is over, and MP012
    /// when byte arithmetic overflowed.
    pub fn diagnose(&self, plan: &InstrumentationPlan, device_map: &DeviceMap) -> Report {
        let usable = self.machine.gpu().usable_memory();
        let (bounds, landed) = self.envelope(plan, device_map);
        let mut report = bounds.over_capacity(usable);
        if bounds.verdict == BoundsVerdict::CertifiedOom {
            for (d, l) in landed.iter().enumerate() {
                let Some(l) = l.filter(|l| l.floor > usable) else {
                    continue;
                };
                report.push(Diagnostic::error(
                    Code::VictimOverflow,
                    Context::none().tensor(l.tensor.0).device(d),
                    format!(
                        "stripe chunk of {} ({}) leaves victim GPU{d} over capacity \
                         ({} > {usable})",
                        l.tensor, l.chunk, l.floor
                    ),
                ));
            }
        }
        if bounds.overflowed {
            report.push(Diagnostic::error(
                Code::Overflow,
                Context::none(),
                "byte arithmetic overflowed during analysis; capacity verdicts unreliable",
            ));
        }
        report
    }

    /// The residency envelope plus, per device, the largest incoming
    /// chunk certain to land there.
    fn envelope(
        &self,
        plan: &InstrumentationPlan,
        device_map: &DeviceMap,
    ) -> (ResidencyBounds, Vec<Option<Landed>>) {
        let n_stages = self.graph.n_stages();
        let n_tensors = self.graph.tensors().len();
        let gpus = self.machine.gpu_count();
        let usable = self.machine.gpu().usable_memory();
        let mut overflowed = self.precompute_overflow;
        let mut untrusted = device_map.len() != n_stages;

        // Resolve each stage's device once; a short or out-of-range map
        // leaves its stages unplaced and the verdict untrusted.
        let device_of: Vec<Option<usize>> = (0..n_stages)
            .map(|s| {
                let d = (s < device_map.len())
                    .then(|| device_map.device_of(s).index())
                    .filter(|&d| d < gpus);
                untrusted |= d.is_none();
                d
            })
            .collect();

        // Upper envelope seed and t=0 seed: everything homed per stage.
        let mut hi = vec![Bytes::ZERO; gpus];
        let mut init = vec![Bytes::ZERO; gpus];
        for (s, dev) in device_of.iter().enumerate() {
            if let Some(d) = *dev {
                add_checked(&mut hi[d], self.stage_total[s], &mut overflowed);
                add_checked(&mut init[d], self.static_total[s], &mut overflowed);
            }
        }

        // Walk the directives: adjust the t=0 picture and the permanent
        // core, accumulate stripe-chunk bytes, note landed chunks, and
        // collect per-op set cuts.
        let mut perm = self.perm_static.clone();
        let mut op_set = self.op_set.clone();
        let mut chunks: Vec<Option<(Bytes, TensorId)>> = vec![None; gpus];
        for (t, directive) in plan.iter() {
            if t.index() >= n_tensors {
                untrusted = true;
                continue;
            }
            let tensor = self.graph.tensor(t);
            if tensor.kind == TensorKind::Boundary || tensor.stage >= n_stages {
                untrusted = true;
                continue;
            }
            let is_static = tensor.kind.is_static();
            match directive {
                // A recomputed tensor is materialized inside its
                // readers, not by a writer that does not read it.
                MemoryDirective::Recompute => {
                    let from = self.write_only.partition_point(|&(x, _)| x < t.0);
                    let sites = self.write_only[from..]
                        .iter()
                        .take_while(|&&(x, _)| x == t.0);
                    for &(_, op) in sites {
                        let set = &mut op_set[op as usize];
                        *set = set.saturating_sub(tensor.bytes);
                    }
                }
                // Swapped statics start elsewhere (host or peers) and
                // stop being part of the permanent core.
                _ if is_static => {
                    if let Some(d) = device_of[tensor.stage] {
                        init[d] = init[d].saturating_sub(tensor.bytes);
                    }
                    if self.never_freed[t.index()] {
                        perm[tensor.stage] = perm[tensor.stage].saturating_sub(tensor.bytes);
                    }
                }
                _ => {}
            }
            let MemoryDirective::SwapD2d(stripe) = directive else {
                continue;
            };
            let lands = !is_static && self.graph.writer_count(t) > 0;
            for chunk in stripe.chunks() {
                let d = chunk.target.index();
                if d >= gpus {
                    untrusted = true;
                    continue;
                }
                add_checked(&mut hi[d], chunk.bytes, &mut overflowed);
                if is_static {
                    // Static stripe chunks are materialized at t=0.
                    add_checked(&mut init[d], chunk.bytes, &mut overflowed);
                } else if lands && chunks[d].is_none_or(|(b, _)| chunk.bytes > b) {
                    chunks[d] = Some((chunk.bytes, t));
                }
            }
        }

        // Lower envelope: the max of the witnesses below, each a
        // residency some instant of every completed run carries.
        let mut lo = init;
        // The permanent core plus the largest op set left after cuts,
        // resident together when that op starts.
        for (op, &set) in self.graph.ops().iter().zip(&op_set) {
            if let Some(d) = device_of[op.stage] {
                lo[d] = lo[d].max(perm[op.stage].saturating_add(set));
            }
        }
        // The victim's permanent core plus its largest landed chunk,
        // resident together when the chunk's swap-out completes.
        let landed: Vec<Option<Landed>> = (0..gpus)
            .map(|d| {
                let (chunk, tensor) = chunks[d]?;
                let victim = device_map.stage_of(DeviceId(d)).filter(|&s| s < n_stages);
                let floor = victim
                    .map_or(Bytes::ZERO, |s| perm[s])
                    .saturating_add(chunk);
                lo[d] = lo[d].max(floor);
                Some(Landed {
                    tensor,
                    chunk,
                    floor,
                })
            })
            .collect();

        let certified_oom = !untrusted && lo.iter().any(|&b| b > usable);
        let certified_fit = !untrusted && !overflowed && hi.iter().all(|&b| b <= usable);
        let verdict = if certified_oom {
            BoundsVerdict::CertifiedOom
        } else if certified_fit {
            BoundsVerdict::CertifiedFit
        } else {
            BoundsVerdict::Unknown
        };
        let bounds = ResidencyBounds {
            lo,
            hi,
            verdict,
            overflowed,
        };
        (bounds, landed)
    }

    /// [`BoundsAnalyzer::certify`] plus the makespan interval from the
    /// arena's cost profile.
    pub fn certify_with_arena(
        &self,
        plan: &InstrumentationPlan,
        device_map: &DeviceMap,
        arena: &mut SimArena,
    ) -> PlanBounds {
        let residency = self.certify(plan, device_map);
        let profile = arena.cost_profile(self.machine, self.graph, plan, device_map);
        PlanBounds {
            makespan_lo: profile.makespan_lo,
            makespan_hi: profile.makespan_hi(),
            residency,
        }
    }
}

/// `acc += b`, saturating and raising `overflowed` on a would-be wrap.
fn add_checked(acc: &mut Bytes, b: Bytes, overflowed: &mut bool) {
    *acc = acc.checked_add(b).unwrap_or_else(|| {
        *overflowed = true;
        acc.saturating_add(b)
    });
}

/// One-shot convenience: build an analyzer and certify a single plan.
pub fn certify_plan(
    machine: &Machine,
    graph: &TrainingGraph,
    plan: &InstrumentationPlan,
    device_map: &DeviceMap,
    arena: &mut SimArena,
) -> PlanBounds {
    BoundsAnalyzer::new(machine, graph).certify_with_arena(plan, device_map, arena)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpress_compaction::{HostTier, StripePlan};
    use mpress_graph::OpKind;
    use mpress_sim::Simulator;

    /// A 2-stage toy job mirroring the verifier's fixture.
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

    #[test]
    fn toy_plan_is_certified_fit() {
        let (g, _) = toy_graph();
        let machine = Machine::dgx1();
        let analyzer = BoundsAnalyzer::new(&machine, &g);
        let bounds = analyzer.certify(&InstrumentationPlan::new(), &DeviceMap::identity(2));
        assert_eq!(bounds.verdict, BoundsVerdict::CertifiedFit);
        assert!(!bounds.overflowed);
        // Stage 0 hosts 1 GiB param + 2 GiB activation + 64 MiB boundary.
        assert_eq!(bounds.hi[0], Bytes::gib(3).saturating_add(Bytes::mib(64)));
        // t=0 exact residency covers at least the statics.
        assert!(bounds.lo[0] >= Bytes::gib(1));
        assert!(bounds.lo[0] <= bounds.hi[0]);
        // Spare devices (2..7) host nothing.
        assert_eq!(bounds.hi[7], Bytes::ZERO);
    }

    #[test]
    fn lo_includes_largest_write_set_over_permanent_core() {
        let (g, _) = toy_graph();
        let machine = Machine::dgx1();
        let analyzer = BoundsAnalyzer::new(&machine, &g);
        let bounds = analyzer.certify(&InstrumentationPlan::new(), &DeviceMap::identity(2));
        // f0 writes a0 (2 GiB) + bd (64 MiB) on stage 0; the parameter
        // (1 GiB, never freed) is permanent. lo must cover both.
        assert!(bounds.lo[0] >= Bytes::gib(3));
    }

    #[test]
    fn certified_oom_on_oversized_activation() {
        // The verifier's MP007 fixture: a 100 GiB activation on a
        // 32 GiB V100. The bounds pass certifies the OOM.
        let mut b = TrainingGraph::builder(1);
        let a = b.add_tensor(TensorKind::Activation, Bytes::gib(100), 0, Some(0), Some(0));
        b.add_op(OpKind::Forward, 0, Some(0), 0.01, |op| op.writes.push(a));
        b.add_op(OpKind::Backward, 0, Some(0), 0.01, |op| {
            op.reads.push(a);
            op.frees.push(a);
        });
        let g = b.build().expect("valid shape");
        let machine = Machine::dgx1();
        let analyzer = BoundsAnalyzer::new(&machine, &g);
        let (plan, map) = (InstrumentationPlan::new(), DeviceMap::identity(1));
        let bounds = analyzer.certify(&plan, &map);
        assert_eq!(bounds.verdict, BoundsVerdict::CertifiedOom);
        let report = analyzer.diagnose(&plan, &map);
        assert!(
            report.has_code(Code::CapacityExceeded),
            "{}",
            report.render_table()
        );
        // Predicted OOM must not be a structural rejection.
        assert!(!report.has_structural_errors());
    }

    #[test]
    fn directive_on_the_big_tensor_withdraws_the_oom_verdict() {
        // The 100 GiB activation is written and then freed, never read.
        let mut b = TrainingGraph::builder(1);
        let a = b.add_tensor(TensorKind::Activation, Bytes::gib(100), 0, Some(0), Some(0));
        b.add_op(OpKind::Forward, 0, Some(0), 0.01, |op| op.writes.push(a));
        b.add_op(OpKind::Backward, 0, Some(0), 0.01, |op| op.frees.push(a));
        let g = b.build().expect("valid shape");
        let machine = Machine::dgx1();
        let analyzer = BoundsAnalyzer::new(&machine, &g);
        let bare = analyzer.certify(&InstrumentationPlan::new(), &DeviceMap::identity(1));
        assert_eq!(bare.verdict, BoundsVerdict::CertifiedOom);
        let mut plan = InstrumentationPlan::new();
        plan.assign(a, MemoryDirective::Recompute);
        let bounds = analyzer.certify(&plan, &DeviceMap::identity(1));
        // Recomputed, it is materialized only inside a reader, and it
        // has none: lo no longer proves the OOM, but hi still counts
        // it, so the verdict degrades to Unknown.
        assert_eq!(bounds.verdict, BoundsVerdict::Unknown);
        assert!(analyzer.diagnose(&plan, &DeviceMap::identity(1)).is_clean());
    }

    /// Emulates `plan` and checks the run completes with every device's
    /// peak at or above its certified lower bound.
    fn assert_lo_holds(
        machine: &Machine,
        g: &TrainingGraph,
        plan: &InstrumentationPlan,
        map: DeviceMap,
    ) {
        let bounds = BoundsAnalyzer::new(machine, g).certify(plan, &map);
        let sim = Simulator::new(machine, g, plan, map)
            .run()
            .expect("valid plan");
        assert!(sim.oom.is_none(), "{:?}", sim.oom);
        for (d, (&peak, &lo)) in sim.device_peak.iter().zip(&bounds.lo).enumerate() {
            assert!(peak >= lo, "gpu{d}: peak {peak} below lo {lo}");
        }
    }

    #[test]
    fn lo_covers_the_largest_read_write_set() {
        // b0 reads the 8 GiB activation f0 wrote while it writes a
        // 1 GiB one: both are resident when b0 starts.
        let mut b = TrainingGraph::builder(1);
        let big = b.add_tensor(TensorKind::Activation, Bytes::gib(8), 0, Some(0), Some(0));
        let small = b.add_tensor(TensorKind::Activation, Bytes::gib(1), 0, Some(0), Some(0));
        b.add_op(OpKind::Forward, 0, Some(0), 0.01, |op| op.writes.push(big));
        b.add_op(OpKind::Backward, 0, Some(0), 0.01, |op| {
            op.reads.push(big);
            op.writes.push(small);
            op.frees.push(big);
        });
        b.add_op(OpKind::Backward, 0, Some(0), 0.01, |op| {
            op.reads.push(small);
            op.frees.push(small);
        });
        let g = b.build().expect("valid shape");
        let machine = Machine::dgx1();
        let plan = InstrumentationPlan::new();
        let bounds = BoundsAnalyzer::new(&machine, &g).certify(&plan, &DeviceMap::identity(1));
        assert_eq!(bounds.lo[0], Bytes::gib(9));
        assert_lo_holds(&machine, &g, &plan, DeviceMap::identity(1));
    }

    #[test]
    fn lo_covers_a_landed_incoming_chunk() {
        let (g, t) = toy_graph();
        let machine = Machine::dgx1();
        // f0 produces a0 (2 GiB); its swap-out lands the whole stripe on
        // GPU2, which hosts no stage.
        let mut plan = InstrumentationPlan::new();
        plan.assign(
            t[2],
            MemoryDirective::SwapD2d(StripePlan::single(Bytes::gib(2), DeviceId(2), 1)),
        );
        let bounds = BoundsAnalyzer::new(&machine, &g).certify(&plan, &DeviceMap::identity(2));
        assert_eq!(bounds.lo[2], Bytes::gib(2));
        assert_lo_holds(&machine, &g, &plan, DeviceMap::identity(2));
    }

    #[test]
    fn d2d_chunks_raise_hi_and_init_on_the_victim() {
        let (g, t) = toy_graph();
        let machine = Machine::dgx1();
        let analyzer = BoundsAnalyzer::new(&machine, &g);
        let mut plan = InstrumentationPlan::new();
        // Swap stage 0's parameter to GPU2 (a spare device).
        plan.assign(
            t[0],
            MemoryDirective::SwapD2d(StripePlan::single(Bytes::gib(1), DeviceId(2), 1)),
        );
        let bounds = analyzer.certify(&plan, &DeviceMap::identity(2));
        let baseline = analyzer.certify(&InstrumentationPlan::new(), &DeviceMap::identity(2));
        assert_eq!(bounds.hi[2], baseline.hi[2].saturating_add(Bytes::gib(1)));
        // Static chunks exist at t=0: the victim's lower bound sees them.
        assert!(bounds.lo[2] >= Bytes::gib(1));
        // The source device's hi keeps the tensor (it is refetched).
        assert_eq!(bounds.hi[0], baseline.hi[0]);
    }

    #[test]
    fn malformed_input_degrades_to_unknown() {
        let (g, _) = toy_graph();
        let machine = Machine::dgx1();
        let analyzer = BoundsAnalyzer::new(&machine, &g);
        // Short device map.
        let short = analyzer.certify(&InstrumentationPlan::new(), &DeviceMap::identity(1));
        assert_eq!(short.verdict, BoundsVerdict::Unknown);
        // Directive on an unknown tensor.
        let mut plan = InstrumentationPlan::new();
        plan.assign(TensorId(999), MemoryDirective::SwapToHost(HostTier::Dram));
        let bogus = analyzer.certify(&plan, &DeviceMap::identity(2));
        assert_eq!(bogus.verdict, BoundsVerdict::Unknown);
    }

    #[test]
    fn overflow_withdraws_certified_fit_but_not_oom() {
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
        let machine = Machine::dgx1();
        let analyzer = BoundsAnalyzer::new(&machine, &g);
        let bounds = analyzer.certify(&InstrumentationPlan::new(), &DeviceMap::identity(1));
        assert!(bounds.overflowed);
        // The saturated t=0 sum still exceeds capacity: the OOM verdict
        // survives overflow (saturation only understates lo).
        assert_eq!(bounds.verdict, BoundsVerdict::CertifiedOom);
    }

    #[test]
    fn makespan_interval_is_ordered_and_positive() {
        let (g, _) = toy_graph();
        let machine = Machine::dgx1();
        let mut arena = SimArena::new();
        let bounds = certify_plan(
            &machine,
            &g,
            &InstrumentationPlan::new(),
            &DeviceMap::identity(2),
            &mut arena,
        );
        assert!(bounds.makespan_lo > 0.0);
        assert!(bounds.makespan_hi >= bounds.makespan_lo);
    }

    #[test]
    fn json_shape_is_stable() {
        let (g, _) = toy_graph();
        let machine = Machine::dgx1();
        let mut arena = SimArena::new();
        let bounds = certify_plan(
            &machine,
            &g,
            &InstrumentationPlan::new(),
            &DeviceMap::identity(2),
            &mut arena,
        );
        let v = bounds.to_json();
        assert!(v.get("makespan_lo_s").and_then(Value::as_f64).is_some());
        assert!(v.get("makespan_hi_s").and_then(Value::as_f64).is_some());
        let res = v.get("residency").expect("residency object");
        assert_eq!(
            res.get("verdict").and_then(Value::as_str),
            Some("certified-fit")
        );
        assert_eq!(
            res.get("lo_bytes")
                .and_then(Value::as_array)
                .map(|a| a.len()),
            Some(8)
        );
    }
}
