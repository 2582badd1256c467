//! MPress Static's profiler (paper Fig. 5, steps 1-2).
//!
//! Runs one *uninstrumented* training window in the simulator (even when
//! it would not fit on the real GPUs — the tracker keeps counting past
//! capacity) and distills, per *tensor class*, the stats the planner's
//! cost model needs: bytes, peak-resident instance counts, live intervals
//! and recomputation (layer forward) times — the contents of the paper's
//! Table III.

use mpress_compaction::InstrumentationPlan;
use mpress_graph::{LivenessAnalysis, OpKind, TensorId, TensorKind};
use mpress_hw::{Bytes, Machine, Secs};
use mpress_pipeline::{LoweredJob, PipelineJob};
use mpress_sim::{DeviceMap, SimArena, SimConfig, SimError, SimReport, Simulator};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What a class of tensors is, for planning purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TensorClassKind {
    /// One layer's activation across all microbatches (`layer` is the
    /// global layer index; `None` is the embedding activation).
    Activation {
        /// Global layer index (`None` = embedding block).
        layer: Option<usize>,
    },
    /// The stage's stashed weight versions (PipeDream).
    Stash,
    /// One layer's optimizer state.
    OptimizerState {
        /// Global layer index (`None` = embedding block).
        layer: Option<usize>,
    },
}

/// A group of same-shaped tensors the planner treats as one unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TensorClass {
    /// Owning pipeline stage.
    pub stage: usize,
    /// What the class is.
    pub kind: TensorClassKind,
    /// Member tensors (one per microbatch for activations; one for
    /// statics).
    pub instances: Vec<TensorId>,
    /// Bytes of one instance.
    pub bytes_per_instance: Bytes,
    /// Instances simultaneously resident at the stage's memory peak.
    pub resident_at_peak: u64,
    /// Smallest live interval across instances (steady-state, the
    /// conservative value for hiding swap latency).
    pub live_interval: Secs,
    /// Forward time of the producing layer (recomputation cost); zero for
    /// non-activations.
    pub recompute_time: Secs,
    /// Whether every instance can be swapped (single writer, >=1 consumer
    /// allows prefetch legs; zero-consumer statics can also swap).
    pub swappable: bool,
}

impl TensorClass {
    /// GPU bytes freed on the home stage when the whole class is
    /// compacted.
    pub fn peak_saving(&self) -> Bytes {
        self.bytes_per_instance * self.resident_at_peak
    }

    /// Whether recomputation applies (activations only).
    pub fn recomputable(&self) -> bool {
        matches!(self.kind, TensorClassKind::Activation { .. })
    }
}

/// Profiler output: timings, liveness and the class table.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The uninstrumented simulation (identity device map, OOM ignored).
    pub baseline: SimReport,
    /// Per-tensor live intervals from the baseline timings.
    pub liveness: LivenessAnalysis,
    /// The planner's class table.
    pub classes: Vec<TensorClass>,
}

impl Profile {
    /// Profiles `job` (lowered as `lowered`) on `machine`.
    ///
    /// # Errors
    ///
    /// Propagates simulator input errors (never OOM — the profiling run
    /// deliberately keeps counting past capacity).
    pub fn collect(
        machine: &Machine,
        job: &PipelineJob,
        lowered: &LoweredJob,
    ) -> Result<Profile, SimError> {
        Profile::collect_in(machine, job, lowered, &mut SimArena::new())
    }

    /// [`collect`](Self::collect), running the profiling window inside a
    /// reusable [`SimArena`] (a planner's, whose windows then find the
    /// graph tables already built).
    ///
    /// # Errors
    ///
    /// Same as [`collect`](Self::collect).
    pub fn collect_in(
        machine: &Machine,
        job: &PipelineJob,
        lowered: &LoweredJob,
        arena: &mut SimArena,
    ) -> Result<Profile, SimError> {
        let plan = InstrumentationPlan::new();
        let baseline = Simulator::new(
            machine,
            &lowered.graph,
            &plan,
            DeviceMap::identity(lowered.graph.n_stages()),
        )
        .with_config(SimConfig::default().strict_oom(false).memory_gate(false))
        .run_in(arena)?;
        let liveness = LivenessAnalysis::compute(&lowered.graph, &baseline.op_start);
        let classes = build_classes(job, lowered, &liveness, &baseline);
        Ok(Profile {
            baseline,
            liveness,
            classes,
        })
    }

    /// Classes on one stage.
    pub fn stage_classes(&self, stage: usize) -> impl Iterator<Item = &TensorClass> {
        self.classes.iter().filter(move |c| c.stage == stage)
    }
}

fn build_classes(
    job: &PipelineJob,
    lowered: &LoweredJob,
    liveness: &LivenessAnalysis,
    baseline: &SimReport,
) -> Vec<TensorClass> {
    let graph = &lowered.graph;
    let schedule = job.schedule();
    let s = graph.n_stages();
    let m = job.microbatches();

    // Per-tensor recomputation time: re-running the producing forward op.
    // Sub-event deltas refine it for coarse (multi-layer) forward ops.
    let mut recompute_time = vec![0.0_f64; graph.tensors().len()];
    for op in graph.ops() {
        if op.kind != OpKind::Forward {
            continue;
        }
        if op.sub_events.is_empty() {
            for t in &op.writes {
                recompute_time[t.index()] = op.duration;
            }
            continue;
        }
        let mut events = op.sub_events.clone();
        events.sort_by(|a, b| a.offset.partial_cmp(&b.offset).expect("finite"));
        let mut prev = 0.0;
        for e in events {
            recompute_time[e.tensor.index()] = (e.offset - prev).max(0.0);
            prev = e.offset;
        }
    }

    let mut classes = Vec::new();

    // --- Activation classes: group by (stage, layer) ------------------------
    let mut groups: BTreeMap<(usize, Option<usize>), Vec<TensorId>> = BTreeMap::new();
    for t in graph.tensors() {
        if t.kind == TensorKind::Activation {
            groups.entry((t.stage, t.layer)).or_default().push(t.id);
        }
    }
    for ((stage, layer), instances) in groups {
        let bytes = graph.tensor(instances[0]).bytes;
        let live = instances
            .iter()
            .map(|&t| liveness.interval(t).duration())
            .fold(f64::INFINITY, f64::min);
        let rec = recompute_time[instances[0].index()];
        let in_flight = schedule.in_flight(stage, s, m) as u64;
        classes.push(TensorClass {
            stage,
            kind: TensorClassKind::Activation { layer },
            swappable: instances.iter().all(|&t| graph.writer_count(t) <= 1),
            bytes_per_instance: bytes,
            resident_at_peak: in_flight,
            live_interval: if live.is_finite() { live } else { 0.0 },
            recompute_time: rec,
            instances,
        });
    }

    // --- Stash classes: one class per stage over its version tensors ----------
    for (stage, versions) in lowered.stash_tensors.iter().enumerate() {
        if versions.is_empty() {
            continue;
        }
        let bytes = graph.tensor(versions[0]).bytes;
        // Static tensors "define" at t=0; their hiding window is the time
        // until their first use (the whole window when never read).
        let interval = versions
            .iter()
            .map(|&t| {
                let live = liveness.interval(t);
                if live.is_used() {
                    live.first_use
                } else {
                    baseline.makespan
                }
            })
            .fold(f64::INFINITY, f64::min);
        classes.push(TensorClass {
            stage,
            kind: TensorClassKind::Stash,
            swappable: versions.iter().all(|&t| graph.writer_count(t) == 0),
            instances: versions.clone(),
            bytes_per_instance: bytes,
            resident_at_peak: versions.len() as u64,
            live_interval: interval,
            recompute_time: 0.0,
        });
    }

    // --- Optimizer-state classes ---------------------------------------------
    for t in graph.tensors() {
        if t.kind != TensorKind::OptimizerState {
            continue;
        }
        let consumers = graph.consumers_of(t.id);
        // Only swap-friendly when read by at most one op (DAPPLE's
        // per-minibatch optimizer step); PipeDream's folded updates touch
        // them every backward.
        if consumers.len() > 1 {
            continue;
        }
        let live = liveness.interval(t.id);
        let interval = if live.is_used() {
            live.first_use
        } else {
            baseline.makespan
        };
        classes.push(TensorClass {
            stage: t.stage,
            kind: TensorClassKind::OptimizerState { layer: t.layer },
            instances: vec![t.id],
            bytes_per_instance: t.bytes,
            resident_at_peak: 1,
            live_interval: interval,
            recompute_time: 0.0,
            swappable: graph.writer_count(t.id) <= 1,
        });
    }

    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpress_model::{ModelFamily, PrecisionPolicy, TransformerConfig};
    use mpress_pipeline::ScheduleKind;

    fn job(kind: ScheduleKind) -> PipelineJob {
        PipelineJob::builder()
            .model(
                TransformerConfig::builder(ModelFamily::Gpt)
                    .layers(8)
                    .hidden(512)
                    .seq_len(256)
                    .vocab(2048) // keep the head small vs. stage compute
                    .build(),
            )
            .schedule(kind)
            .stages(4)
            .microbatch_size(2)
            .microbatches(8)
            .precision(PrecisionPolicy::mixed())
            .build()
            .unwrap()
    }

    #[test]
    fn profile_builds_activation_classes_per_layer() {
        let machine = Machine::dgx1();
        let j = job(ScheduleKind::Dapple);
        let lowered = j.lower().unwrap();
        let p = Profile::collect(&machine, &j, &lowered).unwrap();
        let act_classes: Vec<_> = p
            .classes
            .iter()
            .filter(|c| matches!(c.kind, TensorClassKind::Activation { layer: Some(_) }))
            .collect();
        assert_eq!(act_classes.len(), 8); // one per layer
        for c in &act_classes {
            assert_eq!(c.instances.len(), 8); // one per microbatch
            assert!(c.swappable);
            assert!(c.recompute_time > 0.0);
        }
    }

    #[test]
    fn early_stage_classes_have_longer_live_intervals() {
        let machine = Machine::dgx1();
        let j = job(ScheduleKind::Dapple);
        let lowered = j.lower().unwrap();
        let p = Profile::collect(&machine, &j, &lowered).unwrap();
        let avg = |stage: usize| {
            let v: Vec<f64> = p
                .stage_classes(stage)
                .filter(|c| matches!(c.kind, TensorClassKind::Activation { layer: Some(_) }))
                .map(|c| c.live_interval)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(avg(0) > avg(3), "{} vs {}", avg(0), avg(3));
    }

    #[test]
    fn pipedream_has_stash_classes_dapple_has_optimizer_classes() {
        let machine = Machine::dgx1();
        let pd = job(ScheduleKind::PipeDream);
        let pl = pd.lower().unwrap();
        let pp = Profile::collect(&machine, &pd, &pl).unwrap();
        assert!(pp.classes.iter().any(|c| c.kind == TensorClassKind::Stash));
        // PipeDream folds updates into backwards: optimizer states are
        // multi-consumer and excluded.
        assert!(!pp
            .classes
            .iter()
            .any(|c| matches!(c.kind, TensorClassKind::OptimizerState { .. })));

        let dp = job(ScheduleKind::Dapple);
        let dl = dp.lower().unwrap();
        let dpp = Profile::collect(&machine, &dp, &dl).unwrap();
        assert!(dpp
            .classes
            .iter()
            .any(|c| matches!(c.kind, TensorClassKind::OptimizerState { .. })));
        assert!(!dpp.classes.iter().any(|c| c.kind == TensorClassKind::Stash));
    }

    #[test]
    fn peak_saving_multiplies_in_flight() {
        let machine = Machine::dgx1();
        let j = job(ScheduleKind::Dapple);
        let lowered = j.lower().unwrap();
        let p = Profile::collect(&machine, &j, &lowered).unwrap();
        let c0 = p
            .stage_classes(0)
            .find(|c| matches!(c.kind, TensorClassKind::Activation { layer: Some(_) }))
            .unwrap();
        assert_eq!(c0.resident_at_peak, 4);
        assert_eq!(c0.peak_saving(), c0.bytes_per_instance * 4);
    }
}
