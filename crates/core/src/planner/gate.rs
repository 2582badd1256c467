//! The gate chain every candidate plan passes (exact memo → shared memo
//! → certified lower bound → bound-and-abort window) and the trial keys
//! the memo and the refinement frontier order by.

use super::Planner;
use crate::cache::EmuOutcome as Outcome;
use mpress_compaction::{HostTier, InstrumentationPlan, MemoryDirective};
use mpress_graph::TensorId;
use mpress_hw::{Bytes, DeviceId, Secs};
use mpress_sim::{DeviceMap, OomEvent, SimError, SimOutcome, Simulator};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Memoizes emulator outcomes across the search.
///
/// Refinement repeatedly re-creates previously-seen plans (rejected
/// trials revert to the incumbent, portfolio variants re-derive the
/// same assignment), so whole simulator windows can be skipped. The
/// key is a **structural** digest of the plan's simulator-visible
/// effects (see [`cache_key`]), interned to one `u64` — no per-call
/// allocation, and equivalent candidates reached via different
/// refinement paths collapse onto the same entry.
#[derive(Debug, Default)]
pub(super) struct EmulationCache {
    entries: Mutex<HashMap<u64, Outcome>>,
    pub(super) runs: AtomicUsize,
    pub(super) hits: AtomicUsize,
    pub(super) bounds_pruned: AtomicUsize,
    pub(super) bound_aborts: AtomicUsize,
    pub(super) trials_enqueued: AtomicUsize,
    pub(super) bound_node_visits: AtomicUsize,
    pub(super) plan_emits: AtomicUsize,
    pub(super) stream_visits: AtomicUsize,
}

/// Adds `n` to one of the search's counters.
pub(super) fn add(counter: &AtomicUsize, n: usize) {
    counter.fetch_add(n, Ordering::Relaxed);
}

impl EmulationCache {
    fn lookup(&self, key: u64) -> Option<Outcome> {
        let found = self.entries.lock().expect("cache lock").get(&key).copied();
        if found.is_some() {
            add(&self.hits, 1);
        }
        found
    }

    fn insert(&self, key: u64, outcome: Outcome) {
        self.entries
            .lock()
            .expect("cache lock")
            .insert(key, outcome);
    }
}

/// What one emulator run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Whether the window ran out of memory.
    pub oom: bool,
    /// Simulated window wall-clock.
    pub makespan: Secs,
    /// Bytes moved over the host (PCIe) channel.
    pub host_traffic: Bytes,
}

/// Emulator metric comparison: resolving OOM beats everything; a visibly
/// (>0.1%) shorter makespan wins; at equal speed, relieving the PCIe
/// channel wins (the paper keeps D2D even when the gain is not yet
/// visible — it frees the slow path for tensors that need it).
fn metric_better(candidate: Metric, best: Metric) -> bool {
    match (candidate.oom, best.oom) {
        (false, true) => true,
        (true, false) => false,
        _ => {
            if candidate.makespan < best.makespan * 0.999 {
                return true;
            }
            candidate.makespan <= best.makespan * 1.001
                && candidate.host_traffic < best.host_traffic
        }
    }
}

/// A search's incumbent: the best plan adjudicated so far and its metric.
pub(super) struct Best {
    pub(super) plan: InstrumentationPlan,
    pub(super) metric: Metric,
}

impl Best {
    /// The planner's one adjudicate-and-commit path: the candidate plan
    /// (made by the search state `state`) runs the gate chain gated on
    /// `gate`; when [`metric_better`] prefers it to the incumbent, the
    /// state replaces `*at` and the plan this incumbent. Returns whether
    /// it did. `keyed`: see [`Planner::emulate_bounded`].
    pub(super) fn offer<T>(
        &mut self,
        planner: &Planner,
        at: &mut T,
        (state, plan): (T, InstrumentationPlan),
        device_map: &DeviceMap,
        gate: Metric,
        keyed: Option<(u64, Secs)>,
    ) -> Result<bool, SimError> {
        let Some((metric, _)) = planner.emulate_bounded(&plan, device_map, Some(gate), keyed)?
        else {
            return Ok(false); // pruned or aborted: cannot win
        };
        if mpress_obs::verbosity().plan_debug {
            eprintln!(
                "candidate: oom={} makespan={:.4} vs best oom={} makespan={:.4}",
                metric.oom, metric.makespan, self.metric.oom, self.metric.makespan
            );
        }
        if !metric_better(metric, self.metric) {
            return Ok(false);
        }
        *at = state;
        *self = Best { plan, metric };
        Ok(true)
    }
}

impl Planner<'_> {
    /// One emulator run (paper Fig. 5 step 5): a single simulated
    /// window, memoized on the exact `(plan, device_map)` structure.
    /// Refinement re-creates previously-seen plans constantly (rejected
    /// trials revert, portfolio variants converge), so hits skip whole
    /// simulator windows without changing any outcome.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from the underlying run.
    pub fn emulate(
        &self,
        plan: &InstrumentationPlan,
        device_map: &DeviceMap,
    ) -> Result<(Metric, Option<OomEvent>), SimError> {
        self.emulate_bounded(plan, device_map, None, None)
            .map(completed)
    }

    /// [`Planner::emulate`] with an optional incumbent to beat. When the
    /// certified lower bound or bound-and-abort emulation proves that
    /// the candidate cannot beat a non-OOM incumbent (both are off in
    /// [`PlannerConfig::reference`](super::PlannerConfig::reference)
    /// mode), `None` is returned — by [`metric_better`]'s rules such a
    /// candidate could never have been accepted, so the search outcome
    /// is unchanged. `keyed` carries the plan's [`cache_key`] and
    /// [`Planner::lower_bound`] when the caller already has them (a
    /// popped frontier trial); otherwise they are computed here, the
    /// bound only if a prune needs it.
    fn emulate_bounded(
        &self,
        plan: &InstrumentationPlan,
        device_map: &DeviceMap,
        incumbent: Option<Metric>,
        keyed: Option<(u64, Secs)>,
    ) -> Result<Option<Outcome>, SimError> {
        // Aborted windows are never cached: an abort certifies a loss
        // against the gating incumbent, not an outcome. Structural
        // validity needs no gate of its own: the simulator validates
        // every plan it runs and returns an error for a malformed one.
        let key = keyed.map_or_else(|| cache_key(plan, device_map), |(key, _)| key);
        if let Some(outcome) = self.cache.lookup(key) {
            return Ok(Some(outcome));
        }
        // Process-global view: outcomes another search computed for this
        // exact (job scope, structural key). A hit is promoted into the
        // local exact map and counted as a local cache hit — the outcome
        // is what the skipped run would have produced, so every search
        // decision downstream is unchanged.
        if let Some((shared, scope)) = &self.shared {
            if let Some(outcome) = shared.emu_lookup(*scope, key) {
                add(&self.cache.hits, 1);
                self.cache.insert(key, outcome);
                return Ok(Some(outcome));
            }
        }
        // Only prune against a feasible incumbent: against an OOM one,
        // any non-OOM candidate wins regardless of makespan, and the
        // bound cannot predict host-pool feasibility. A certified-OOM
        // candidate is not pruned: its window reports an OOM metric,
        // which `metric_better` never prefers to a non-OOM incumbent.
        let gate = incumbent.filter(|best| !self.config.reference && !best.oom);
        if let Some(best) = gate {
            // Certified makespan lower bound: `metric_better` accepts a
            // candidate at up to 1.001x the incumbent (the host-traffic
            // tiebreak), so only candidates that cannot even tie are
            // pruned.
            let lb = keyed.map_or_else(|| self.lower_bound(plan, device_map), |(_, lb)| lb);
            if lb > best.makespan * 1.001 {
                add(&self.cache.bounds_pruned, 1);
                return Ok(None);
            }
        }
        // Bound-and-abort: against a feasible incumbent the emulator
        // only needs to run far enough to prove a loss — anything past
        // the acceptance slack is unobservable to `metric_better`.
        let bound = gate.map(|best| best.makespan * 1.001);
        let outcome = self.window(plan, device_map, bound)?;
        if let Some(outcome) = outcome {
            self.cache.insert(key, outcome);
            if let Some((shared, scope)) = &self.shared {
                shared.emu_insert(*scope, key, outcome);
            }
        }
        Ok(outcome)
    }

    /// [`Planner::emulate`] without the memoization layer — one real
    /// simulator window. Cached and uncached results are asserted equal
    /// by the property suite.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from the underlying run.
    pub fn emulate_uncached(
        &self,
        plan: &InstrumentationPlan,
        device_map: &DeviceMap,
    ) -> Result<(Metric, Option<OomEvent>), SimError> {
        self.window(plan, device_map, None).map(completed)
    }

    /// One real simulator window under an optional makespan bound: the
    /// engine aborts the moment its simulated clock passes `bound`
    /// (bound-and-abort emulation), and the window returns `None`,
    /// which the caller must treat as a certified loss against the
    /// incumbent that produced the bound — never as an outcome.
    fn window(
        &self,
        plan: &InstrumentationPlan,
        device_map: &DeviceMap,
        bound: Option<Secs>,
    ) -> Result<Option<Outcome>, SimError> {
        if matches!(&self.cancel, Some(token) if !token.charge_run()) {
            return Err(SimError::Cancelled);
        }
        add(&self.cache.runs, 1);
        let outcome = self.arenas.with(|arena| {
            let outcome =
                Simulator::new(self.machine, &self.lowered.graph, plan, device_map.clone())
                    .run_in_bounded(arena, bound);
            if outcome.is_ok() {
                add(&self.cache.stream_visits, arena.stream_visits());
            }
            outcome
        })?;
        let SimOutcome::Completed(report) = outcome else {
            add(&self.cache.bound_aborts, 1);
            return Ok(None);
        };
        let metric = Metric {
            oom: report.oom.is_some(),
            makespan: report.makespan,
            host_traffic: report.host_traffic,
        };
        Ok(Some((metric, report.oom)))
    }

    /// The analytic makespan lower bound of a candidate the gate gets
    /// without one: a popped frontier trial carries the bound it was
    /// queued under instead.
    pub(super) fn lower_bound(&self, plan: &InstrumentationPlan, device_map: &DeviceMap) -> Secs {
        self.arenas.with(|arena| {
            arena
                .cost_profile(self.machine, &self.lowered.graph, plan, device_map)
                .makespan_lo
        })
    }
}

/// The outcome of an unbounded window, which has no bound to pass.
fn completed(outcome: Option<Outcome>) -> Outcome {
    outcome.expect("an unbounded window always completes")
}

/// Minimal FNV-1a 64-bit fold over `v`'s eight little-endian bytes
/// (std-only; `DefaultHasher` is not guaranteed stable across releases
/// and cache behavior should be reproducible build-to-build).
///
/// A zero byte's step only multiplies by the prime, so the steps past
/// `v`'s highest nonzero byte collapse into one multiplication by a
/// precomputed power of it: the same 64-bit result, since wrapping
/// multiplication is associative.
pub(crate) fn fnv(h: u64, v: u64) -> u64 {
    let len = 8 - (v.leading_zeros() / 8) as usize;
    let (mut h, mut rest) = (h, v);
    for _ in 0..len {
        h ^= rest & 0xff;
        h = h.wrapping_mul(FNV_PRIME);
        rest >>= 8;
    }
    h.wrapping_mul(FNV_PRIME_POWERS[8 - len])
}

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME_POWERS[k]` = `FNV_PRIME^k` (wrapping), for `k` in `0..=8`.
const FNV_PRIME_POWERS: [u64; 9] = {
    let mut powers = [1_u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// FNV-1a offset basis.
pub(crate) const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Canonical structural digest of one emulator input: the device map
/// plus, per tensor (in deterministic `BTreeMap` order), exactly the
/// directive properties the simulator consumes — technique, host tier,
/// and for D2D stripes the one-way transfer time and the per-chunk
/// `(target, bytes)` layout. Lane counts are deliberately **not**
/// hashed: the engine only reads them through `one_way_time()`, so two
/// stripes differing only in lanes (same timing, same placement) are
/// the same plan to the emulator and share a cache entry.
///
/// The digest is a 64-bit hash, so a collision is theoretically able to
/// return a wrong memoized metric; with the few hundred distinct plans
/// a search generates the probability is ~1e-15 per search, which we
/// accept for an allocation-free key (the property suite still pins
/// cached == uncached outcomes on real searches).
pub(super) fn cache_key(plan: &InstrumentationPlan, device_map: &DeviceMap) -> u64 {
    plan_digest(plan, device_map, |device| device.0 as u64)
}

/// [`cache_key`] made invariant under consistent device relabeling:
/// every device id is replaced by its first-appearance rank (stage scan
/// first, then stripe chunk targets in plan order), so plans that are
/// equal up to a device permutation collide.
///
/// Its only job is the refinement frontier's tie-break between trials
/// with equal makespan lower bounds. It stays because that tie order is
/// part of every search's trajectory: the other tie-breaks measured (the
/// exact key alone, insertion order) change chosen plans and
/// emulator-run counts. The digest is pinned by a unit test below.
pub(super) fn canon_key(plan: &InstrumentationPlan, device_map: &DeviceMap) -> u64 {
    let mut ranks = CanonRanks::default();
    plan_digest(plan, device_map, |device| ranks.rank(device))
}

/// [`canon_key`]'s device relabeling: `ranks[d]` = 1 + device `d`'s
/// first-appearance rank (0 = unseen); no allocation per call. Ids past
/// the table keep a raw-id digest disjoint from every rank: a finer,
/// still sound key.
#[derive(Clone, Copy)]
struct CanonRanks {
    ranks: [u32; CANON_DEVICES],
    next: u32,
}

impl Default for CanonRanks {
    fn default() -> Self {
        CanonRanks {
            ranks: [0; CANON_DEVICES],
            next: 0,
        }
    }
}

impl CanonRanks {
    fn rank(&mut self, device: DeviceId) -> u64 {
        let Some(slot) = self.ranks.get_mut(device.0) else {
            return (CANON_DEVICES + device.0) as u64;
        };
        if *slot == 0 {
            self.next += 1;
            *slot = self.next;
        }
        u64::from(*slot - 1)
    }
}

/// The digest [`cache_key`] and [`canon_key`] share: the device map,
/// then per tensor the directive's simulator-visible properties, with
/// every device id (stage hosts first, then stripe chunk targets in
/// plan order) hashed as `device` reports it.
fn plan_digest(
    plan: &InstrumentationPlan,
    device_map: &DeviceMap,
    mut device: impl FnMut(DeviceId) -> u64,
) -> u64 {
    let h = digest_map(device_map, &mut device);
    plan.iter().fold(h, |h, (tensor, directive)| {
        digest_entry(h, tensor, directive, &mut device)
    })
}

/// [`plan_digest`]'s device-map prefix.
fn digest_map(device_map: &DeviceMap, device: &mut impl FnMut(DeviceId) -> u64) -> u64 {
    let mut h = fnv(FNV_SEED, device_map.len() as u64);
    for stage in 0..device_map.len() {
        h = fnv(h, device(device_map.device_of(stage)));
    }
    h
}

/// [`plan_digest`]'s step over one `(tensor, directive)` entry.
fn digest_entry(
    mut h: u64,
    tensor: TensorId,
    directive: &MemoryDirective,
    device: &mut impl FnMut(DeviceId) -> u64,
) -> u64 {
    h = fnv(h, tensor.index() as u64);
    match directive {
        MemoryDirective::Recompute => h = fnv(h, 0),
        MemoryDirective::SwapToHost(tier) => {
            h = fnv(h, 1);
            h = fnv(h, u64::from(*tier == HostTier::Nvme));
        }
        MemoryDirective::SwapD2d(stripe) => {
            h = fnv(h, 2);
            h = fnv(h, stripe.one_way_time().to_bits());
            h = fnv(h, stripe.chunks().len() as u64);
            for chunk in stripe.chunks() {
                h = fnv(h, device(chunk.target));
                h = fnv(h, chunk.bytes.as_u64());
            }
        }
    }
    h
}

/// Device slots in [`canon_key`]'s rank table: four times the largest
/// modeled server (DGX-2, 16 GPUs).
const CANON_DEVICES: usize = 64;

/// The directives a trial changes against its incumbent, in ascending
/// tensor order, each tensor once: the new directive, or `None` where
/// the trial drops the incumbent's.
pub(super) type Changes = Vec<(TensorId, Option<MemoryDirective>)>;

/// An incumbent plan's entries from some tensor on, with a trial's
/// [`Changes`] laid over them: the trial plan's entries in tensor order.
pub(super) struct Overlay<'p, I: Iterator> {
    base: std::iter::Peekable<I>,
    changes: &'p [(TensorId, Option<MemoryDirective>)],
}

impl<'p, I> Overlay<'p, I>
where
    I: Iterator<Item = (TensorId, &'p MemoryDirective)>,
{
    pub(super) fn new(base: I, changes: &'p [(TensorId, Option<MemoryDirective>)]) -> Self {
        Overlay {
            base: base.peekable(),
            changes,
        }
    }
}

impl<'p, I> Iterator for Overlay<'p, I>
where
    I: Iterator<Item = (TensorId, &'p MemoryDirective)>,
{
    type Item = (TensorId, &'p MemoryDirective);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let Some(((tensor, directive), rest)) = self.changes.split_first() else {
                return self.base.next();
            };
            match self.base.peek() {
                Some(&(t, _)) if t < *tensor => return self.base.next(),
                Some(&(t, _)) if t == *tensor => {
                    self.base.next();
                }
                _ => {}
            }
            self.changes = rest;
            if let Some(directive) = directive {
                return Some((*tensor, directive));
            }
        }
    }
}

/// The incumbent's [`cache_key`] and [`canon_key`] walks, cached entry
/// by entry so a trial's keys resume them at its first changed tensor
/// instead of digesting the whole plan again.
pub(super) struct Digests {
    /// The incumbent's tensors in plan order.
    tensors: Vec<TensorId>,
    /// `exact[k]`: the exact walk's state before entry `k` (the last
    /// element holds the finished key).
    exact: Vec<u64>,
    /// The canonical walk, or `None` where it is the exact walk (see
    /// [`canon_is_exact`]).
    canon: Option<CanonWalk>,
}

/// [`Digests`]' canonical walk.
struct CanonWalk {
    /// `states[k]`: the walk's state before entry `k`, as `exact`.
    states: Vec<u64>,
    /// The rank table after the device-map prefix.
    ranks: CanonRanks,
    /// The first entry whose stripe targets extend the rank table
    /// (`tensors.len()` when none does): the table is still `ranks`
    /// before it, so the walk resumes at any entry up to it.
    settled: usize,
}

/// Whether [`canon_key`] equals [`cache_key`] on `device_map` for every
/// plan whose stripe targets are among the machine's `gpus` devices
/// (every plan `emit` builds): the map is the identity over all of them,
/// so its prefix ranks each device as its own id and every later target
/// is already ranked.
fn canon_is_exact(device_map: &DeviceMap, gpus: usize) -> bool {
    device_map.len() == gpus
        && gpus <= CANON_DEVICES
        && (0..gpus).all(|stage| device_map.device_of(stage).0 == stage)
}

impl Digests {
    /// The walks of `plan` on a machine of `gpus` devices, without the
    /// canonical one where [`canon_is_exact`].
    pub(super) fn new(plan: &InstrumentationPlan, device_map: &DeviceMap, gpus: usize) -> Self {
        let mut tensors = Vec::with_capacity(plan.len());
        let mut exact = Vec::with_capacity(plan.len() + 1);
        exact.push(digest_map(device_map, &mut |d| d.0 as u64));
        let mut ranks = CanonRanks::default();
        let mut canon = (!canon_is_exact(device_map, gpus)).then(|| {
            let mut states = Vec::with_capacity(plan.len() + 1);
            states.push(digest_map(device_map, &mut |d| ranks.rank(d)));
            CanonWalk {
                states,
                ranks,
                settled: plan.len(),
            }
        });
        for (k, (tensor, directive)) in plan.iter().enumerate() {
            tensors.push(tensor);
            exact.push(digest_entry(exact[k], tensor, directive, &mut |d| {
                d.0 as u64
            }));
            if let Some(walk) = &mut canon {
                let h = walk.states[k];
                walk.states
                    .push(digest_entry(h, tensor, directive, &mut |d| ranks.rank(d)));
                if ranks.next != walk.ranks.next && walk.settled == plan.len() {
                    walk.settled = k;
                }
            }
        }
        Digests {
            tensors,
            exact,
            canon,
        }
    }

    /// `(cache_key, canon_key)` of `plan` (the incumbent these digests
    /// were built from) with `changes` laid over it. The exact walk
    /// resumes before the first changed tensor; so does the canonical
    /// one unless an earlier entry extended its rank table, in which
    /// case it walks from the first entry.
    pub(super) fn keys(
        &self,
        plan: &InstrumentationPlan,
        changes: &[(TensorId, Option<MemoryDirective>)],
    ) -> (u64, u64) {
        let Some(&(first, _)) = changes.first() else {
            let n = self.tensors.len();
            let exact = self.exact[n];
            return (
                exact,
                self.canon.as_ref().map_or(exact, |walk| walk.states[n]),
            );
        };
        let k = self.tensors.partition_point(|&t| t < first);
        let mut exact = self.exact[k];
        let Some(walk) = &self.canon else {
            for (tensor, directive) in Overlay::new(plan.iter().skip(k), changes) {
                exact = digest_entry(exact, tensor, directive, &mut |d| d.0 as u64);
            }
            return (exact, exact);
        };
        let from = if k <= walk.settled { k } else { 0 };
        let (mut canon, mut ranks) = (walk.states[from], walk.ranks);
        for (tensor, directive) in Overlay::new(plan.iter().skip(from), changes) {
            if tensor >= first {
                exact = digest_entry(exact, tensor, directive, &mut |d| d.0 as u64);
            }
            canon = digest_entry(canon, tensor, directive, &mut |d| ranks.rank(d));
        }
        (exact, canon)
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use mpress_compaction::StripePlan;
    use proptest::prelude::*;

    /// A plan with every directive kind over a permuted 4-stage map,
    /// relabeled by `perm` (device `d` becomes `perm[d]`).
    fn canon_fixture(perm: [usize; 4]) -> (InstrumentationPlan, DeviceMap) {
        let dev = |d: usize| DeviceId(perm[d]);
        let stripe = StripePlan::equal(Bytes::mib(64), &[dev(3), dev(0)], 2);
        let mut plan = InstrumentationPlan::new();
        for (t, directive) in [
            (1, MemoryDirective::Recompute),
            (2, MemoryDirective::SwapToHost(HostTier::Nvme)),
            (5, MemoryDirective::SwapD2d(stripe)),
            (
                9,
                MemoryDirective::SwapD2d(StripePlan::single(Bytes::mib(8), dev(1), 1)),
            ),
        ] {
            plan.assign(TensorId(t), directive);
        }
        let map = DeviceMap::from_vec(vec![dev(2), dev(0), dev(1), dev(3)]).unwrap();
        (plan, map)
    }

    #[test]
    fn canon_key_is_pinned_and_invariant_under_device_relabeling() {
        // Pinned digests: the emulation cache keys are part of every
        // search's trajectory (frontier tie-breaks), so they must not move.
        let (plan, map) = canon_fixture([0, 1, 2, 3]);
        assert_eq!(cache_key(&plan, &map), 0x8eb0_ad68_991c_425a);
        assert_eq!(canon_key(&plan, &map), 0xc286_5fa7_c5da_cb6c);
        let (relabeled, relabeled_map) = canon_fixture([3, 0, 1, 2]);
        assert_ne!(
            cache_key(&relabeled, &relabeled_map),
            cache_key(&plan, &map)
        );
        assert_eq!(
            canon_key(&relabeled, &relabeled_map),
            canon_key(&plan, &map)
        );
        // Another stripe target under the same map is not equivalent.
        let moved = StripePlan::single(Bytes::mib(8), DeviceId(2), 1);
        let mut plan_moved = plan.clone();
        plan_moved.assign(TensorId(9), MemoryDirective::SwapD2d(moved));
        assert_ne!(canon_key(&plan_moved, &map), canon_key(&plan, &map));
    }

    /// `plan` with `changes` laid over it, emitted-plan style.
    pub(in crate::planner) fn overlaid(
        plan: &InstrumentationPlan,
        changes: &Changes,
    ) -> InstrumentationPlan {
        Overlay::new(plan.iter(), changes)
            .map(|(t, d)| (t, d.clone()))
            .collect()
    }

    /// FNV-1a over all eight bytes of `v`, one multiplication each.
    fn fnv_bytewise(mut h: u64, v: u64) -> u64 {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    #[test]
    fn fnv_matches_the_bytewise_fold_on_edge_values() {
        for v in [
            0,
            1,
            0xff,
            0x100,
            0x0100_0000_0000_0001,
            0x00ff_0000_ff00_0000,
            1 << 56,
            u64::MAX >> 8,
            u64::MAX,
        ] {
            for h in [FNV_SEED, 0, u64::MAX] {
                assert_eq!(fnv(h, v), fnv_bytewise(h, v), "h {h:#x} v {v:#x}");
            }
        }
    }

    proptest! {
        /// Random values of every byte width, with random bytes
        /// zeroed (interior zeros included), fold as the bytewise loop.
        #[test]
        fn fnv_matches_the_bytewise_fold(
            h in 0u64..u64::MAX,
            raw in 0u64..u64::MAX,
            width in 0u32..65,
            zeroed in 0u64..256,
        ) {
            let mut v = raw.checked_shr(64 - width).unwrap_or(0);
            for byte in 0..8 {
                if zeroed >> byte & 1 == 1 {
                    v &= !(0xff << (8 * byte));
                }
            }
            prop_assert_eq!(fnv(h, v), fnv_bytewise(h, v));
            prop_assert_eq!(fnv(h, raw), fnv_bytewise(h, raw));
        }
    }

    #[test]
    fn digests_resume_to_the_full_walk_keys() {
        // Tensor 7 stripes to a device the map leaves out, so changes
        // past it resume the canonical walk from the first entry; every
        // change before it resumes both walks in place.
        let (mut plan, map) = canon_fixture([0, 1, 2, 3]);
        plan.assign(
            TensorId(7),
            MemoryDirective::SwapD2d(StripePlan::single(Bytes::mib(8), DeviceId(6), 1)),
        );
        let digests = Digests::new(&plan, &map, 8);
        assert_eq!(digests.canon.as_ref().map(|walk| walk.settled), Some(3));
        let unmapped = StripePlan::single(Bytes::mib(8), DeviceId(5), 1);
        for t in 0..12 {
            for directive in [
                None,
                Some(MemoryDirective::Recompute),
                Some(MemoryDirective::SwapD2d(unmapped.clone())),
            ] {
                let changes = vec![(TensorId(t), directive)];
                let trial = overlaid(&plan, &changes);
                assert_eq!(
                    digests.keys(&plan, &changes),
                    (cache_key(&trial, &map), canon_key(&trial, &map)),
                    "change at tensor {t}"
                );
            }
        }
        assert_eq!(
            digests.keys(&plan, &[]),
            (cache_key(&plan, &map), canon_key(&plan, &map))
        );

        // With stripe targets on the machine's four GPUs: on the
        // identity map over all four, both keys are the exact walk's;
        // a permuted map, or an identity map over four of eight GPUs,
        // still walks both.
        let (plan, permuted) = canon_fixture([0, 1, 2, 3]);
        let identity = DeviceMap::identity(4);
        let on_map = StripePlan::single(Bytes::mib(8), DeviceId(2), 1);
        for (map, gpus, exact) in [
            (&identity, 4, true),
            (&identity, 8, false),
            (&permuted, 4, false),
        ] {
            let digests = Digests::new(&plan, map, gpus);
            assert_eq!(digests.canon.is_none(), exact, "{map:?} over {gpus} GPUs");
            for t in 0..12 {
                for directive in [
                    None,
                    Some(MemoryDirective::Recompute),
                    Some(MemoryDirective::SwapD2d(on_map.clone())),
                ] {
                    let changes = vec![(TensorId(t), directive)];
                    let trial = overlaid(&plan, &changes);
                    let keys = (cache_key(&trial, map), canon_key(&trial, map));
                    assert_eq!(digests.keys(&plan, &changes), keys, "change at tensor {t}");
                    if exact {
                        assert_eq!(keys.0, keys.1, "change at tensor {t}");
                    }
                }
            }
            assert_eq!(
                digests.keys(&plan, &[]),
                (cache_key(&plan, map), canon_key(&plan, map))
            );
        }
        // The permuted map's keys differ, so the walk it keeps matters.
        assert_ne!(cache_key(&plan, &permuted), canon_key(&plan, &permuted));
    }

    fn m(oom: bool, makespan: Secs, host_traffic: Bytes) -> Metric {
        Metric {
            oom,
            makespan,
            host_traffic,
        }
    }

    #[test]
    fn metric_prefers_oom_resolution_then_speed() {
        let t = Bytes::gib(1);
        assert!(metric_better(m(false, 10.0, t), m(true, 1.0, t)));
        assert!(!metric_better(m(true, 1.0, t), m(false, 10.0, t)));
        assert!(metric_better(m(false, 1.0, t), m(false, 2.0, t)));
        assert!(!metric_better(m(false, 2.0, t), m(false, 1.0, t)));
        // Sub-0.1% gains are "non-visible": only accepted when they also
        // relieve the PCIe channel.
        assert!(!metric_better(m(false, 0.9999, t), m(false, 1.0, t)));
        assert!(metric_better(
            m(false, 0.9999, Bytes::ZERO),
            m(false, 1.0, t)
        ));
        assert!(!metric_better(m(false, 1.1, Bytes::ZERO), m(false, 1.0, t)));
    }
}
