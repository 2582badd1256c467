//! Stage-to-device mapping search (paper §III-C, Fig. 6).
//!
//! Inter-operator training makes early stages memory-hungry and late
//! stages light. On an *asymmetric* fabric (DGX-1) it matters which GPU
//! hosts which stage: a pressured stage wants its spare-memory donors to
//! be NVLink neighbours, ideally over double lanes. The search enumerates
//! stage→device permutations, assigns donor spare memory to reachable
//! exporters, and scores each candidate by the reciprocal of the slowest
//! exporter's D2D drain time — exactly the paper's scoring rule. Two
//! permutations that differ by a lane-preserving relabeling of the GPUs
//! score the same, so the walk scores one per class (DGX-1: 8!/16 =
//! 2,520 of 40,320) and still returns the exhaustive walk's winner.
//!
//! On *symmetric* fabrics (DGX-2/NVSwitch) every mapping is equivalent, so
//! the search degenerates to the identity map (the paper "randomly maps
//! stages to devices" there).

use mpress_hw::{Bytes, DeviceId, Machine, Topology, TopologyKind, NVLINK2_LANE_BW, PCIE3_X16_BW};
use mpress_sim::DeviceMap;
use serde::{Deserialize, Serialize};

/// Donated spare capacity, from one stage's point of view: which peer
/// devices will accept its D2D stripes, over how many lanes, up to how
/// many bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpareAssignment {
    /// `per_stage[stage]` = `(donor device, lanes, byte budget)` entries.
    pub per_stage: Vec<Vec<(DeviceId, u32, Bytes)>>,
}

impl SpareAssignment {
    /// Total byte budget donated to one stage.
    pub fn budget_of(&self, stage: usize) -> Bytes {
        self.per_stage[stage].iter().map(|&(_, _, b)| b).sum()
    }

    /// Total lanes serving one stage.
    pub fn lanes_of(&self, stage: usize) -> u32 {
        self.per_stage[stage].iter().map(|&(_, l, _)| l).sum()
    }
}

/// Searches for the device mapping maximizing D2D drain bandwidth.
#[derive(Debug, Clone)]
pub struct MappingSearch<'a> {
    machine: &'a Machine,
}

impl<'a> MappingSearch<'a> {
    /// Creates a search over `machine`'s topology.
    pub fn new(machine: &'a Machine) -> Self {
        MappingSearch { machine }
    }

    /// Finds the best mapping for per-stage `overflow` (bytes that must
    /// leave each stage) and `spare` (bytes each stage can donate).
    ///
    /// Returns the chosen map, the resulting donor assignment and the
    /// winning score: the first permutation, in the walk's visit order,
    /// with the maximal score. The walk visits one permutation per
    /// orbit of the lane automorphisms (see `permute_orbits`), which
    /// picks the same winner as visiting all n! of them.
    ///
    /// # Panics
    ///
    /// Panics if `overflow` and `spare` lengths differ or exceed the GPU
    /// count.
    pub fn search(&self, overflow: &[Bytes], spare: &[Bytes]) -> (DeviceMap, SpareAssignment, f64) {
        let n = self.stage_count(overflow, spare);
        // On a switched fabric every mapping is equivalent; without
        // overflow every permutation scores infinity, so the first one
        // visited, the identity, wins.
        if self.machine.topology().kind() == TopologyKind::Symmetric
            || overflow.iter().all(|o| o.is_zero())
        {
            return self.identity_choice(overflow, spare);
        }
        let auts = lane_automorphisms(self.machine.topology(), n);
        self.best_permutation(overflow, spare, |perm, visit| {
            permute_orbits(perm, &auts, visit)
        })
    }

    /// [`search`](Self::search) over all n! permutations: the oracle the
    /// orbit walk is tested against.
    #[cfg(test)]
    fn search_exhaustive(
        &self,
        overflow: &[Bytes],
        spare: &[Bytes],
    ) -> (DeviceMap, SpareAssignment, f64) {
        self.stage_count(overflow, spare);
        if self.machine.topology().kind() == TopologyKind::Symmetric {
            return self.identity_choice(overflow, spare);
        }
        self.best_permutation(overflow, spare, |perm, visit| permute(perm, 0, visit))
    }

    fn stage_count(&self, overflow: &[Bytes], spare: &[Bytes]) -> usize {
        assert_eq!(overflow.len(), spare.len(), "per-stage arrays must align");
        assert!(
            overflow.len() <= self.machine.gpu_count(),
            "more stages than GPUs on {}",
            self.machine.name()
        );
        overflow.len()
    }

    fn identity_choice(
        &self,
        overflow: &[Bytes],
        spare: &[Bytes],
    ) -> (DeviceMap, SpareAssignment, f64) {
        let identity = DeviceMap::identity(overflow.len());
        let assignment = self.assign_spare(&identity, overflow, spare);
        let score = self.score_assignment(&identity, overflow, &assignment);
        (identity, assignment, score)
    }

    /// Scores every permutation `walk` visits (its first visit must be
    /// the identity) and keeps the first one with the maximal score.
    fn best_permutation(
        &self,
        overflow: &[Bytes],
        spare: &[Bytes],
        walk: impl FnOnce(&mut [usize], &mut dyn FnMut(&[usize])),
    ) -> (DeviceMap, SpareAssignment, f64) {
        let n = overflow.len();
        let (identity, mut best_assignment, mut best_score) = self.identity_choice(overflow, spare);
        let mut best_perm: Vec<usize> = (0..n).collect();
        // Scoring thousands of permutations dominates planning cost when
        // each candidate materializes a full `SpareAssignment`. Instead,
        // score every visited permutation allocation-free against precomputed
        // device-pair tables (budgets and lane counts are integer sums,
        // so the flat scorer reproduces `score_assignment` exactly) and
        // rebuild the winning assignment once at the end.
        let topo = self.machine.topology();
        let g = self.machine.gpu_count();
        // Transposed pair tables: row = donor device, column = exporter
        // device, so one donor's reachability/lanes sit contiguously.
        // Orientation matches `topo.reachable(exporter, donor)` exactly.
        let mut reach_t = vec![false; g * g];
        let mut lanes_t = vec![0u32; g * g];
        for dd in 0..g {
            for ed in 0..g {
                reach_t[dd * g + ed] = topo.reachable(DeviceId(ed), DeviceId(dd));
                lanes_t[dd * g + ed] = topo.nvlink_lanes(DeviceId(ed), DeviceId(dd));
            }
        }
        let lane_budget = topo.lane_budget();
        // Scoring only visits stages with demand or supply; both lists
        // stay in ascending stage order so the float accumulation order
        // (and thus every rounded share) matches `assign_spare`.
        let exporters: Vec<(usize, f64, Bytes)> = overflow
            .iter()
            .enumerate()
            .filter(|(_, o)| !o.is_zero())
            .map(|(e, &o)| (e, o.as_f64(), o))
            .collect();
        let donors: Vec<(usize, f64)> = spare
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_zero())
            .map(|(d, &s)| (d, s.as_f64()))
            .collect();
        let any = !exporters.is_empty();
        let mut budget = vec![0u64; n];
        let mut lane_sum = vec![0u32; n];
        let mut perm: Vec<usize> = (0..n).collect();
        walk(&mut perm, &mut |p| {
            for &(e, _, _) in &exporters {
                budget[e] = 0;
                lane_sum[e] = 0;
            }
            for &(donor, donor_spare) in &donors {
                let row = p[donor] * g;
                let mut demand_total = 0.0_f64;
                for &(e, of, _) in &exporters {
                    if e != donor && reach_t[row + p[e]] {
                        demand_total += of;
                    }
                }
                if demand_total == 0.0 {
                    continue;
                }
                for &(e, of, _) in &exporters {
                    if e == donor || !reach_t[row + p[e]] {
                        continue;
                    }
                    // `Bytes::scale` verbatim, minus the finite assert.
                    let share = (donor_spare * (of / demand_total)).round() as u64;
                    if share != 0 {
                        budget[e] += share;
                        lane_sum[e] += lanes_t[row + p[e]];
                    }
                }
            }
            let mut worst: f64 = 0.0;
            for &(e, of, demand) in &exporters {
                let served = demand.min(Bytes(budget[e]));
                let stage_lanes = lane_sum[e].min(lane_budget);
                let d2d_bw = f64::from(stage_lanes.max(1)) * NVLINK2_LANE_BW;
                let mut t = served.as_f64() / d2d_bw;
                let unserved = of - served.as_f64();
                t += unserved / PCIE3_X16_BW;
                worst = worst.max(t);
            }
            let score = if any { 1.0 / worst } else { f64::INFINITY };
            if score > best_score {
                best_score = score;
                best_perm.copy_from_slice(p);
            }
        });
        let best_map = DeviceMap::from_vec(best_perm.iter().map(|&d| DeviceId(d)).collect())
            .expect("permutation is bijective");
        if best_map != identity {
            best_assignment = self.assign_spare(&best_map, overflow, spare);
        }
        (best_map, best_assignment, best_score)
    }

    /// Donor-side spare distribution (the paper's `assign_mem`): every
    /// stage with spare memory splits it among NVLink-reachable overflowed
    /// stages, proportionally to their demand.
    pub fn assign_spare(
        &self,
        map: &DeviceMap,
        overflow: &[Bytes],
        spare: &[Bytes],
    ) -> SpareAssignment {
        let n = overflow.len();
        let topo = self.machine.topology();
        let symmetric = topo.kind() == TopologyKind::Symmetric;
        let mut per_stage: Vec<Vec<(DeviceId, u32, Bytes)>> = vec![Vec::new(); n];
        for (donor, &donor_spare) in spare.iter().enumerate() {
            if donor_spare.is_zero() {
                continue;
            }
            let donor_dev = map.device_of(donor);
            let reachable: Vec<usize> = (0..n)
                .filter(|&e| {
                    e != donor
                        && !overflow[e].is_zero()
                        && topo.reachable(map.device_of(e), donor_dev)
                })
                .collect();
            let demand_total: f64 = reachable.iter().map(|&e| overflow[e].as_f64()).sum();
            if demand_total == 0.0 {
                continue;
            }
            for &e in &reachable {
                let share = donor_spare.scale(overflow[e].as_f64() / demand_total);
                if share.is_zero() {
                    continue;
                }
                let lanes = topo.nvlink_lanes(map.device_of(e), donor_dev);
                per_stage[e].push((donor_dev, lanes, share));
            }
        }
        // On a switched fabric the exporter's six-lane egress budget is
        // split across its donors.
        if symmetric {
            for entries in &mut per_stage {
                let k = entries.len() as u32;
                if k == 0 {
                    continue;
                }
                let lanes = (topo.lane_budget() / k).max(1);
                for entry in entries.iter_mut() {
                    entry.1 = lanes;
                }
            }
        }
        per_stage
            .iter_mut()
            .for_each(|v| v.sort_by_key(|&(d, _, _)| d));
        SpareAssignment { per_stage }
    }

    /// The paper's score: the reciprocal of the slowest exporter's drain
    /// time. Overflow that no donor can absorb drains over PCIe instead,
    /// which the score naturally punishes.
    pub fn score_assignment(
        &self,
        _map: &DeviceMap,
        overflow: &[Bytes],
        assignment: &SpareAssignment,
    ) -> f64 {
        let mut worst: f64 = 0.0;
        let mut any = false;
        for (stage, &demand) in overflow.iter().enumerate() {
            if demand.is_zero() {
                continue;
            }
            any = true;
            let budget = assignment.budget_of(stage);
            let served = demand.min(budget);
            let lanes = assignment
                .lanes_of(stage)
                .min(self.machine.topology().lane_budget());
            let d2d_bw = f64::from(lanes.max(1)) * NVLINK2_LANE_BW;
            let mut t = served.as_f64() / d2d_bw;
            let unserved = demand.saturating_sub(budget);
            t += unserved.as_f64() / PCIE3_X16_BW;
            worst = worst.max(t);
        }
        if !any {
            return f64::INFINITY;
        }
        1.0 / worst
    }
}

/// The lane automorphisms of devices `0..n`: every bijection `s` with
/// `lanes(s(a), s(b)) == lanes(a, b)`, found by backtracking, identity
/// first. Reachability is `lanes > 0`, so each one also preserves it,
/// and relabeling a mapping's devices by one leaves its score unchanged
/// bit for bit. DGX-1 at n = 8 has 16.
fn lane_automorphisms(topo: &Topology, n: usize) -> Vec<Vec<usize>> {
    let lanes: Vec<Vec<u32>> = (0..n)
        .map(|a| {
            (0..n)
                .map(|b| topo.nvlink_lanes(DeviceId(a), DeviceId(b)))
                .collect()
        })
        .collect();
    let mut found = Vec::new();
    let mut image = Vec::with_capacity(n);
    extend_automorphism(&lanes, &mut image, &mut found);
    found
}

/// Extends the partial automorphism `image` (`image[j]` = image of
/// device `j`) in every lane-preserving way.
fn extend_automorphism(lanes: &[Vec<u32>], image: &mut Vec<usize>, found: &mut Vec<Vec<usize>>) {
    let k = image.len();
    if k == lanes.len() {
        found.push(image.clone());
        return;
    }
    for d in 0..lanes.len() {
        // The lane matrix is symmetric, so checking one direction of
        // every pair with an already-mapped device suffices.
        if !image.contains(&d) && (0..k).all(|j| lanes[d][image[j]] == lanes[k][j]) {
            image.push(d);
            extend_automorphism(lanes, image, found);
            image.pop();
        }
    }
}

/// Visits one permutation of `items` per orbit of the automorphism
/// group `auts` acting on its values, in the order `permute` visits
/// them. At each level a candidate is skipped when an automorphism that
/// fixes the chosen prefix maps it to a candidate tried earlier at the
/// same level: every permutation below it has an equal-scoring image
/// below that earlier candidate, visited first. So the first permutation
/// with the maximal score is never skipped.
fn permute_orbits(items: &mut [usize], auts: &[Vec<usize>], visit: &mut dyn FnMut(&[usize])) {
    let all: Vec<usize> = (0..auts.len()).collect();
    orbit_level(items, 0, auts, &all, visit);
}

/// One level of [`permute_orbits`]; `stab` indexes the automorphisms
/// that fix `items[..k]` pointwise.
fn orbit_level(
    items: &mut [usize],
    k: usize,
    auts: &[Vec<usize>],
    stab: &[usize],
    visit: &mut dyn FnMut(&[usize]),
) {
    if k == items.len() {
        visit(items);
        return;
    }
    // Values tried at this level; stage counts never reach 64.
    let mut tried = 0u64;
    for i in k..items.len() {
        let v = items[i];
        let skip = stab.iter().any(|&s| tried & (1 << auts[s][v]) != 0);
        tried |= 1 << v;
        if skip {
            continue;
        }
        let fixing: Vec<usize> = stab.iter().copied().filter(|&s| auts[s][v] == v).collect();
        items.swap(k, i);
        orbit_level(items, k + 1, auts, &fixing, visit);
        items.swap(k, i);
    }
}

/// Heap's-style recursive permutation visitor over all n! orderings.
#[cfg(test)]
fn permute(items: &mut [usize], k: usize, visit: &mut dyn FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpress_hw::Machine;

    #[test]
    fn permute_visits_all_orderings() {
        let mut seen = 0;
        let mut v = vec![0, 1, 2, 3];
        permute(&mut v, 0, &mut |_| seen += 1);
        assert_eq!(seen, 24);
    }

    /// SplitMix64, for seeded random test vectors.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Per-stage bytes: zero with probability 1/2, else up to 16 GiB.
    fn random_bytes(state: &mut u64, n: usize) -> Vec<Bytes> {
        (0..n)
            .map(|_| match next(state) % 2 {
                0 => Bytes::ZERO,
                _ => Bytes(1 + next(state) % Bytes::gib(16).as_u64()),
            })
            .collect()
    }

    #[test]
    fn dgx1_has_sixteen_lane_automorphisms_and_2520_orbit_leaves() {
        let machine = Machine::dgx1();
        let auts = lane_automorphisms(machine.topology(), 8);
        assert_eq!(auts.len(), 16);
        assert_eq!(auts[0], (0..8).collect::<Vec<_>>());
        let mut leaves = 0;
        let mut perm: Vec<usize> = (0..8).collect();
        permute_orbits(&mut perm, &auts, &mut |_| leaves += 1);
        assert_eq!(leaves, 40_320 / 16);
        // With only the identity, the orbit walk is the full walk.
        let (mut orbit, mut full) = (Vec::new(), Vec::new());
        let mut perm: Vec<usize> = (0..5).collect();
        permute_orbits(&mut perm, &[(0..5).collect()], &mut |p| {
            orbit.push(p.to_vec())
        });
        permute(&mut perm, 0, &mut |p| full.push(p.to_vec()));
        assert_eq!(orbit, full);
    }

    #[test]
    fn orbit_walk_picks_the_exhaustive_winner() {
        let mut state = 0x5eed_u64;
        let mut non_identity = 0;
        for case in 0..70 {
            let machine = if case % 5 == 4 {
                Machine::dgx2()
            } else {
                Machine::dgx1()
            };
            let n = 2 + case % 7;
            let overflow = random_bytes(&mut state, n);
            let spare = random_bytes(&mut state, n);
            let search = MappingSearch::new(&machine);
            let (map, assignment, score) = search.search(&overflow, &spare);
            let (want_map, want_assignment, want_score) =
                search.search_exhaustive(&overflow, &spare);
            assert_eq!(map, want_map, "case {case}: {overflow:?} / {spare:?}");
            assert_eq!(assignment, want_assignment, "case {case}");
            assert_eq!(score.to_bits(), want_score.to_bits(), "case {case}");
            non_identity += usize::from(map != DeviceMap::identity(n));
        }
        assert!(
            non_identity >= 20,
            "only {non_identity} non-identity winners"
        );
    }

    #[test]
    fn symmetric_topology_skips_search() {
        let machine = Machine::dgx2();
        let search = MappingSearch::new(&machine);
        let overflow = vec![
            Bytes::gib(10),
            Bytes::ZERO,
            Bytes::ZERO,
            Bytes::ZERO,
            Bytes::ZERO,
            Bytes::ZERO,
            Bytes::ZERO,
            Bytes::ZERO,
        ];
        let spare = vec![
            Bytes::ZERO,
            Bytes::gib(4),
            Bytes::gib(4),
            Bytes::gib(4),
            Bytes::gib(4),
            Bytes::gib(4),
            Bytes::gib(4),
            Bytes::gib(4),
        ];
        let (map, assignment, score) = search.search(&overflow, &spare);
        assert_eq!(map, DeviceMap::identity(8));
        // All seven donors reachable; egress lanes split the budget of 6.
        assert_eq!(assignment.per_stage[0].len(), 7);
        assert!(assignment.budget_of(0) >= Bytes::gib(27));
        assert!(score.is_finite() && score > 0.0);
    }

    #[test]
    fn asymmetric_search_beats_worst_mapping() {
        let machine = Machine::dgx1();
        let search = MappingSearch::new(&machine);
        // Stage 0 overflows; stages 4-7 have spare.
        let mut overflow = vec![Bytes::ZERO; 8];
        overflow[0] = Bytes::gib(8);
        let mut spare = vec![Bytes::ZERO; 8];
        spare[4..8].fill(Bytes::gib(8));
        let (best_map, _, best_score) = search.search(&overflow, &spare);
        // Compare against a deliberately bad map that puts the donors out
        // of reach: identity (stage0 on GPU0, donors on GPU4-7; GPU0
        // reaches only GPU4 of those).
        let id = DeviceMap::identity(8);
        let id_assignment = search.assign_spare(&id, &overflow, &spare);
        let id_score = search.score_assignment(&id, &overflow, &id_assignment);
        assert!(
            best_score >= id_score,
            "search ({best_score}) must beat identity ({id_score})"
        );
        assert!(best_map.len() == 8);
    }

    #[test]
    fn no_overflow_scores_infinite() {
        let machine = Machine::dgx1();
        let search = MappingSearch::new(&machine);
        let overflow = vec![Bytes::ZERO; 8];
        let spare = vec![Bytes::gib(1); 8];
        let (_, _, score) = search.search(&overflow, &spare);
        assert!(score.is_infinite());
    }

    #[test]
    fn donors_split_proportionally_to_demand() {
        let machine = Machine::dgx2();
        let search = MappingSearch::new(&machine);
        let mut overflow = vec![Bytes::ZERO; 4];
        overflow[0] = Bytes::gib(6);
        overflow[1] = Bytes::gib(2);
        let mut spare = vec![Bytes::ZERO; 4];
        spare[3] = Bytes::gib(4);
        let map = DeviceMap::identity(4);
        let a = search.assign_spare(&map, &overflow, &spare);
        // Donor 3 splits 4 GiB as 3:1.
        assert_eq!(a.budget_of(0), Bytes::gib(3));
        assert_eq!(a.budget_of(1), Bytes::gib(1));
    }

    #[test]
    fn unservable_overflow_lowers_score() {
        let machine = Machine::dgx1();
        let search = MappingSearch::new(&machine);
        let mut overflow = vec![Bytes::ZERO; 8];
        overflow[0] = Bytes::gib(8);
        let plenty = {
            let mut spare = vec![Bytes::ZERO; 8];
            spare[3] = Bytes::gib(8);
            spare
        };
        let scarce = {
            let mut spare = vec![Bytes::ZERO; 8];
            spare[3] = Bytes::gib(1);
            spare
        };
        let map = DeviceMap::identity(8);
        let a1 = search.assign_spare(&map, &overflow, &plenty);
        let a2 = search.assign_spare(&map, &overflow, &scarce);
        let s1 = search.score_assignment(&map, &overflow, &a1);
        let s2 = search.score_assignment(&map, &overflow, &a2);
        assert!(s1 > s2, "served {s1} vs starved {s2}");
    }
}
