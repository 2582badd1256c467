//! Seeded workload inputs: request lists, menus and the open-loop
//! arrival schedule. Everything here is a pure function of `--seed`, and
//! it is all generated before any timing starts.

use mpress_api::{CompareRequest, PlanRequest, Request};

/// SplitMix64: a small, well-mixed generator with a 64-bit state, so a
/// workload is fully determined by its seed and stream number.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly random permutation of `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// The zoo in catalogue order.
const MODELS: [&str; 10] = [
    "bert-0.35b",
    "bert-0.64b",
    "bert-1.67b",
    "bert-4.0b",
    "bert-6.2b",
    "gpt-5.3b",
    "gpt-10.3b",
    "gpt-15.4b",
    "gpt-20.4b",
    "gpt-25.5b",
];

const MACHINES: [&str; 2] = ["dgx1", "dgx2"];

/// `train-cold`: every zoo model on both servers at paper defaults, in
/// canonical order. A pass visits them in a seeded order.
pub fn train_cold_jobs() -> Vec<PlanRequest> {
    MODELS
        .iter()
        .flat_map(|m| {
            MACHINES
                .iter()
                .map(move |mach| PlanRequest::new(*m).machine(*mach))
        })
        .collect()
}

/// The four cheapest `train-cold` jobs, planned during set-up to warm
/// the process.
pub fn warmup_jobs() -> Vec<PlanRequest> {
    [
        ("bert-0.35b", "dgx1"),
        ("bert-0.35b", "dgx2"),
        ("bert-0.64b", "dgx2"),
        ("gpt-5.3b", "dgx2"),
    ]
    .into_iter()
    .map(|(m, mach)| PlanRequest::new(m).machine(mach))
    .collect()
}

/// Models of the hot menu: three small BERTs, cheap to plan cold.
const MENU_MODELS: [&str; 3] = ["bert-0.35b", "bert-0.64b", "bert-1.67b"];
const MENU_MICROBATCHES: u64 = 8;

/// The hot menu shared by `serve-hot` and `serve-mixed`: one request of
/// each kind per menu model, all on DGX-1 with 8 microbatches.
pub fn serve_menu() -> Vec<Request> {
    MENU_MODELS
        .iter()
        .flat_map(|m| {
            let p = PlanRequest::new(*m).microbatches(MENU_MICROBATCHES);
            [
                Request::Plan(p.clone()),
                Request::Check(p.clone()),
                Request::Train(p),
                Request::Compare(CompareRequest::new(*m).microbatches(MENU_MICROBATCHES)),
            ]
        })
        .collect()
}

/// Cold `plan` requests for `serve-mixed`: model × server × microbatch
/// combinations the hot menu never sends, 48 in all (one run's worth at
/// the default length, so every seed sends the same set). A cold search
/// on them takes roughly 80–300 ms on the reference box, long enough to
/// hold up the hot requests queued behind it.
const COLD_JOBS: [(&str, &str, &[u64]); 9] = [
    (
        "bert-0.64b",
        "dgx1",
        &[10, 11, 12, 13, 14, 16, 18, 20, 22, 24],
    ),
    ("bert-1.67b", "dgx1", &[4, 5, 6, 7, 9, 10, 11, 12, 13, 14]),
    (
        "bert-1.67b",
        "dgx2",
        &[6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 18],
    ),
    ("gpt-5.3b", "dgx1", &[8, 9, 10, 11, 12, 14, 16, 18, 20, 24]),
    ("gpt-10.3b", "dgx1", &[4]),
    ("gpt-10.3b", "dgx2", &[6, 7, 8]),
    ("bert-4.0b", "dgx2", &[4]),
    ("gpt-15.4b", "dgx1", &[4]),
    ("gpt-15.4b", "dgx2", &[4]),
];

pub fn cold_grid() -> Vec<Request> {
    COLD_JOBS
        .iter()
        .flat_map(|(model, machine, microbatches)| {
            microbatches.iter().map(move |mb| {
                Request::Plan(PlanRequest::new(*model).machine(*machine).microbatches(*mb))
            })
        })
        .collect()
}

/// The share of `serve-mixed` arrivals that are cold.
pub const COLD_SHARE: f64 = 0.10;

/// What one arrival sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// Index into [`serve_menu`].
    Hot(usize),
    /// Index into [`MixedSchedule::cold`].
    Cold(usize),
}

/// One open-loop arrival: when it is due (seconds after the start of
/// the timed phase) and what it sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub item: Item,
}

/// The whole `serve-mixed` run, fixed before timing starts.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedSchedule {
    pub arrivals: Vec<Arrival>,
    /// The cold requests, each sent exactly once.
    pub cold: Vec<Request>,
}

/// Seed of the arrival offsets, which are the same for every seed.
const ARRIVAL_SEED: u64 = 0x6172_7269_7661_6c73;
/// The `serve-mixed` stream of a workload seed (streams below it are
/// `train-cold` passes and `serve-hot` clients).
const MIXED_STREAM: u64 = 1000;

/// Arrivals at a fixed rate: `round(rate * seconds)` of them, one in each
/// `1 / rate` slot at an offset within the slot drawn once for all seeds,
/// so gaps vary between 0 and two slots while runs with different seeds
/// differ only in what each arrival carries. Every [`COLD_SHARE`]-th
/// arrival carries a distinct cold request, at most one pass over
/// [`cold_grid`] in seeded order, so cold searches never overlap; the
/// rest walk seeded permutations of the hot menu, so every seed sends
/// each menu entry equally often.
pub fn mixed_schedule(seed: u64, seconds: f64, rate: f64) -> MixedSchedule {
    let n = ((rate * seconds).round() as usize).max(1);
    let mut offsets = Rng::new(ARRIVAL_SEED, 0);
    let mut rng = Rng::new(seed, MIXED_STREAM);
    let grid = cold_grid();
    let every = (1.0 / COLD_SHARE).round() as usize;
    let n_cold = (n / every).min(grid.len());
    let cold: Vec<Request> = rng
        .permutation(grid.len())
        .into_iter()
        .take(n_cold)
        .map(|i| grid[i].clone())
        .collect();
    let menu_len = serve_menu().len();
    let mut hot = std::iter::repeat_with(|| rng.permutation(menu_len)).flatten();
    let arrivals = (0..n)
        .map(|k| {
            let item = match (k % every == every / 2, k / every) {
                (true, c) if c < n_cold => Item::Cold(c),
                _ => Item::Hot(hot.next().expect("the menu repeats forever")),
            };
            Arrival {
                due_s: (k as f64 + offsets.unit()) / rate,
                item,
            }
        })
        .collect();
    MixedSchedule { arrivals, cold }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpress_api::encode_request_line;

    #[test]
    fn equal_seeds_give_identical_schedules() {
        assert_eq!(mixed_schedule(7, 30.0, 16.0), mixed_schedule(7, 30.0, 16.0));
        assert_eq!(
            Rng::new(7, 1).permutation(20),
            Rng::new(7, 1).permutation(20)
        );
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = mixed_schedule(1, 30.0, 16.0);
        let b = mixed_schedule(2, 30.0, 16.0);
        assert_ne!(a, b);
        assert_ne!(
            Rng::new(1, 1).permutation(20),
            Rng::new(2, 1).permutation(20)
        );
    }

    #[test]
    fn schedule_shape_is_seed_independent() {
        for seed in 0..5 {
            let s = mixed_schedule(seed, 30.0, 16.0);
            assert_eq!(s.arrivals.len(), 480);
            assert!(s.arrivals.windows(2).all(|w| w[0].due_s <= w[1].due_s));
            assert!(s.arrivals.iter().all(|a| (0.0..30.0).contains(&a.due_s)));
            // Cold arrivals are spread evenly: never two in a row.
            assert!(s
                .arrivals
                .windows(2)
                .all(|w| { !matches!((w[0].item, w[1].item), (Item::Cold(_), Item::Cold(_))) }));
            // Every cold request is sent exactly once and never repeats.
            let cold: Vec<usize> = s
                .arrivals
                .iter()
                .filter_map(|a| match a.item {
                    Item::Cold(i) => Some(i),
                    Item::Hot(_) => None,
                })
                .collect();
            assert_eq!(cold, (0..48).collect::<Vec<_>>());
            let mut lines: Vec<String> = s.cold.iter().map(|r| encode_request_line(0, r)).collect();
            lines.sort();
            lines.dedup();
            assert_eq!(lines.len(), 48);
            // Each menu entry is sent equally often, give or take one.
            let mut counts = vec![0; serve_menu().len()];
            for a in &s.arrivals {
                if let Item::Hot(i) = a.item {
                    counts[i] += 1;
                }
            }
            let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(hi - lo <= 1, "{counts:?}");
        }
    }

    #[test]
    fn cold_requests_never_hit_the_menu() {
        let menu: Vec<String> = serve_menu()
            .iter()
            .map(|r| encode_request_line(0, r))
            .collect();
        for r in cold_grid() {
            assert!(!menu.contains(&encode_request_line(0, &r)));
        }
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = Rng::new(3, 0).permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }
}
