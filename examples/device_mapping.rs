//! Inspect MPress's device-mapping search (paper §III-C, Fig. 6) on the
//! asymmetric DGX-1 topology.
//!
//! ```text
//! cargo run --release --example device_mapping
//! ```

use mpress::MappingSearch;
use mpress_hw::{Bytes, DeviceId, Machine};
use mpress_sim::DeviceMap;
use std::time::Instant;

fn main() {
    let machine = Machine::dgx1();
    let search = MappingSearch::new(&machine);

    // A typical inter-operator imbalance: the first three stages overflow,
    // the last four donate.
    let overflow: Vec<Bytes> = [12u64, 6, 2, 0, 0, 0, 0, 0]
        .iter()
        .map(|&g| Bytes::gib(g))
        .collect();
    let spare: Vec<Bytes> = [0u64, 0, 0, 2, 6, 8, 10, 14]
        .iter()
        .map(|&g| Bytes::gib(g))
        .collect();

    // Example output timing only; the library itself stays clock-free.
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    let (map, assignment, score) = search.search(&overflow, &spare);
    let elapsed = t0.elapsed();

    println!("topology: {} (asymmetric NVLink)", machine.name());
    println!("searched the 8! stage permutations (one per lane-symmetry class) in {elapsed:?}");
    println!("best map: {map}  (score {score:.2})");
    #[allow(clippy::needless_range_loop)]
    for stage in 0..8 {
        if overflow[stage].is_zero() {
            continue;
        }
        println!(
            "stage {stage} (overflow {}): donors {:?}, {} lanes, {} budget",
            overflow[stage],
            assignment.per_stage[stage]
                .iter()
                .map(|&(d, _, _)| d)
                .collect::<Vec<DeviceId>>(),
            assignment.lanes_of(stage),
            assignment.budget_of(stage),
        );
    }

    // Compare against the naive identity mapping.
    let id = DeviceMap::identity(8);
    let id_assignment = search.assign_spare(&id, &overflow, &spare);
    let id_score = search.score_assignment(&id, &overflow, &id_assignment);
    println!(
        "identity map score {id_score:.2} -> search improves D2D drain by {:.0}%",
        100.0 * (score / id_score - 1.0)
    );
}
