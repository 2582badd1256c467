//! Deterministic std-only parallel execution layer.
//!
//! MPress's planner is an emulator-in-the-loop search over a small
//! portfolio of independent variant searches, and the paper's evaluation
//! is a large (model × machine × system) grid — both are embarrassingly
//! parallel across variants/cells. The public surface is [`par_map`] /
//! [`par_run`]: a scoped fan-out where the caller works as lane 0,
//! `width - 1` scoped threads work as lanes `1..width`, and every lane
//! claims the next index of `0..n` from one shared counter until the
//! batch is done. Results come back **in input order**, so callers'
//! tie-breaks and table layouts never depend on thread timing.
//!
//! # Determinism contract
//!
//! * `par_run` results are placed by input index; the output `Vec` is
//!   identical to what the serial loop would produce.
//! * The worker count changes only *when* work runs, never *what* is
//!   returned: `jobs=1` and `jobs=N` are byte-identical as long as the
//!   mapped closure is a pure function of its input.
//! * A panic in any task, on any lane, propagates out of `par_run` with
//!   its original payload once every lane has stopped.
//!
//! # Choosing the worker count
//!
//! Resolution order: [`set_jobs`] override (used by `--jobs`), the
//! `MPRESS_JOBS` environment variable, then
//! `std::thread::available_parallelism()`. Requests wider than the
//! machine are clamped unless [`set_pool_unclamped`] allows
//! oversubscription — stress tests use that to exercise real
//! multi-lane interleavings on small containers.
//!
//! Batches smaller than [`SERIAL_CUTOFF`] run inline on the caller.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide override installed by `--jobs` (0 = no override).
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Busy/peak worker accounting packed into **one** atomic word: the low
/// 32 bits count currently busy workers, the high 32 bits the peak. A
/// single compare-exchange updates both together, so the peak can never
/// under-report — the old split `BUSY_WORKERS`/`PEAK_WORKERS` pair had
/// a window between the busy increment and the peak `fetch_max` where
/// a concurrent decrement could hide the true high-water mark.
static ACTIVE: AtomicU64 = AtomicU64::new(0);

/// Allows worker counts wider than the detected hardware parallelism.
static UNCLAMPED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// The lane this thread runs as inside a parallel section (0 = the
    /// `par_run` caller), or `None` outside one. Nested parallel
    /// sections on a lane run serially instead of multiplying the
    /// thread count.
    static LANE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Nesting depth of busy sections on this thread. Only the
    /// outermost enter/exit touches [`ACTIVE`], so a serial parallel
    /// section running inside another (a portfolio variant's whole
    /// planner search under the portfolio `par_map`, say) still counts
    /// as the single OS thread it is — `peak_workers` reports peak
    /// *concurrency*, not peak section depth.
    static BUSY_DEPTH: Cell<usize> = const { Cell::new(0) };
}

fn busy_enter() {
    let depth = BUSY_DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    if depth > 0 {
        return; // re-entrant on this thread; already counted
    }
    let mut cur = ACTIVE.load(Ordering::Relaxed);
    loop {
        let busy = (cur & 0xffff_ffff) + 1;
        let peak = (cur >> 32).max(busy);
        match ACTIVE.compare_exchange_weak(
            cur,
            (peak << 32) | busy,
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

fn busy_exit() {
    let depth = BUSY_DEPTH.with(|d| {
        let v = d.get() - 1;
        d.set(v);
        v
    });
    if depth > 0 {
        return; // inner section; the outermost exit decrements
    }
    // The low 32 bits are >= 1 whenever a matching `busy_enter` is
    // outstanding, so the subtraction never borrows into the peak half.
    ACTIVE.fetch_sub(1, Ordering::AcqRel);
}

/// Counts the current thread busy until dropped, unwinding included.
struct Busy;

impl Busy {
    fn enter() -> Busy {
        busy_enter();
        Busy
    }
}

impl Drop for Busy {
    fn drop(&mut self) {
        busy_exit();
    }
}

/// Peak number of lanes observed busy at the same instant.
pub fn peak_workers() -> usize {
    (ACTIVE.load(Ordering::Relaxed) >> 32) as usize
}

/// Installs a process-wide worker-count override; `0` clears it and
/// returns resolution to `MPRESS_JOBS` / detected parallelism.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count parallel sections will use.
pub fn jobs() -> usize {
    let explicit = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(var) = std::env::var("MPRESS_JOBS") {
        if let Ok(n) = var.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    hardware_threads().unwrap_or(1)
}

/// The detected hardware thread count (`None` when undetectable),
/// resolved once per process: `available_parallelism` reads cgroup
/// files on every call, and every parallel section and planner stats
/// snapshot resolves a width. The [`set_jobs`] override and
/// `MPRESS_JOBS` stay live.
fn hardware_threads() -> Option<usize> {
    static THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().ok().map(|n| n.get()))
}

/// Batches below this size always run inline: the planner's feasibility
/// iterations emit 1-2 candidates each, and spawning lanes for
/// them costs more than the emulations themselves (the jobs=8 plan
/// wall measurably exceeded jobs=1 before this cutoff).
pub const SERIAL_CUTOFF: usize = 3;

/// Allows (`true`) or re-forbids (`false`) worker counts wider than the
/// detected hardware parallelism. Oversubscribing CPU-bound pure tasks
/// normally only adds spawn and context-switch cost, so the clamp is
/// the default; stress tests lift it to exercise real multi-worker
/// interleavings (concurrent portfolio variants) on small
/// machines. Results are identical at any width; only wall-clock and
/// the peak-worker counter move.
pub fn set_pool_unclamped(on: bool) {
    UNCLAMPED.store(on, Ordering::Relaxed);
}

/// The width a new parallel section resolves to *right now*: [`jobs`],
/// clamped to the hardware thread count unless [`set_pool_unclamped`],
/// and forced to 1 on every lane of a running parallel section so nested
/// sections never multiply the thread count (a portfolio variant
/// planned inside a `par_map` task searches serially).
pub fn pool_width() -> usize {
    if current_lane().is_some() {
        return 1;
    }
    let requested = jobs().max(1);
    if UNCLAMPED.load(Ordering::Relaxed) {
        return requested;
    }
    requested
        .min(hardware_threads().unwrap_or(usize::MAX))
        .max(1)
}

/// The lane the current thread runs as: `Some(0)` on the thread
/// running a parallel section's `par_run` call, `Some(1..)` on its
/// scoped worker threads, `None` outside any parallel section.
fn current_lane() -> Option<usize> {
    LANE.with(Cell::get)
}

/// Marks the current thread as busy lane `lane` until dropped and then
/// restores its previous lane, on return or unwind alike.
struct LaneGuard {
    prev_lane: Option<usize>,
    _busy: Busy,
}

impl LaneGuard {
    fn enter(lane: usize) -> Self {
        LaneGuard {
            prev_lane: LANE.with(|l| l.replace(Some(lane))),
            _busy: Busy::enter(),
        }
    }
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        LANE.with(|l| l.set(self.prev_lane));
    }
}

/// Runs `f(0..n)` across [`pool_width`] lanes and returns the results
/// in index order. Serial when the resolved width is 1 or `n` is below the
/// serial cutoff; panics in `f` propagate to the caller either way.
///
/// The caller works as lane 0 beside `width - 1` scoped threads, and
/// each lane claims the next unclaimed index from one shared counter,
/// so an uneven batch (one slow emulation among cheap ones) never idles
/// the other lanes. A panicking task exhausts the counter, so no lane
/// claims further work; the caller joins every thread and re-raises the
/// first payload (its own lane's, else the lowest panicking worker's).
pub fn par_run<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let width = if n < SERIAL_CUTOFF {
        1
    } else {
        pool_width().min(n)
    };
    if width == 1 {
        let _busy = Busy::enter();
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let lane = |id: usize| {
        let _lane = LaneGuard::enter(id);
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            match panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(out) => done.push((i, out)),
                Err(payload) => {
                    next.store(n, Ordering::Relaxed);
                    panic::resume_unwind(payload);
                }
            }
        }
    };
    // Join each worker explicitly: the scope's implicit join would
    // replace a worker's panic payload with a generic message.
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let lane = &lane;
        let workers: Vec<_> = (1..width).map(|id| scope.spawn(move || lane(id))).collect();
        let lead = panic::catch_unwind(AssertUnwindSafe(|| lane(0)));
        std::iter::once(lead)
            .chain(workers.into_iter().map(|w| w.join()))
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for outcome in outcomes {
        for (i, out) in outcome.unwrap_or_else(|payload| panic::resume_unwind(payload)) {
            slots[i] = Some(out);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index ran once"))
        .collect()
}

/// Maps `f` over `items` in parallel, preserving input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_run(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::{Mutex, MutexGuard};
    use std::time::Duration;

    /// Tests below mutate process-global knobs (`set_jobs`, the peak
    /// counter, the clamp); serialize them so `cargo test`'s parallel
    /// harness cannot interleave their windows.
    fn guard() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().expect("test guard poisoned")
    }

    /// Runs `f` on a fresh thread and returns its outcome (`Err` holds a
    /// literal panic message), failing the test if `f` is still running
    /// after `secs` seconds — a hang becomes a failure, not a stuck run.
    fn within<T: Send + 'static>(
        secs: u64,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Result<T, Option<&'static str>> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let out = panic::catch_unwind(AssertUnwindSafe(f));
            let _ = tx.send(out.map_err(|p| p.downcast_ref::<&'static str>().copied()));
        });
        let out = rx.recv_timeout(Duration::from_secs(secs));
        out.expect("parallel section hung")
    }

    #[test]
    fn results_come_back_in_input_order() {
        let _g = guard();
        set_jobs(4);
        let out = par_map(&(0..100).collect::<Vec<_>>(), |&x| x * 3);
        set_jobs(0);
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let _g = guard();
        let items: Vec<u64> = (0..64).collect();
        set_jobs(1);
        let serial = par_map(&items, |&x| x.wrapping_mul(0x9E3779B9).rotate_left(7));
        set_jobs(4);
        let parallel = par_map(&items, |&x| x.wrapping_mul(0x9E3779B9).rotate_left(7));
        set_jobs(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let _g = guard();
        let out: Vec<u32> = par_map(&[] as &[u32], |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn tiny_batches_run_inline() {
        let _g = guard();
        // Below the cutoff no worker threads spawn regardless of the
        // configured pool width — every task runs on the caller.
        set_jobs(8);
        let caller = std::thread::current().id();
        let ids = par_run(SERIAL_CUTOFF - 1, |_| std::thread::current().id());
        set_jobs(0);
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn stats_track_peak_workers() {
        let _g = guard();
        ACTIVE.store(0, Ordering::Relaxed);
        set_jobs(2);
        let _ = par_run(10, |i| i);
        set_jobs(0);
        assert!(peak_workers() >= 1);
        // Every lane left its busy section: only the peak half remains.
        assert_eq!(ACTIVE.load(Ordering::Relaxed) & 0xffff_ffff, 0);
    }

    #[test]
    fn two_lane_batches_never_hang() {
        let _g = guard();
        // Two lanes over four tasks race on the shared counter and
        // finish at nearly the same instant, batch after batch. A lane
        // that missed the end of a batch, or a join that waited on a
        // lane with nothing left to claim, would hang; the watchdog
        // turns that hang into a failure.
        const BATCHES: usize = 50_000;
        set_jobs(2);
        set_pool_unclamped(true);
        let finished = within(60, || {
            for _ in 0..BATCHES {
                assert_eq!(par_run(4, |i| i), [0, 1, 2, 3]);
            }
        });
        set_pool_unclamped(false);
        set_jobs(0);
        assert_eq!(finished, Ok(()), "par_run did not finish {BATCHES} batches");
    }

    #[test]
    fn peak_tracks_provably_concurrent_workers_exactly() {
        let _g = guard();
        // Stress the packed busy/peak word: four lanes rendezvous on a
        // barrier *inside* their tasks, so all four are provably busy at
        // the same instant and the peak must report exactly 4 — the old
        // split-atomic scheme could under-report under contention.
        const WIDTH: usize = 4;
        ACTIVE.store(0, Ordering::Relaxed);
        set_jobs(WIDTH);
        set_pool_unclamped(true);
        let barrier = std::sync::Barrier::new(WIDTH);
        let _ = par_run(WIDTH, |_| {
            barrier.wait();
        });
        set_pool_unclamped(false);
        set_jobs(0);
        assert_eq!(peak_workers(), WIDTH);
    }

    #[test]
    fn nested_sections_stay_serial_on_every_lane() {
        let _g = guard();
        // Each of the four lanes, the caller's lane 0 included, runs
        // exactly one task (the barrier holds every lane in its first),
        // and a parallel section opened inside any of them resolves to
        // width 1.
        const WIDTH: usize = 4;
        set_jobs(WIDTH);
        set_pool_unclamped(true);
        let barrier = std::sync::Barrier::new(WIDTH);
        let mut seen = par_run(WIDTH, |_| {
            barrier.wait();
            (current_lane(), pool_width())
        });
        let outside = pool_width();
        set_pool_unclamped(false);
        set_jobs(0);
        seen.sort();
        assert_eq!(
            seen,
            [(Some(0), 1), (Some(1), 1), (Some(2), 1), (Some(3), 1)]
        );
        assert_eq!((outside, current_lane()), (WIDTH, None), "caller restored");
    }

    #[test]
    fn lane_zero_task_panic_propagates_from_par_run() {
        let _g = guard();
        // Worker lanes hold their first task until lane 0 has started
        // one, so lane 0 runs a task (from its own deque) and panics in
        // it; the workers must then be released and the panic surface.
        set_jobs(4);
        set_pool_unclamped(true);
        let out = within(10, || {
            let lane0_started = AtomicBool::new(false);
            par_run(8, |i| {
                if current_lane() == Some(0) {
                    lane0_started.store(true, Ordering::Relaxed);
                    panic!("lane 0 task panicked");
                }
                while !lane0_started.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                i
            })
        });
        set_pool_unclamped(false);
        set_jobs(0);
        assert_eq!(out, Err(Some("lane 0 task panicked")));
    }

    #[test]
    fn worker_panic_propagates_from_par_run() {
        let _g = guard();
        // Lane 0 keeps working until a worker lane has panicked, so the
        // panic happens while the lead is still inside the scope; it
        // must surface from `par_run` instead of being lost.
        set_jobs(2);
        set_pool_unclamped(true);
        let out = within(10, || {
            let worker_started = AtomicBool::new(false);
            par_run(8, |i| {
                if current_lane() != Some(0) {
                    worker_started.store(true, Ordering::Relaxed);
                    panic!("worker panicked");
                }
                while !worker_started.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                i
            })
        });
        set_pool_unclamped(false);
        set_jobs(0);
        assert_eq!(out, Err(Some("worker panicked")));
    }

    #[test]
    fn a_slow_task_never_holds_back_the_rest_of_the_batch() {
        let _g = guard();
        // Whichever lane claims index 0 waits in it until the other 99
        // tasks have run, so the other lane must keep claiming work
        // while the first is busy; a batch dealt up front would leave
        // half of it stranded behind the slow task.
        const N: usize = 100;
        set_jobs(2);
        set_pool_unclamped(true);
        let out = within(10, || {
            let done = AtomicUsize::new(0);
            par_run(N, |i| {
                if i == 0 {
                    while done.load(Ordering::Relaxed) < N - 1 {
                        std::thread::yield_now();
                    }
                }
                done.fetch_add(1, Ordering::Relaxed);
                i
            })
        });
        set_pool_unclamped(false);
        set_jobs(0);
        assert_eq!(out, Ok((0..N).collect::<Vec<_>>()));
    }
}
