//! Deterministic std-only parallel execution layer.
//!
//! MPress's planner is an emulator-in-the-loop search and the paper's
//! evaluation is a large (model × machine × system) grid — both are
//! embarrassingly parallel across candidates/cells. This crate provides
//! two primitives:
//!
//! * [`par_map`]/[`par_run`] — a fan-out over `std::thread::scope` with
//!   per-worker index deques and work stealing that returns results
//!   **in input order**, so callers' tie-breaks and table layouts never
//!   depend on thread timing.
//! * [`Pool`] — a persistent scoped worker pool for search loops: the
//!   caller keeps pushing `u64` task digests into per-worker deques
//!   while workers drain them (stealing from each other when their own
//!   deque runs dry) and park on an epoch condvar between bursts. One
//!   `Pool::scope` spans an entire search, so refinement no longer pays
//!   a thread spawn per candidate round.
//!
//! # Determinism contract
//!
//! * `par_run` results are placed by input index; the output `Vec` is
//!   identical to what the serial loop would produce (worker panics
//!   propagate).
//! * The worker count changes only *when* work runs, never *what* is
//!   returned: `jobs=1` and `jobs=N` are byte-identical as long as the
//!   mapped closure is a pure function of its input.
//! * A [`Pool`] carries opaque task digests, not results — the *caller*
//!   decides what each completion means, which is how the planner keeps
//!   its frontier adjudication order independent of completion order.
//!
//! # Choosing the worker count
//!
//! Resolution order: [`set_jobs`] override (used by `--jobs`), the
//! `MPRESS_JOBS` environment variable, then
//! `std::thread::available_parallelism()`. Requests wider than the
//! machine are clamped unless [`set_pool_unclamped`] (or
//! `MPRESS_POOL_UNCLAMPED=1`) allows oversubscription — benches use
//! that to exercise stealing on small containers.
//!
//! Batches smaller than [`SERIAL_CUTOFF`] run inline on the caller.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Process-wide override installed by `--jobs` (0 = no override).
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cumulative tasks executed through the pool (serial path included).
static TASKS_RUN: AtomicU64 = AtomicU64::new(0);

/// Busy/peak worker accounting packed into **one** atomic word: the low
/// 32 bits count currently busy workers, the high 32 bits the peak. A
/// single compare-exchange updates both together, so the peak can never
/// under-report — the old split `BUSY_WORKERS`/`PEAK_WORKERS` pair had
/// a window between the busy increment and the peak `fetch_max` where
/// a concurrent decrement could hide the true high-water mark.
static ACTIVE: AtomicU64 = AtomicU64::new(0);

/// Cumulative deque steals (tasks taken from another lane's deque).
static STEALS: AtomicU64 = AtomicU64::new(0);

/// Allows worker counts wider than the detected hardware parallelism.
static UNCLAMPED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// The pool lane this thread runs as (0 = the scope's caller), or
    /// `None` outside any parallel section. Consumers (the simulator's
    /// arena pool) use it to give each lane a warm arena.
    static LANE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set on pool worker threads so nested parallel sections run
    /// serially instead of multiplying the thread count.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Nesting depth of busy sections on this thread. Only the
    /// outermost enter/exit touches [`ACTIVE`], so a serial parallel
    /// section running inside another (a portfolio variant's whole
    /// planner search under the portfolio `par_map`, say) still counts
    /// as the single OS thread it is — `peak_workers` reports peak
    /// *concurrency*, not peak section depth.
    static BUSY_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Mutex lock that treats poisoning as the fatal caller panic it
/// reflects (workers run caller closures; their panics propagate).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("mpress-par lock poisoned")
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

/// Snapshot of pool activity counters, for Insights/report output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed through `par_map`/`par_run` since the last reset.
    pub tasks: u64,
    /// Peak number of workers observed busy at the same instant.
    pub peak_workers: usize,
    /// Tasks taken from another lane's deque (work stealing), across
    /// `par_run` and [`Pool`] scopes since the last reset.
    pub steals: u64,
}

/// Current cumulative pool statistics.
pub fn stats() -> PoolStats {
    let packed = ACTIVE.load(Ordering::Relaxed);
    PoolStats {
        tasks: TASKS_RUN.load(Ordering::Relaxed),
        peak_workers: (packed >> 32) as usize,
        steals: STEALS.load(Ordering::Relaxed),
    }
}

/// Resets the cumulative pool statistics (used by benches between
/// runs). Must not race with live parallel sections — the busy half of
/// the packed counter is cleared too.
pub fn reset_stats() {
    TASKS_RUN.store(0, Ordering::Relaxed);
    ACTIVE.store(0, Ordering::Relaxed);
    STEALS.store(0, Ordering::Relaxed);
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
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Batches below this size always run inline: the planner's feasibility
/// iterations emit 1-2 candidates each, and spawning scoped threads for
/// them costs more than the emulations themselves (the jobs=8 plan
/// wall measurably exceeded jobs=1 before this cutoff).
pub const SERIAL_CUTOFF: usize = 3;

/// Allows (`true`) or re-forbids (`false`) worker counts wider than the
/// detected hardware parallelism. Oversubscribing CPU-bound pure tasks
/// normally only adds spawn and context-switch cost, so the clamp is
/// the default; the scaling bench and stress tests lift it to exercise
/// real multi-worker interleavings (stealing, speculative completion
/// order) on small containers. `MPRESS_POOL_UNCLAMPED=1` is the env
/// equivalent. Results are identical at any width; only wall-clock and
/// the steal/peak counters move.
pub fn set_pool_unclamped(on: bool) {
    UNCLAMPED.store(on, Ordering::Relaxed);
}

fn unclamped() -> bool {
    if UNCLAMPED.load(Ordering::Relaxed) {
        return true;
    }
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        matches!(
            std::env::var("MPRESS_POOL_UNCLAMPED").as_deref(),
            Ok("1") | Ok("true") | Ok("on")
        )
    })
}

/// The width a new parallel section resolves to *right now*: [`jobs`],
/// clamped to the hardware thread count unless [`set_pool_unclamped`],
/// and forced to 1 on pool worker threads so nested sections never
/// multiply the thread count (a portfolio variant planned inside a
/// `par_map` worker searches serially).
pub fn pool_width() -> usize {
    if IN_POOL.with(Cell::get) {
        return 1;
    }
    let requested = jobs().max(1);
    if unclamped() {
        return requested;
    }
    let hw = std::thread::available_parallelism().map_or(usize::MAX, |n| n.get());
    requested.min(hw).max(1)
}

/// The pool lane the current thread runs as: `Some(0)` on a
/// [`Pool::scope`] caller, `Some(1..)` on worker threads, `None`
/// outside any parallel section. Lane identity is stable for the whole
/// scope, so per-lane caches (the simulator's warm arenas) stay warm
/// across tasks.
pub fn current_lane() -> Option<usize> {
    LANE.with(Cell::get)
}

fn with_lane<R>(lane: usize, f: impl FnOnce() -> R) -> R {
    let prev = LANE.with(|l| l.replace(Some(lane)));
    busy_enter();
    let out = f();
    busy_exit();
    LANE.with(|l| l.set(prev));
    out
}

/// Runs `f(0..n)` across the pool and returns the results in index
/// order. Serial when the resolved width is 1 or `n` is below the
/// serial cutoff; panics in `f` propagate to the caller either way.
///
/// Indices are dealt round-robin into per-worker deques; a worker that
/// drains its own deque steals from the back of its neighbors', so an
/// uneven batch (one slow emulation among cheap ones) no longer idles
/// the rest of the pool.
pub fn par_run<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    TASKS_RUN.fetch_add(n as u64, Ordering::Relaxed);
    let workers = if n < SERIAL_CUTOFF {
        1
    } else {
        pool_width().min(n).max(1)
    };
    if workers == 1 {
        busy_enter();
        let out = (0..n).map(f).collect();
        busy_exit();
        return out;
    }

    // Deal indices round-robin: deque `w` holds `w, w+workers, ...` in
    // ascending order; owners pop the front, thieves the back.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..n).step_by(workers).collect()))
        .collect();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let deques = &deques;
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    IN_POOL.with(|p| p.set(true));
                    LANE.with(|l| l.set(Some(w + 1)));
                    let mut produced: Vec<(usize, R)> = Vec::new();
                    loop {
                        // Pop in its own statement: the guard must drop
                        // before a steal locks a neighbour's deque, or two
                        // idle workers deadlock on each other's locks.
                        let own = lock(&deques[w]).pop_front();
                        let task = own.or_else(|| {
                            (1..workers).find_map(|k| {
                                let stolen = lock(&deques[(w + k) % workers]).pop_back();
                                if stolen.is_some() {
                                    STEALS.fetch_add(1, Ordering::Relaxed);
                                }
                                stolen
                            })
                        });
                        let Some(i) = task else { break };
                        busy_enter();
                        produced.push((i, f(i)));
                        busy_exit();
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            // Re-raise worker panics on the calling thread.
            for (i, r) in handle.join().expect("pool worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index produced exactly once"))
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

/// A persistent scoped worker pool carrying opaque `u64` task digests.
///
/// Built for search loops where the task set is *discovered during* the
/// scope: the caller (lane 0) pushes digests as the frontier unfolds,
/// workers (lanes `1..width`) drain them — own deque front first, then
/// stealing from the back of other lanes — and everyone parks on an
/// epoch condvar when idle. Because tasks are data rather than
/// closures, the worker body is a single caller-supplied closure that
/// borrows state declared *before* [`Pool::scope`], which keeps the
/// whole crate `forbid(unsafe_code)`-clean.
///
/// The pool makes no ordering promises about *completion*; callers that
/// need determinism adjudicate results in an order of their own (the
/// planner uses its frontier order). See DESIGN.md §13.
pub struct Pool {
    width: usize,
    deques: Vec<Mutex<VecDeque<u64>>>,
    rr: AtomicUsize,
    epoch: Mutex<u64>,
    cv: Condvar,
    shutdown: AtomicBool,
    steals: AtomicU64,
}

impl Pool {
    /// Runs `lead` on the calling thread (lane 0) with `width - 1`
    /// worker threads (lanes `1..width`) executing `worker(pool, lane)`
    /// alongside it. When `lead` returns, the pool flags shutdown and
    /// wakes every parked worker; `worker` bodies are expected to exit
    /// their loop once [`Pool::shutdown_requested`] turns true and
    /// [`Pool::next_task`] runs dry. Worker panics propagate when the
    /// scope joins. `width <= 1` runs `lead` inline with no threads.
    pub fn scope<R, W, L>(width: usize, worker: W, lead: L) -> R
    where
        W: Fn(&Pool, usize) + Sync,
        L: FnOnce(&Pool) -> R,
    {
        let width = width.max(1);
        let pool = Pool {
            width,
            deques: (0..width).map(|_| Mutex::new(VecDeque::new())).collect(),
            rr: AtomicUsize::new(0),
            epoch: Mutex::new(0),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            steals: AtomicU64::new(0),
        };
        if width == 1 {
            pool.shutdown.store(true, Ordering::Relaxed);
            return with_lane(0, || lead(&pool));
        }
        std::thread::scope(|scope| {
            let pool = &pool;
            let worker = &worker;
            for lane in 1..width {
                scope.spawn(move || {
                    IN_POOL.with(|p| p.set(true));
                    LANE.with(|l| l.set(Some(lane)));
                    busy_enter();
                    worker(pool, lane);
                    busy_exit();
                });
            }
            let out = with_lane(0, || lead(pool));
            pool.finish();
            out
        })
    }

    /// The scope's total lane count (lead included).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Enqueues one task digest (round-robin across lanes) and wakes
    /// parked lanes.
    pub fn push(&self, task: u64) {
        let lane = self.rr.fetch_add(1, Ordering::Relaxed) % self.width;
        lock(&self.deques[lane]).push_back(task);
        self.notify();
    }

    /// Pops the next task for `lane`: its own deque's front first, then
    /// the back of the other lanes' deques (a steal, counted). `None`
    /// means every deque is empty *at this instant* — park with
    /// [`Pool::wait_epoch`] or exit if [`Pool::shutdown_requested`].
    pub fn next_task(&self, lane: usize) -> Option<u64> {
        if let Some(task) = lock(&self.deques[lane]).pop_front() {
            return Some(task);
        }
        (1..self.width).find_map(|k| {
            let stolen = lock(&self.deques[(lane + k) % self.width]).pop_back();
            if stolen.is_some() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                STEALS.fetch_add(1, Ordering::Relaxed);
            }
            stolen
        })
    }

    /// The current wake epoch. Snapshot it *before* checking for work:
    /// `wait_epoch` returns immediately if any notification landed
    /// after the snapshot, so the check-then-park pattern never misses
    /// a wakeup.
    pub fn epoch(&self) -> u64 {
        *lock(&self.epoch)
    }

    /// Parks until the epoch advances past `seen` or shutdown is
    /// flagged. The parked lane is not counted busy, so `peak_workers`
    /// reflects genuinely concurrent work.
    pub fn wait_epoch(&self, seen: u64) {
        busy_exit();
        let mut epoch = lock(&self.epoch);
        while *epoch == seen && !self.shutdown.load(Ordering::Relaxed) {
            epoch = self.cv.wait(epoch).expect("mpress-par lock poisoned");
        }
        drop(epoch);
        busy_enter();
    }

    /// Advances the epoch and wakes every parked lane. Called by `push`
    /// automatically; call it directly after publishing results some
    /// other lane may be waiting on.
    pub fn notify(&self) {
        *lock(&self.epoch) += 1;
        self.cv.notify_all();
    }

    /// True once the lead closure has returned (or `width == 1`).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Tasks this pool's lanes stole from each other's deques.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    fn finish(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests below mutate process-global knobs (`set_jobs`, the stats
    /// counters, the clamp); serialize them so `cargo test`'s parallel
    /// harness cannot interleave their windows.
    fn guard() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        lock(&GUARD)
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
    fn stats_track_tasks() {
        let _g = guard();
        reset_stats();
        set_jobs(2);
        let _ = par_run(10, |i| i);
        set_jobs(0);
        let s = stats();
        assert_eq!(s.tasks, 10);
        assert!(s.peak_workers >= 1);
    }

    #[test]
    fn stealing_workers_never_deadlock() {
        let _g = guard();
        // Two workers over four tasks drain their own deques and then
        // steal from each other at nearly the same instant. A worker
        // that still held its own deque lock while locking its
        // neighbour's would deadlock ABBA within a few thousand batches;
        // the watchdog turns that hang into a failure.
        const BATCHES: usize = 50_000;
        set_jobs(2);
        set_pool_unclamped(true);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..BATCHES {
                assert_eq!(par_run(4, |i| i), [0, 1, 2, 3]);
            }
            let _ = tx.send(());
        });
        let finished = rx.recv_timeout(std::time::Duration::from_secs(60));
        set_pool_unclamped(false);
        set_jobs(0);
        // `Timeout` is the deadlock; `Disconnected` a panicking batch.
        assert_eq!(finished, Ok(()), "par_run did not finish {BATCHES} batches");
    }

    #[test]
    fn peak_tracks_provably_concurrent_workers_exactly() {
        let _g = guard();
        // Stress the packed busy/peak word: four workers rendezvous on a
        // barrier *inside* their tasks, so all four are provably busy at
        // the same instant and the peak must report exactly 4 — the old
        // split-atomic scheme could under-report under contention.
        const WIDTH: usize = 4;
        reset_stats();
        set_jobs(WIDTH);
        set_pool_unclamped(true);
        let barrier = std::sync::Barrier::new(WIDTH);
        let _ = par_run(WIDTH, |_| {
            barrier.wait();
        });
        set_pool_unclamped(false);
        set_jobs(0);
        assert_eq!(stats().peak_workers, WIDTH);
    }

    #[test]
    fn pool_workers_steal_from_idle_lanes() {
        let _g = guard();
        reset_stats();
        let done = AtomicUsize::new(0);
        Pool::scope(
            2,
            |pool, lane| loop {
                let epoch = pool.epoch();
                match pool.next_task(lane) {
                    Some(_) => {
                        done.fetch_add(1, Ordering::Relaxed);
                        pool.notify();
                    }
                    None if pool.shutdown_requested() => break,
                    None => pool.wait_epoch(epoch),
                }
            },
            |pool| {
                for task in 0..100u64 {
                    pool.push(task);
                }
                // The lead never drains its own deque, so the single
                // worker must steal every task dealt to lane 0.
                let mut epoch = pool.epoch();
                while done.load(Ordering::Relaxed) < 100 {
                    pool.wait_epoch(epoch);
                    epoch = pool.epoch();
                }
                assert_eq!(pool.steals(), 50);
            },
        );
        assert_eq!(done.load(Ordering::Relaxed), 100);
        assert_eq!(stats().steals, 50);
    }

    #[test]
    fn pool_width_one_runs_lead_inline() {
        let _g = guard();
        let out = Pool::scope(
            1,
            |_, _| unreachable!("width 1 spawns no workers"),
            |pool| {
                assert!(pool.shutdown_requested());
                assert_eq!(current_lane(), Some(0));
                7u32
            },
        );
        assert_eq!(out, 7);
        assert_eq!(current_lane(), None);
    }
}
