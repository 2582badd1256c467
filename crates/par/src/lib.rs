//! Deterministic std-only parallel execution layer.
//!
//! MPress's planner is an emulator-in-the-loop search and the paper's
//! evaluation is a large (model × machine × system) grid — both are
//! embarrassingly parallel across candidates/cells. This crate has one
//! executor and one convenience built on it:
//!
//! * [`Pool`] — a scoped work-stealing pool carrying `u64` task
//!   digests. The caller (lane 0) pushes digests into per-lane deques;
//!   worker threads (lanes `1..width`) run one shared task closure on
//!   each digest they pop from their own deque's front or steal from
//!   another lane's back, and park on an epoch condvar between bursts.
//!   The caller runs queued tasks itself with [`Pool::help`]. One
//!   `Pool::scope` spans an entire search, so refinement never pays a
//!   thread spawn per candidate round.
//! * [`par_map`]/[`par_run`] — push `0..n` into a pool, help until the
//!   deques are empty, and return the results **in input order**, so
//!   callers' tie-breaks and table layouts never depend on thread timing.
//!
//! # Determinism contract
//!
//! * `par_run` results are placed by input index; the output `Vec` is
//!   identical to what the serial loop would produce.
//! * The worker count changes only *when* work runs, never *what* is
//!   returned: `jobs=1` and `jobs=N` are byte-identical as long as the
//!   mapped closure is a pure function of its input.
//! * A [`Pool`] carries opaque task digests, not results — the *caller*
//!   decides what each completion means, which is how the planner keeps
//!   its frontier adjudication order independent of completion order.
//! * A panic in any task, on any lane, propagates out of
//!   [`Pool::scope`] (and so out of `par_run`) with its original
//!   payload; a panic never leaves the scope waiting on a lane.
//!
//! # Choosing the worker count
//!
//! Resolution order: [`set_jobs`] override (used by `--jobs`), the
//! `MPRESS_JOBS` environment variable, then
//! `std::thread::available_parallelism()`. Requests wider than the
//! machine are clamped unless [`set_pool_unclamped`] allows
//! oversubscription — benches use that to exercise stealing on small
//! containers.
//!
//! Batches smaller than [`SERIAL_CUTOFF`] run inline on the caller.

#![forbid(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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
    /// The pool lane this thread runs as (0 = the scope's caller), or
    /// `None` outside any pool scope. Nested parallel sections on a lane
    /// run serially instead of multiplying the thread count; consumers
    /// (the simulator's arena pool) use it to give each lane a warm arena.
    static LANE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Nesting depth of busy sections on this thread. Only the
    /// outermost enter/exit touches [`ACTIVE`], so a serial parallel
    /// section running inside another (a portfolio variant's whole
    /// planner search under the portfolio `par_map`, say) still counts
    /// as the single OS thread it is — `peak_workers` reports peak
    /// *concurrency*, not peak section depth.
    static BUSY_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Mutex lock that treats poisoning as the fatal caller panic it
/// reflects (tasks never run under a pool lock).
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
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Batches below this size always run inline: the planner's feasibility
/// iterations emit 1-2 candidates each, and starting a pool scope for
/// them costs more than the emulations themselves (the jobs=8 plan
/// wall measurably exceeded jobs=1 before this cutoff).
pub const SERIAL_CUTOFF: usize = 3;

/// Allows (`true`) or re-forbids (`false`) worker counts wider than the
/// detected hardware parallelism. Oversubscribing CPU-bound pure tasks
/// normally only adds spawn and context-switch cost, so the clamp is
/// the default; the scaling bench and stress tests lift it to exercise
/// real multi-worker interleavings (stealing, speculative completion
/// order) on small containers. Results are identical at any width;
/// only wall-clock and the steal/peak counters move.
pub fn set_pool_unclamped(on: bool) {
    UNCLAMPED.store(on, Ordering::Relaxed);
}

/// The width a new parallel section resolves to *right now*: [`jobs`],
/// clamped to the hardware thread count unless [`set_pool_unclamped`],
/// and forced to 1 on every lane of a live pool scope so nested
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
    let hw = std::thread::available_parallelism().map_or(usize::MAX, |n| n.get());
    requested.min(hw).max(1)
}

/// The pool lane the current thread runs as: `Some(0)` on the thread
/// that opened a [`Pool::scope`] (a `par_run` caller included),
/// `Some(1..)` on worker threads, `None` outside any pool scope.
/// Lane identity is stable for the whole scope, so per-lane caches (the
/// simulator's warm arenas) stay warm across tasks.
pub fn current_lane() -> Option<usize> {
    LANE.with(Cell::get)
}

/// Marks the current thread as busy pool lane `lane` until dropped and
/// then restores its previous lane, on return or unwind alike.
/// The lead's guard also holds its pool and flags shutdown on drop, so
/// the workers exit even when the lead panics.
struct LaneGuard<'p, 't> {
    prev_lane: Option<usize>,
    lead_of: Option<&'p Pool<'t>>,
    _busy: Busy,
}

impl<'p, 't> LaneGuard<'p, 't> {
    fn enter(lane: usize, lead_of: Option<&'p Pool<'t>>) -> Self {
        LaneGuard {
            prev_lane: LANE.with(|l| l.replace(Some(lane))),
            lead_of,
            _busy: Busy::enter(),
        }
    }
}

impl Drop for LaneGuard<'_, '_> {
    fn drop(&mut self) {
        if let Some(pool) = self.lead_of {
            pool.finish();
        }
        LANE.with(|l| l.set(self.prev_lane));
    }
}

/// Runs `f(0..n)` across the pool and returns the results in index
/// order. Serial when the resolved width is 1 or `n` is below the
/// serial cutoff; panics in `f` propagate to the caller either way.
///
/// Indices are dealt round-robin into the [`Pool`]'s lane deques and
/// the caller works as lane 0 until they are empty; a lane that drains
/// its own deque steals from the back of the others', so an uneven
/// batch (one slow emulation among cheap ones) does not idle the rest.
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
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let task = |i: u64| {
        let out = f(i as usize);
        *lock(&slots[i as usize]) = Some(out);
    };
    Pool::scope(width, &task, |pool| {
        for i in 0..n {
            pool.push(i as u64);
        }
        while pool.help() {}
    });
    let produced = |slot: &Mutex<Option<R>>| lock(slot).take().expect("every index ran once");
    slots.iter().map(produced).collect()
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

/// A scoped work-stealing pool carrying opaque `u64` task digests.
///
/// Built for search loops where the task set is *discovered during* the
/// scope: the caller (lane 0) pushes digests as the frontier unfolds
/// and the lanes run the scope's one task closure on them. Because
/// tasks are data rather than closures, that closure borrows state
/// declared *before* [`Pool::scope`], which keeps the whole crate
/// `forbid(unsafe_code)`-clean.
///
/// The pool makes no ordering promises about *completion*; callers that
/// need determinism adjudicate results in an order of their own (the
/// planner uses its frontier order). See DESIGN.md §13.
pub struct Pool<'t> {
    task: &'t (dyn Fn(u64) + Sync),
    deques: Vec<Mutex<VecDeque<u64>>>,
    rr: AtomicUsize,
    epoch: Mutex<u64>,
    cv: Condvar,
    shutdown: AtomicBool,
    steals: AtomicU64,
    /// The first worker panic, held until the lead re-raises it.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<'t> Pool<'t> {
    /// Runs `lead` on the calling thread (lane 0) with `width - 1`
    /// worker threads (lanes `1..width`) running `task` on every digest
    /// they pop or steal, bumping the epoch after each. When `lead`
    /// returns *or unwinds* the workers finish the task in hand and
    /// exit; queued digests are dropped. A worker's panic stops the
    /// pool and is re-raised on the lead by its next [`Pool::help`] or
    /// [`Pool::wait_epoch`], or when the scope joins. `width <= 1`
    /// spawns no threads: pushed digests run only through `help`.
    pub fn scope<R>(
        width: usize,
        task: &'t (dyn Fn(u64) + Sync),
        lead: impl FnOnce(&Pool<'t>) -> R,
    ) -> R {
        let width = width.max(1);
        let pool = Pool {
            task,
            deques: (0..width).map(|_| Mutex::new(VecDeque::new())).collect(),
            rr: AtomicUsize::new(0),
            epoch: Mutex::new(0),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(width == 1),
            steals: AtomicU64::new(0),
            panic: Mutex::new(None),
        };
        let out = std::thread::scope(|scope| {
            let _lead = LaneGuard::enter(0, Some(&pool));
            for lane in 1..width {
                let pool = &pool;
                scope.spawn(move || pool.work(lane));
            }
            lead(&pool)
        });
        pool.rethrow();
        out
    }

    /// Enqueues one task digest (round-robin across lanes) and wakes
    /// parked lanes.
    pub fn push(&self, task: u64) {
        let lane = self.rr.fetch_add(1, Ordering::Relaxed) % self.deques.len();
        lock(&self.deques[lane]).push_back(task);
        self.notify();
    }

    /// Runs one queued task on the lead's lane (its own deque first,
    /// then a steal) and returns `true`, or returns `false` if every
    /// deque is empty at this instant. Re-raises a worker's panic
    /// first. Tasks run here do not bump the epoch: the lead is the
    /// only lane that waits on completions.
    pub fn help(&self) -> bool {
        self.rethrow();
        match self.pop(0) {
            Some(key) => {
                (self.task)(key);
                true
            }
            None => false,
        }
    }

    /// The current wake epoch. Snapshot it *before* checking for work:
    /// `wait_epoch` returns immediately if any notification landed
    /// after the snapshot, so the check-then-park pattern never misses
    /// a wakeup.
    pub fn epoch(&self) -> u64 {
        *lock(&self.epoch)
    }

    /// Parks the lead until the epoch advances past `seen` (a push, a
    /// worker completion or a worker panic) or shutdown is flagged, then
    /// re-raises a worker's panic if one happened.
    pub fn wait_epoch(&self, seen: u64) {
        self.park(seen);
        self.rethrow();
    }

    /// Tasks this pool's lanes stole from each other's deques.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// The worker loop: run popped tasks until shutdown, parking when
    /// the deques are dry. A task panic is caught, stored for the lead
    /// and stops the pool.
    fn work(&self, lane: usize) {
        let _lane = LaneGuard::enter(lane, None);
        loop {
            let epoch = self.epoch();
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            match self.pop(lane) {
                Some(key) => {
                    let ran = panic::catch_unwind(AssertUnwindSafe(|| (self.task)(key)));
                    if let Err(payload) = ran {
                        lock(&self.panic).get_or_insert(payload);
                        self.finish();
                        return;
                    }
                    self.notify();
                }
                None => self.park(epoch),
            }
        }
    }

    /// Pops `lane`'s own deque front, else steals another lane's back
    /// (counted). The own-deque pop is its own statement so its guard
    /// drops before a steal locks a neighbour's deque: holding both
    /// would let two idle lanes deadlock on each other's locks.
    fn pop(&self, lane: usize) -> Option<u64> {
        let own = lock(&self.deques[lane]).pop_front();
        own.or_else(|| {
            let width = self.deques.len();
            (1..width).find_map(|k| {
                let stolen = lock(&self.deques[(lane + k) % width]).pop_back();
                if stolen.is_some() {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                }
                stolen
            })
        })
    }

    /// Parks until the epoch advances past `seen` or shutdown is
    /// flagged. The parked lane is not counted busy, so `peak_workers`
    /// reflects genuinely concurrent work.
    fn park(&self, seen: u64) {
        busy_exit();
        let mut epoch = lock(&self.epoch);
        while *epoch == seen && !self.shutdown.load(Ordering::Relaxed) {
            epoch = self.cv.wait(epoch).expect("mpress-par lock poisoned");
        }
        drop(epoch);
        busy_enter();
    }

    /// Advances the epoch and wakes every parked lane. Runs in the
    /// lead's drop guard, so it must not panic: a poisoned epoch is
    /// still a valid counter.
    fn notify(&self) {
        *self.epoch.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.cv.notify_all();
    }

    fn finish(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.notify();
    }

    /// Resumes a stored worker panic on the calling thread.
    fn rethrow(&self) {
        let payload = lock(&self.panic).take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Tests below mutate process-global knobs (`set_jobs`, the peak
    /// counter, the clamp); serialize them so `cargo test`'s parallel
    /// harness cannot interleave their windows.
    fn guard() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        lock(&GUARD)
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
    fn stealing_workers_never_deadlock() {
        let _g = guard();
        // Two lanes over four tasks drain their own deques and then
        // steal from each other at nearly the same instant. A lane that
        // still held its own deque lock while locking its neighbour's
        // would deadlock ABBA within a few thousand batches; the
        // watchdog turns that hang into a failure.
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
    fn lead_panic_releases_parked_workers() {
        let _g = guard();
        // The worker parks waiting for work that never comes; the lead's
        // panic must still flag shutdown so the scope can join.
        let out = within(10, || Pool::scope(2, &|_| {}, |_| panic!("lead panicked")));
        assert_eq!(out, Err(Some("lead panicked")));
    }

    #[test]
    fn worker_panic_wakes_the_waiting_lead() {
        let _g = guard();
        // The lead waits for a completion the panicking worker never
        // delivers; the panic must wake it and surface on it.
        let out = within(10, || {
            Pool::scope(2, &|_| panic!("worker panicked"), |pool| -> () {
                pool.push(0);
                loop {
                    pool.wait_epoch(pool.epoch());
                }
            })
        });
        assert_eq!(out, Err(Some("worker panicked")));
    }

    #[test]
    fn pool_workers_steal_from_idle_lanes() {
        let _g = guard();
        let done = AtomicUsize::new(0);
        Pool::scope(2, &|_| _ = done.fetch_add(1, Ordering::Relaxed), |pool| {
            for task in 0..100u64 {
                pool.push(task);
            }
            // The lead never helps, so the single worker must steal
            // every task dealt to lane 0.
            let mut epoch = pool.epoch();
            while done.load(Ordering::Relaxed) < 100 {
                pool.wait_epoch(epoch);
                epoch = pool.epoch();
            }
            assert_eq!(pool.steals(), 50);
        });
        assert_eq!(done.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn pool_width_one_runs_lead_inline() {
        let _g = guard();
        let ran = AtomicUsize::new(0);
        let out = Pool::scope(1, &|_| _ = ran.fetch_add(1, Ordering::Relaxed), |pool| {
            assert_eq!((current_lane(), pool_width()), (Some(0), 1));
            // No workers: pushed digests run only when the lead helps.
            pool.push(0);
            pool.push(1);
            while pool.help() {}
            7u32
        });
        assert_eq!((out, ran.load(Ordering::Relaxed)), (7, 2));
        assert_eq!(current_lane(), None);
    }
}
