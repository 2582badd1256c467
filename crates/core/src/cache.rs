//! Process-global plan cache and cancellation budget.
//!
//! The per-[`Planner`](crate::Planner) emulation cache memoizes outcomes
//! *within* one search; a long-running service re-plans the same
//! requests across many searches. [`PlanCache`] promotes that reuse to a
//! process-global, cloneable handle with two levels:
//!
//! * a **plan level** keyed by the request digest
//!   ([`Mpress::plan_digest`](crate::Mpress::plan_digest)) — a hit skips
//!   the whole search and returns the previously chosen
//!   [`MpressPlan`](crate::MpressPlan), byte-identical by construction.
//!   It is single-flight ([`PlanCache::plan_or_search`]): a caller whose
//!   digest is being searched waits for that search instead of running
//!   its own;
//! * an **emulation level** keyed by `(job scope, structural plan key)`
//!   — the planner's structural fingerprint digest (`cache_key`), scoped
//!   by the job's graph/machine fingerprint so outcomes computed for one
//!   job can never answer for another. Different searches over the same
//!   job (portfolio variants, different technique sets) share windows.
//!
//! Both levels use LRU eviction with hit/miss/eviction counters
//! ([`PlanCacheStats`]) so a service can report cache effectiveness in
//! its `stats` query. Maps are `BTreeMap` (never iterated for
//! decisions), keeping the determinism lint surface unchanged.
//!
//! [`CancelToken`] is the planner's cancellation budget: a cloneable
//! flag plus an optional emulator-run allowance, checked before every
//! simulator window. A tripped token aborts the search with
//! [`SimError::Cancelled`](mpress_sim::SimError) — used by the daemon to
//! abandon in-flight work on shutdown.

use crate::planner::MpressPlan;
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Default capacity for the plan level: whole plans are large (device
/// map + per-tensor directives + baseline report), so the menu of
/// distinct requests a service amortizes should stay bounded.
pub const DEFAULT_PLAN_CAPACITY: usize = 256;

/// Default capacity for the emulation level: outcomes are a few words
/// each, and one search emits hundreds of candidates.
pub const DEFAULT_EMU_CAPACITY: usize = 65_536;

/// What one emulator window reports back to the search, as the
/// planner's memo and the shared cache store it.
pub(crate) type EmuOutcome = (crate::planner::Metric, Option<mpress_sim::OomEvent>);

/// A lazily-ordered LRU map: lookups stamp entries, eviction pops the
/// stalest queue entry whose stamp is still current (classic lazy LRU —
/// stale queue entries are skipped, not searched for).
///
/// Both [`PlanCache`] levels use it, and so does the API layer's
/// response memo. `new` allocates nothing until the first insert.
#[derive(Debug)]
pub struct Lru<K: Ord + Clone, V> {
    map: BTreeMap<K, (V, u64)>,
    queue: VecDeque<(K, u64)>,
    tick: u64,
    cap: usize,
}

impl<K: Ord + Clone, V: Clone> Lru<K, V> {
    /// An empty map holding at most `cap` entries (floored at 1).
    pub fn new(cap: usize) -> Self {
        Lru {
            map: BTreeMap::new(),
            queue: VecDeque::new(),
            tick: 0,
            cap: cap.max(1),
        }
    }

    /// A clone of `key`'s value, marking it most recently used.
    pub fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ToOwned<Owned = K> + ?Sized,
    {
        self.tick += 1;
        let tick = self.tick;
        let (value, stamp) = self.map.get_mut(key)?;
        *stamp = tick;
        let out = value.clone();
        self.queue.push_back((key.to_owned(), tick));
        if self.queue.len() > 2 * self.cap {
            self.compact();
        }
        Some(out)
    }

    /// Drops the queue entries whose stamps are stale, keeping the
    /// current ones in order. Every hit queues one entry, so without
    /// this a map below capacity (which never evicts) would grow its
    /// queue by one entry per hit for as long as it lives. Eviction
    /// order is unchanged: eviction skips stale entries anyway.
    fn compact(&mut self) {
        let map = &self.map;
        self.queue
            .retain(|(key, stamp)| map.get(key).is_some_and(|(_, s)| s == stamp));
    }

    /// Inserts (first writer wins) and returns evictions performed.
    pub fn insert(&mut self, key: K, value: V) -> usize {
        if self.map.contains_key(&key) {
            return 0;
        }
        self.tick += 1;
        self.map.insert(key.clone(), (value, self.tick));
        self.queue.push_back((key, self.tick));
        let mut evicted = 0;
        while self.map.len() > self.cap {
            let Some((key, stamp)) = self.queue.pop_front() else {
                break;
            };
            match self.map.get(&key) {
                // Stamp is current: this really is the stalest entry.
                Some((_, s)) if *s == stamp => {
                    self.map.remove(&key);
                    evicted += 1;
                }
                // Re-used or already gone: the queue entry was stale.
                _ => {}
            }
        }
        evicted
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Counter snapshot for one [`PlanCache`] (see the module docs for the
/// two levels). All counts are process-lifetime totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct PlanCacheStats {
    /// Plan-level lookups answered with a cached [`MpressPlan`],
    /// including those that waited for another caller's search.
    pub plan_hits: usize,
    /// Plan-level lookups that missed (a full search followed).
    pub plan_misses: usize,
    /// Plans evicted by the LRU policy.
    pub plan_evictions: usize,
    /// Plans currently resident.
    pub plan_entries: usize,
    /// Emulation-level lookups answered from the shared map.
    pub emu_hits: usize,
    /// Emulation-level lookups that missed.
    pub emu_misses: usize,
    /// Shared outcomes evicted by the LRU policy.
    pub emu_evictions: usize,
    /// Shared outcomes currently resident.
    pub emu_entries: usize,
}

/// Locks one cache level even if a panicking thread poisoned it, so one
/// panic cannot disable the cache for every later request. Every entry
/// is a deterministic function of its key, and each [`Lru`] step leaves
/// the map serving correct values: an update cut short can at worst
/// leave an entry without a current queue stamp, which only delays its
/// eviction.
fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counts one lookup as a hit or a miss, passing its result through.
fn tally<T>(found: Option<T>, hits: &AtomicUsize, misses: &AtomicUsize) -> Option<T> {
    let counter = if found.is_some() { hits } else { misses };
    counter.fetch_add(1, Ordering::Relaxed);
    found
}

/// The plan level: resident plans, and the digests whose first miss is
/// still searching.
#[derive(Debug)]
struct PlanLevel {
    lru: Lru<u64, MpressPlan>,
    in_flight: BTreeSet<u64>,
}

#[derive(Debug)]
struct PlanCacheInner {
    plans: Mutex<PlanLevel>,
    /// Signalled whenever a digest leaves `in_flight`.
    landed: Condvar,
    emu: Mutex<Lru<(u64, u64), EmuOutcome>>,
    plan_hits: AtomicUsize,
    plan_misses: AtomicUsize,
    plan_evictions: AtomicUsize,
    emu_hits: AtomicUsize,
    emu_misses: AtomicUsize,
    emu_evictions: AtomicUsize,
}

/// A process-global structural plan cache (see the module docs).
///
/// Cloning clones the *handle*: every clone shares the same maps and
/// counters, so one cache can back many [`Mpress`](crate::Mpress)
/// instances and planner searches concurrently.
#[derive(Debug, Clone)]
pub struct PlanCache {
    inner: Arc<PlanCacheInner>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// A cache with the default capacities.
    pub fn new() -> Self {
        PlanCache::with_capacity(DEFAULT_PLAN_CAPACITY, DEFAULT_EMU_CAPACITY)
    }

    /// A cache holding at most `plans` whole plans and `outcomes` shared
    /// emulator outcomes (each floored at 1).
    pub fn with_capacity(plans: usize, outcomes: usize) -> Self {
        PlanCache {
            inner: Arc::new(PlanCacheInner {
                plans: Mutex::new(PlanLevel {
                    lru: Lru::new(plans),
                    in_flight: BTreeSet::new(),
                }),
                landed: Condvar::new(),
                emu: Mutex::new(Lru::new(outcomes)),
                plan_hits: AtomicUsize::new(0),
                plan_misses: AtomicUsize::new(0),
                plan_evictions: AtomicUsize::new(0),
                emu_hits: AtomicUsize::new(0),
                emu_misses: AtomicUsize::new(0),
                emu_evictions: AtomicUsize::new(0),
            }),
        }
    }

    /// Looks a whole plan up by its request digest.
    pub fn plan_lookup(&self, digest: u64) -> Option<MpressPlan> {
        let found = recover(&self.inner.plans).lru.get(&digest);
        tally(found, &self.inner.plan_hits, &self.inner.plan_misses)
    }

    /// Records a chosen plan under its request digest (first writer
    /// wins: concurrent planners racing on the same digest computed
    /// byte-identical plans, so either copy is authoritative).
    pub fn plan_insert(&self, digest: u64, plan: &MpressPlan) {
        let evicted = recover(&self.inner.plans).lru.insert(digest, plan.clone());
        self.inner
            .plan_evictions
            .fetch_add(evicted, Ordering::Relaxed);
    }

    /// The plan for `digest`: the resident one (a hit), or the result
    /// of `search` (a miss), which is then cached. While one caller's
    /// search for a digest runs, later callers for it wait and take its
    /// plan as a hit. If that search fails or panics, its entry is
    /// cleared and the next waiter searches in its place.
    ///
    /// # Errors
    ///
    /// Whatever `search` returns.
    pub fn plan_or_search<E>(
        &self,
        digest: u64,
        search: impl FnOnce() -> Result<MpressPlan, E>,
    ) -> Result<MpressPlan, E> {
        let inner = &*self.inner;
        let mut level = recover(&inner.plans);
        loop {
            if let Some(plan) = level.lru.get(&digest) {
                inner.plan_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(plan);
            }
            // Not resident: lead a search unless one is already running.
            if level.in_flight.insert(digest) {
                break;
            }
            level = inner
                .landed
                .wait(level)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(level);
        inner.plan_misses.fetch_add(1, Ordering::Relaxed);
        let _flight = Flight { inner, digest };
        let plan = search()?;
        self.plan_insert(digest, &plan);
        Ok(plan)
    }

    /// Shared emulation-outcome lookup, scoped by the job fingerprint.
    pub(crate) fn emu_lookup(&self, scope: u64, key: u64) -> Option<EmuOutcome> {
        let found = recover(&self.inner.emu).get(&(scope, key));
        tally(found, &self.inner.emu_hits, &self.inner.emu_misses)
    }

    /// Records a shared emulation outcome.
    pub(crate) fn emu_insert(&self, scope: u64, key: u64, outcome: EmuOutcome) {
        let evicted = recover(&self.inner.emu).insert((scope, key), outcome);
        self.inner
            .emu_evictions
            .fetch_add(evicted, Ordering::Relaxed);
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        let plan_entries = recover(&self.inner.plans).lru.len();
        let emu_entries = recover(&self.inner.emu).len();
        PlanCacheStats {
            plan_hits: self.inner.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.inner.plan_misses.load(Ordering::Relaxed),
            plan_evictions: self.inner.plan_evictions.load(Ordering::Relaxed),
            plan_entries,
            emu_hits: self.inner.emu_hits.load(Ordering::Relaxed),
            emu_misses: self.inner.emu_misses.load(Ordering::Relaxed),
            emu_evictions: self.inner.emu_evictions.load(Ordering::Relaxed),
            emu_entries,
        }
    }
}

/// A leader's claim on an in-flight digest. Dropping it, on return or
/// unwind alike, clears the entry and wakes the digest's waiters.
struct Flight<'a> {
    inner: &'a PlanCacheInner,
    digest: u64,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        recover(&self.inner.plans).in_flight.remove(&self.digest);
        self.inner.landed.notify_all();
    }
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    /// 0 = unlimited.
    max_runs: AtomicUsize,
    runs: AtomicUsize,
}

/// A cloneable cancellation budget for planner searches.
///
/// Two ways to trip:
///
/// * [`CancelToken::cancel`] — explicit, e.g. a daemon abandoning
///   in-flight work on shutdown;
/// * an exhausted **run budget** ([`CancelToken::with_run_budget`]) —
///   every simulator window charges one run, and the window that would
///   exceed the allowance aborts instead.
///
/// A tripped token makes the next window return
/// [`SimError::Cancelled`](mpress_sim::SimError), which surfaces as
/// [`MpressError::Simulation`](crate::MpressError). The default token
/// never trips, so existing entry points are unchanged.
///
/// Note on determinism: under a parallel search the abort *point* (and
/// therefore the error's timing) depends on worker interleaving, but a
/// tripped search only ever yields an error, never a different plan.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A token that never trips until [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that additionally trips after `max_runs` simulator
    /// windows have been charged (0 means unlimited).
    pub fn with_run_budget(max_runs: usize) -> Self {
        let token = CancelToken::default();
        token.inner.max_runs.store(max_runs, Ordering::Relaxed);
        token
    }

    /// Trips the token; every clone observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has tripped (explicitly or by budget).
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        let max = self.inner.max_runs.load(Ordering::Relaxed);
        max != 0 && self.inner.runs.load(Ordering::Relaxed) >= max
    }

    /// Simulator windows charged so far.
    pub fn runs_charged(&self) -> usize {
        self.inner.runs.load(Ordering::Relaxed)
    }

    /// Charges one simulator window against the budget; `false` means
    /// the window must not run (tripped or out of allowance).
    pub(crate) fn charge_run(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return false;
        }
        let max = self.inner.max_runs.load(Ordering::Relaxed);
        let prior = self.inner.runs.fetch_add(1, Ordering::Relaxed);
        max == 0 || prior < max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    #[test]
    fn lru_evicts_stalest_entry() {
        let mut lru: Lru<u64, u64> = Lru::new(2);
        assert_eq!(lru.insert(1, 10), 0);
        assert_eq!(lru.insert(2, 20), 0);
        // Touch 1 so 2 becomes the stalest.
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.insert(3, 30), 1);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
    }

    #[test]
    fn lru_queue_stays_bounded_under_repeated_hits() {
        let mut lru: Lru<u64, u64> = Lru::new(4);
        lru.insert(1, 10);
        lru.insert(2, 20);
        for _ in 0..1_000 {
            assert_eq!(lru.get(&1), Some(10));
        }
        assert!(
            lru.queue.len() <= 2 * 4,
            "queue grew to {}",
            lru.queue.len()
        );
        // Compaction kept the order: 2 is still the stalest entry.
        lru.insert(3, 30);
        lru.insert(4, 40);
        assert_eq!(lru.insert(5, 50), 1);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(10));
    }

    #[test]
    fn lru_first_writer_wins() {
        let mut lru: Lru<u64, u64> = Lru::new(4);
        lru.insert(1, 10);
        lru.insert(1, 99);
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn cache_counts_hits_misses_evictions() {
        let cache = PlanCache::with_capacity(8, 2);
        assert!(cache.emu_lookup(7, 1).is_none());
        let metric = crate::planner::Metric {
            oom: false,
            makespan: 1.0,
            host_traffic: mpress_hw::Bytes::ZERO,
        };
        cache.emu_insert(7, 1, (metric, None));
        cache.emu_insert(7, 2, (metric, None));
        cache.emu_insert(7, 3, (metric, None));
        assert!(cache.emu_lookup(7, 3).is_some());
        // Scoping: same key under a different job fingerprint misses.
        assert!(cache.emu_lookup(8, 3).is_none());
        let stats = cache.stats();
        assert_eq!(stats.emu_hits, 1);
        assert_eq!(stats.emu_misses, 2);
        assert_eq!(stats.emu_evictions, 1);
        assert_eq!(stats.emu_entries, 2);
    }

    /// A structurally-empty plan for exercising the plan level;
    /// `rounds` tags copies apart so hits are attributable.
    fn dummy_plan(rounds: usize) -> MpressPlan {
        MpressPlan {
            device_map: mpress_sim::DeviceMap::identity(1),
            instrumentation: mpress_compaction::InstrumentationPlan::new(),
            spare: crate::mapping::SpareAssignment {
                per_stage: Vec::new(),
            },
            refinement_rounds: rounds,
            baseline: mpress_sim::SimReport::default(),
            search: crate::planner::SearchStats::default(),
            refine_candidates: Vec::new(),
        }
    }

    #[test]
    fn plan_level_counts_hits_misses_and_evictions() {
        let cache = PlanCache::with_capacity(2, 8);
        assert!(cache.plan_lookup(1).is_none());
        cache.plan_insert(1, &dummy_plan(1));
        cache.plan_insert(2, &dummy_plan(2));
        // Touch digest 1 so digest 2 becomes the stalest, then overflow.
        assert_eq!(cache.plan_lookup(1).map(|p| p.refinement_rounds), Some(1));
        cache.plan_insert(3, &dummy_plan(3));
        assert!(cache.plan_lookup(2).is_none(), "2 was the LRU victim");
        assert_eq!(cache.plan_lookup(3).map(|p| p.refinement_rounds), Some(3));
        let stats = cache.stats();
        assert_eq!(stats.plan_hits, 2);
        assert_eq!(stats.plan_misses, 2);
        assert_eq!(stats.plan_evictions, 1);
        assert_eq!(stats.plan_entries, 2);
        // The plan level never touches the emulation-level counters.
        assert_eq!(stats.emu_hits, 0);
        assert_eq!(stats.emu_misses, 0);
        assert_eq!(stats.emu_evictions, 0);
    }

    #[test]
    fn plan_level_first_writer_wins_without_eviction_noise() {
        let cache = PlanCache::with_capacity(4, 8);
        cache.plan_insert(9, &dummy_plan(1));
        cache.plan_insert(9, &dummy_plan(2));
        // The losing writer neither replaced the plan nor evicted.
        assert_eq!(cache.plan_lookup(9).map(|p| p.refinement_rounds), Some(1));
        let stats = cache.stats();
        assert_eq!(stats.plan_entries, 1);
        assert_eq!(stats.plan_evictions, 0);
        assert_eq!(stats.plan_hits, 1);
    }

    #[test]
    fn stats_snapshot_is_shared_across_clones() {
        let cache = PlanCache::with_capacity(4, 4);
        let clone = cache.clone();
        assert!(clone.plan_lookup(5).is_none());
        clone.plan_insert(5, &dummy_plan(7));
        assert_eq!(cache.plan_lookup(5).map(|p| p.refinement_rounds), Some(7));
        let stats = cache.stats();
        assert_eq!(stats.plan_misses, 1);
        assert_eq!(stats.plan_hits, 1);
        assert_eq!(stats.plan_entries, 1);
    }

    #[test]
    fn a_panic_holding_the_locks_does_not_poison_later_requests() {
        let cache = PlanCache::with_capacity(4, 4);
        cache.plan_insert(1, &dummy_plan(1));
        let held = cache.clone();
        let panicked = std::thread::spawn(move || {
            let _plans = held.inner.plans.lock();
            let _emu = held.inner.emu.lock();
            panic!("request panicked while holding the cache locks");
        })
        .join();
        assert!(panicked.is_err());
        assert!(cache.inner.plans.is_poisoned() && cache.inner.emu.is_poisoned());
        assert_eq!(cache.plan_lookup(1).map(|p| p.refinement_rounds), Some(1));
        cache.plan_insert(2, &dummy_plan(2));
        assert_eq!(cache.plan_lookup(2).map(|p| p.refinement_rounds), Some(2));
        assert!(cache.emu_lookup(7, 7).is_none());
        let stats = cache.stats();
        assert_eq!((stats.plan_entries, stats.plan_hits), (2, 2));
    }

    type Searched = Result<MpressPlan, &'static str>;

    /// Parks a second caller for digest 1 behind a leader whose search
    /// is held open, then lets that search end as `leader_ends` says.
    /// Returns the `refinement_rounds` of the plans the leader (`None`
    /// if it panicked) and the waiter got; a waiter's own search returns
    /// plan 2.
    fn race(cache: &PlanCache, leader_ends: fn() -> Searched) -> [Option<Result<usize, &str>>; 2] {
        let (started, searching) = mpsc::channel();
        let (release, held) = mpsc::channel::<()>();
        let rounds = |r: thread::Result<Searched>| r.ok().map(|r| r.map(|p| p.refinement_rounds));
        thread::scope(|s| {
            let leader = s.spawn(move || {
                cache.plan_or_search(1, || {
                    started.send(()).expect("test waits");
                    held.recv().expect("test releases");
                    leader_ends()
                })
            });
            searching.recv().expect("the leader searches");
            let tick = recover(&cache.inner.plans).lru.tick;
            let waiter = s.spawn(|| cache.plan_or_search(1, || Ok(dummy_plan(2))));
            // The waiter's lookup and the wait after its miss happen
            // under one hold of the lock, so once its lookup has moved
            // the tick, it is parked.
            while recover(&cache.inner.plans).lru.tick == tick {
                thread::yield_now();
            }
            release.send(()).expect("the leader waits");
            [rounds(leader.join()), rounds(waiter.join())]
        })
    }

    #[test]
    fn a_waiter_takes_the_in_flight_plan_as_a_hit() {
        let cache = PlanCache::with_capacity(4, 4);
        let ran = race(&cache, || Ok(dummy_plan(1)));
        assert_eq!(ran, [Some(Ok(1)), Some(Ok(1))], "the waiter ran no search");
        let stats = cache.stats();
        assert_eq!((stats.plan_misses, stats.plan_hits), (1, 1));
    }

    #[test]
    fn a_failed_search_leaves_the_waiter_to_search_and_cache() {
        let cache = PlanCache::with_capacity(4, 4);
        let ran = race(&cache, || Err("cancelled"));
        assert_eq!(ran, [Some(Err("cancelled")), Some(Ok(2))]);
        let stats = cache.stats();
        assert_eq!((stats.plan_misses, stats.plan_hits), (2, 0));
        assert_eq!(cache.plan_lookup(1).map(|p| p.refinement_rounds), Some(2));
    }

    #[test]
    fn a_panicking_search_clears_its_entry() {
        let cache = PlanCache::with_capacity(4, 4);
        let ran = race(&cache, || panic!("the search panicked"));
        assert_eq!(ran, [None, Some(Ok(2))]);
        // The cache keeps serving: the waiter's plan, and new searches.
        let again = cache.plan_or_search(1, || Err("searched again"));
        assert_eq!(again.map(|p| p.refinement_rounds), Ok(2));
        let other = cache.plan_or_search(3, || Searched::Ok(dummy_plan(3)));
        assert_eq!(other.map(|p| p.refinement_rounds), Ok(3));
    }

    #[test]
    fn cancel_token_trips_on_cancel_and_budget() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert!(token.charge_run());
        token.cancel();
        assert!(token.is_cancelled());
        assert!(!token.charge_run());

        let budget = CancelToken::with_run_budget(2);
        assert!(budget.charge_run());
        assert!(budget.charge_run());
        assert!(!budget.charge_run());
        assert!(budget.is_cancelled());
        assert_eq!(budget.runs_charged(), 3);
    }
}
