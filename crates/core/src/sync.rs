//! Concurrency primitives for the server's request paths.
//!
//! Two pieces:
//!
//! * `DepCache` — the server's eval and reply caches: a map from
//!   [`ContentHash`] to derived values, split over N independently
//!   locked shards so requests touching different keys never contend.
//!   Each entry carries the namespace paths its derivation read and the
//!   generation it started at, and the cache alone decides whether an
//!   entry is still valid and who may drop it.
//! * [`SingleFlight`] — per-key request coalescing: when N threads miss
//!   the cache on the same key at once, exactly one (the *leader*) runs
//!   the computation; the rest block on a condvar and share the leader's
//!   result. This is what makes N clients cold-starting the same program
//!   cost one eval+link instead of N.
//!
//! Lock discipline: shard locks and flight locks are leaves — no code
//! here calls back into the server while holding one (a probe walks the
//! namespace after releasing its shard lock), and the leader's
//! computation runs *outside* every lock in this module.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};

use omos_obj::ContentHash;

use crate::namespace::Namespace;
use crate::trace::ProbeOutcome;

/// Locks a mutex, tolerating poison: the protected data is a cache and
/// stays structurally valid even if a panicking thread abandoned it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One cached derivation: the value, the namespace paths it was derived
/// from, and the generation its derivation started at.
#[derive(Debug)]
pub(crate) struct Derived<V> {
    pub(crate) value: V,
    pub(crate) deps: Arc<BTreeSet<String>>,
    gen: u64,
    /// The namespace generation at which `deps` were last found
    /// untouched since `gen` (it starts at `gen`).
    validated: AtomicU64,
}

impl<V> Derived<V> {
    /// The validity rule. `now` is a namespace generation the caller
    /// read before asking. If the memo holds `now`, no bind has finished
    /// since the last walk passed, so the walk is skipped. A walk that
    /// passes records `now`: a bind that finishes during the walk is
    /// never covered by the record.
    fn valid(&self, ns: &Namespace, now: u64) -> bool {
        if self.validated.load(Ordering::Acquire) == now {
            return true;
        }
        if ns.any_touched_since(self.deps.iter(), self.gen) {
            return false;
        }
        self.validated.fetch_max(now, Ordering::AcqRel);
        true
    }

    #[cfg(test)]
    pub(crate) fn validated(&self) -> u64 {
        self.validated.load(Ordering::Relaxed)
    }
}

type Shard<V> = RwLock<HashMap<ContentHash, Arc<Derived<V>>>>;

/// A dependency-checked cache sharded over independently locked
/// segments. Each entry sits behind one `Arc`, so a probe copies a
/// pointer under the shard lock and nothing else.
#[derive(Debug)]
pub(crate) struct DepCache<V> {
    shards: Vec<Shard<V>>,
    hasher: RandomState,
}

impl<V> DepCache<V> {
    /// A cache with `shards` segments (rounded up to at least 1).
    pub(crate) fn new(shards: usize) -> DepCache<V> {
        DepCache {
            shards: (0..shards.max(1))
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            hasher: RandomState::new(),
        }
    }

    fn shard(&self, key: ContentHash) -> &Shard<V> {
        let h = self.hasher.hash_one(key) as usize;
        &self.shards[h % self.shards.len()]
    }

    /// Looks `key` up and judges the entry against `ns` as of `now`, a
    /// generation read before the probe. A stale entry is dropped and
    /// answers `Err(Stale)`; no entry answers `Err(Miss)`.
    pub(crate) fn probe(
        &self,
        key: ContentHash,
        ns: &Namespace,
        now: u64,
    ) -> Result<Arc<Derived<V>>, ProbeOutcome> {
        let entry = self
            .shard(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned()
            .ok_or(ProbeOutcome::Miss)?;
        if entry.valid(ns, now) {
            return Ok(entry);
        }
        self.drop_judged(key, &entry);
        Err(ProbeOutcome::Stale)
    }

    /// Drops the entry under `key` only if it is still `judged`, checked
    /// under the shard's write lock: a fresh entry a concurrent rebuild
    /// inserted after the judgement survives.
    fn drop_judged(&self, key: ContentHash, judged: &Arc<Derived<V>>) {
        let mut shard = self
            .shard(key)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if shard.get(&key).is_some_and(|e| Arc::ptr_eq(e, judged)) {
            shard.remove(&key);
        }
    }

    /// Caches `value`, derived from `deps` by a derivation that started
    /// at generation `gen`, replacing any entry under `key`.
    pub(crate) fn insert(&self, key: ContentHash, value: V, deps: Arc<BTreeSet<String>>, gen: u64) {
        let entry = Arc::new(Derived {
            value,
            deps,
            gen,
            validated: AtomicU64::new(gen),
        });
        self.shard(key)
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, entry);
    }

    /// The valid entries, from one consistent point-in-time snapshot:
    /// every shard read-lock is held together while the entries are
    /// copied out, so the checkpoint writer never sees a half-updated
    /// cache. Writers take one shard lock each, so taking the reads in
    /// index order cannot deadlock against them. Stale entries are left
    /// out but not dropped, and nothing is counted.
    pub(crate) fn valid_entries(&self, ns: &Namespace) -> Vec<(ContentHash, Arc<Derived<V>>)> {
        let now = ns.generation();
        let snapshot: Vec<_> = {
            let guards: Vec<_> = self
                .shards
                .iter()
                .map(|s| s.read().unwrap_or_else(PoisonError::into_inner))
                .collect();
            guards
                .iter()
                .flat_map(|g| g.iter().map(|(k, e)| (*k, Arc::clone(e))))
                .collect()
        };
        snapshot
            .into_iter()
            .filter(|(_, e)| e.valid(ns, now))
            .collect()
    }
}

/// The state a flight passes through. `Abandoned` means the leader
/// panicked before publishing; waiters retry and elect a new leader.
#[derive(Debug)]
enum FlightState<V> {
    Pending,
    Done(V),
    Abandoned,
}

#[derive(Debug)]
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

impl<V> Flight<V> {
    fn publish(&self, state: FlightState<V>) {
        *lock(&self.state) = state;
        self.cv.notify_all();
    }
}

/// Per-key request coalescing (the "single flight" idiom).
#[derive(Debug)]
pub struct SingleFlight<K, V> {
    inflight: Mutex<HashMap<K, Arc<Flight<V>>>>,
}

impl<K: Hash + Eq + Copy, V: Clone> SingleFlight<K, V> {
    /// An empty in-flight table.
    #[must_use]
    pub fn new() -> SingleFlight<K, V> {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Runs `compute` for `key`, coalescing concurrent callers: the
    /// first caller (leader) computes; callers arriving while the
    /// flight is pending block and receive a clone of the leader's
    /// result. Returns `(value, led)` where `led` is true for the
    /// leader. If the leader panics, one waiter is promoted to leader
    /// and re-runs `compute`.
    pub fn run<F>(&self, key: K, compute: F) -> (V, bool)
    where
        F: Fn() -> V,
    {
        loop {
            let existing = {
                let mut map = lock(&self.inflight);
                match map.entry(key) {
                    MapEntry::Occupied(e) => Some(Arc::clone(e.get())),
                    MapEntry::Vacant(e) => {
                        e.insert(Arc::new(Flight {
                            state: Mutex::new(FlightState::Pending),
                            cv: Condvar::new(),
                        }));
                        None
                    }
                }
            };
            match existing {
                None => return (self.lead(key, &compute), true),
                Some(flight) => {
                    let mut st = lock(&flight.state);
                    loop {
                        match &*st {
                            FlightState::Pending => {
                                st = flight.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                            }
                            FlightState::Done(v) => return (v.clone(), false),
                            FlightState::Abandoned => break, // re-enter, maybe lead
                        }
                    }
                }
            }
        }
    }

    /// Leader path: run the computation with a drop guard so a panic
    /// wakes the waiters instead of deadlocking them.
    fn lead<F>(&self, key: K, compute: &F) -> V
    where
        F: Fn() -> V,
    {
        struct Guard<'a, K: Hash + Eq + Copy, V: Clone> {
            sf: &'a SingleFlight<K, V>,
            key: K,
            done: bool,
        }
        impl<K: Hash + Eq + Copy, V: Clone> Drop for Guard<'_, K, V> {
            fn drop(&mut self) {
                if !self.done {
                    if let Some(flight) = lock(&self.sf.inflight).remove(&self.key) {
                        flight.publish(FlightState::Abandoned);
                    }
                }
            }
        }
        let mut guard = Guard {
            sf: self,
            key,
            done: false,
        };
        let v = compute();
        guard.done = true;
        // Publish before removing the key: a caller that grabbed the
        // flight just before removal sees Done; one arriving after
        // removal starts a fresh flight (and will hit the caller's
        // cache instead of recomputing, in the server's usage).
        if let Some(flight) = lock(&self.inflight).remove(&key) {
            flight.publish(FlightState::Done(v.clone()));
        }
        v
    }
}

impl<K: Hash + Eq + Copy, V: Clone> Default for SingleFlight<K, V> {
    fn default() -> Self {
        SingleFlight::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn a_late_stale_drop_keeps_the_entry_a_rebuild_inserted() {
        let ns = Namespace::new();
        let obj = || omos_isa::assemble("a", ".text\nnop\n").unwrap();
        ns.bind_object("/a", obj());
        let deps = Arc::new(BTreeSet::from(["/a".to_string()]));
        let c: DepCache<u64> = DepCache::new(4);
        let key = ContentHash(1);
        c.insert(key, 10, Arc::clone(&deps), ns.generation());
        let judged = c.probe(key, &ns, ns.generation()).unwrap();
        // A rebind makes the entry stale, and a concurrent rebuild
        // replaces it before the probe that judged it drops it.
        ns.bind_object("/a", obj());
        let g1 = ns.generation();
        assert!(!judged.valid(&ns, g1));
        c.insert(key, 11, Arc::clone(&deps), g1);
        c.drop_judged(key, &judged);
        let fresh = c.probe(key, &ns, g1).expect("the fresh entry survives");
        assert_eq!(fresh.value, 11);
        c.drop_judged(key, &fresh);
        assert_eq!(c.probe(key, &ns, g1).err(), Some(ProbeOutcome::Miss));
        // A probe that judges an entry stale drops it itself.
        c.insert(key, 12, deps, g1 - 1);
        assert_eq!(c.probe(key, &ns, g1).err(), Some(ProbeOutcome::Stale));
        assert_eq!(c.probe(key, &ns, g1).err(), Some(ProbeOutcome::Miss));
    }

    #[test]
    fn the_snapshot_leaves_stale_entries_out_but_in_place() {
        let ns = Namespace::new();
        let obj = || omos_isa::assemble("a", ".text\nnop\n").unwrap();
        ns.bind_object("/a", obj());
        let g0 = ns.generation();
        let c: DepCache<u64> = DepCache::new(4);
        c.insert(
            ContentHash(1),
            1,
            Arc::new(BTreeSet::from(["/a".to_string()])),
            g0,
        );
        c.insert(
            ContentHash(2),
            2,
            Arc::new(BTreeSet::from(["/b".to_string()])),
            g0,
        );
        ns.bind_object("/a", obj());
        let valid: Vec<u64> = c.valid_entries(&ns).iter().map(|(_, e)| e.value).collect();
        assert_eq!(valid, [2]);
        let now = ns.generation();
        assert_eq!(
            c.probe(ContentHash(1), &ns, now).err(),
            Some(ProbeOutcome::Stale),
            "the snapshot dropped nothing"
        );
    }

    #[test]
    fn single_flight_coalesces_concurrent_callers() {
        let sf: SingleFlight<u64, u64> = SingleFlight::new();
        let computes = AtomicU64::new(0);
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        sf.run(7, || {
                            computes.fetch_add(1, Ordering::Relaxed);
                            // Dilate the flight so late arrivals coalesce.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            42u64
                        })
                    })
                })
                .collect();
            let results: Vec<(u64, bool)> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            let leaders = results.iter().filter(|(_, led)| *led).count();
            assert!(results.iter().all(|(v, _)| *v == 42));
            assert_eq!(
                leaders as u64,
                computes.load(Ordering::Relaxed),
                "every compute has exactly one leader"
            );
        });
    }

    #[test]
    fn single_flight_distinct_keys_run_independently() {
        let sf: SingleFlight<u64, u64> = SingleFlight::new();
        let (a, led_a) = sf.run(1, || 10);
        let (b, led_b) = sf.run(2, || 20);
        assert_eq!((a, b), (10, 20));
        assert!(led_a && led_b, "uncontended callers lead");
    }

    #[test]
    fn single_flight_leader_panic_promotes_a_waiter() {
        let sf: Arc<SingleFlight<u64, u64>> = Arc::new(SingleFlight::new());
        let barrier = Arc::new(Barrier::new(2));
        let sf2 = Arc::clone(&sf);
        let b2 = Arc::clone(&barrier);
        let panicker = std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sf2.run(9, || {
                    b2.wait(); // let the waiter enqueue
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("leader dies");
                })
            }));
            assert!(result.is_err());
        });
        barrier.wait();
        // This caller either joins the doomed flight and retries after
        // Abandoned, or arrives after cleanup; both must end at 99.
        let (v, _led) = sf.run(9, || 99);
        assert_eq!(v, 99);
        panicker.join().unwrap();
    }
}
