//! Concurrency primitives for the server's request paths.
//!
//! Two pieces:
//!
//! * [`Sharded`] — a hash map split over N independently locked shards,
//!   so requests touching different keys never contend. The server's
//!   eval and reply caches shard by [`ContentHash`](omos_obj::ContentHash)
//!   (the key's low bits pick the shard).
//! * [`SingleFlight`] — per-key request coalescing: when N threads miss
//!   the cache on the same key at once, exactly one (the *leader*) runs
//!   the computation; the rest block on a condvar and share the leader's
//!   result. This is what makes N clients cold-starting the same program
//!   cost one eval+link instead of N.
//!
//! Lock discipline: shard locks and flight locks are leaves — no code
//! here calls back into the server while holding one, and the leader's
//! computation runs *outside* every lock in this module.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};

/// Locks a mutex, tolerating poison: the protected data is a cache and
/// stays structurally valid even if a panicking thread abandoned it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A concurrent hash map sharded over independently locked segments.
#[derive(Debug)]
pub struct Sharded<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
    hasher: RandomState,
}

impl<K: Hash + Eq, V: Clone> Sharded<K, V> {
    /// A map with `shards` segments (rounded up to at least 1).
    #[must_use]
    pub fn new(shards: usize) -> Sharded<K, V> {
        Sharded {
            shards: (0..shards.max(1))
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            hasher: RandomState::new(),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let h = self.hasher.hash_one(key) as usize;
        &self.shards[h % self.shards.len()]
    }

    /// Clones the value under `key`, if present.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned()
    }

    /// Inserts, replacing any existing value.
    pub fn insert(&self, key: K, value: V) {
        self.shard(&key)
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, value);
    }

    /// Removes the entry under `key`.
    pub fn remove(&self, key: &K) {
        self.shard(key)
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(key);
    }

    /// Removes the entry under `key` only if `pred` holds for the value
    /// stored there now, judged under the shard's write lock. A caller
    /// that judged a cloned value (say, found it stale) passes a
    /// predicate that recognises that value, so a fresh value another
    /// thread inserted in between survives. Returns true if it removed
    /// something.
    pub fn remove_if(&self, key: &K, pred: impl FnOnce(&V) -> bool) -> bool {
        let mut shard = self
            .shard(key)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let hit = shard.get(key).is_some_and(pred);
        if hit {
            shard.remove(key);
        }
        hit
    }

    /// Total entries across all shards — a *consistent* point-in-time
    /// count. All shard read-locks are acquired in index order and held
    /// together while summing, so a concurrent insert+remove pair can
    /// never be half-counted (summing shard-by-shard returns torn
    /// counts, which made `Omos::stats()` gauges disagree with each
    /// other). Writers take exactly one shard lock, so taking the reads
    /// in index order cannot deadlock against them.
    #[must_use]
    pub fn len(&self) -> usize {
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner))
            .collect();
        guards.iter().map(|g| g.len()).sum()
    }

    /// True if no shard holds anything (consistent, like
    /// [`Sharded::len`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clones every entry out — a consistent point-in-time snapshot
    /// (all shard read-locks held together, like [`Sharded::len`]).
    /// Used by the checkpoint writer, which must not see a half-updated
    /// cache.
    #[must_use]
    pub fn entries(&self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner))
            .collect();
        guards
            .iter()
            .flat_map(|g| g.iter().map(|(k, v)| (k.clone(), v.clone())))
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
    fn sharded_basic_ops() {
        let m: Sharded<u64, String> = Sharded::new(4);
        assert!(m.is_empty());
        m.insert(1, "a".into());
        m.insert(2, "b".into());
        assert_eq!(m.get(&1).as_deref(), Some("a"));
        assert_eq!(m.len(), 2);
        m.remove(&1);
        assert!(m.get(&1).is_none());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn remove_if_keeps_a_value_that_replaced_the_judged_one() {
        let m: Sharded<u64, Arc<u64>> = Sharded::new(4);
        m.insert(1, Arc::new(10));
        let judged = m.get(&1).unwrap();
        // Another thread replaces the value after it was judged.
        m.insert(1, Arc::new(10));
        assert!(!m.remove_if(&1, |v| Arc::ptr_eq(v, &judged)));
        assert!(m.get(&1).is_some(), "the fresh value survives");
        let fresh = m.get(&1).unwrap();
        assert!(m.remove_if(&1, |v| Arc::ptr_eq(v, &fresh)));
        assert!(m.get(&1).is_none());
        assert!(!m.remove_if(&1, |_| true), "nothing left to remove");
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
