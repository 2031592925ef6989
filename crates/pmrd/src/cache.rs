//! Shared plane-level LRU cache with single-flight request coalescing.
//!
//! The cache sits between the daemon's request handlers and each
//! dataset's [`pmr_storage::SegmentStore`]: entries are *verified* plane
//! payloads keyed `(dataset, level, plane)`, so a popular dataset's
//! coarse planes are fetched from the backing store once and served to
//! every tenant from memory.
//!
//! Coalescing is single-flight: the first request to miss on a key
//! becomes the *leader* and runs the fetch **with the cache lock
//! released**; concurrent requests for the same key park on a condvar
//! instead of issuing duplicate fetches. If the leader fails, one waiter
//! is promoted to leader and retries through its own executor (with its
//! own retry budget) — a fault in one request's fetch never poisons the
//! others, they just fall back to fetching themselves.

use pmr_error::sync::{rank, Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::Arc;

/// `(dataset id, level, plane)` — the cache address of one payload.
pub type PlaneKey = (u32, usize, u32);

/// How a payload was obtained, for per-request accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Served from the cache without waiting.
    Hit,
    /// Obtained by waiting on another request's in-flight fetch.
    Coalesced,
    /// This request ran the fetch itself (and populated the cache).
    Fetched,
}

/// Aggregate cache counters (monotonic since daemon start).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub evictions: u64,
    /// Payload bytes currently resident.
    pub resident_bytes: u64,
}

struct Entry {
    data: Arc<Vec<u8>>,
    stamp: u64,
}

#[derive(Default)]
struct State {
    entries: BTreeMap<PlaneKey, Entry>,
    /// LRU index: stamp → key. Stamps are unique (monotone counter).
    lru: BTreeMap<u64, PlaneKey>,
    /// Keys with a fetch in flight (single-flight leaders).
    inflight: std::collections::BTreeSet<PlaneKey>,
    stamp: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
}

impl State {
    fn touch(&mut self, key: PlaneKey) -> Option<Arc<Vec<u8>>> {
        let next = self.stamp;
        let entry = self.entries.get_mut(&key)?;
        let old = entry.stamp;
        entry.stamp = next;
        self.stamp += 1;
        let data = Arc::clone(&entry.data);
        self.lru.remove(&old);
        self.lru.insert(next, key);
        Some(data)
    }

    fn insert(&mut self, key: PlaneKey, data: Arc<Vec<u8>>, capacity: u64) {
        let len = data.len() as u64;
        if len > capacity {
            return; // a payload larger than the whole cache is never resident
        }
        while self.bytes + len > capacity {
            let Some((&old_stamp, &victim)) = self.lru.iter().next() else { break };
            self.lru.remove(&old_stamp);
            if let Some(e) = self.entries.remove(&victim) {
                self.bytes -= e.data.len() as u64;
                self.evictions += 1;
            }
        }
        let stamp = self.stamp;
        self.stamp += 1;
        self.bytes += len;
        self.lru.insert(stamp, key);
        if let Some(prev) = self.entries.insert(key, Entry { data, stamp }) {
            // Same key raced in twice (possible when a leader fails and the
            // promoted waiter re-fetches); drop the older copy's accounting.
            self.bytes -= prev.data.len() as u64;
            self.lru.remove(&prev.stamp);
        }
    }
}

/// The shared cache. One per daemon; cheap to share behind an `Arc`.
pub struct PlaneCache {
    state: Mutex<State>,
    cv: Condvar,
    capacity: u64,
}

impl PlaneCache {
    /// A cache holding at most `capacity` payload bytes.
    pub fn new(capacity: u64) -> Self {
        PlaneCache {
            state: Mutex::new(rank::PLANE_CACHE, State::default()),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// Fetch `key` through the cache: serve a resident copy, wait on an
    /// in-flight fetch, or run `fetch` as the leader (lock released) and
    /// publish the result. On leader failure waiters are woken and the
    /// first of them is promoted to run its own fetch.
    pub fn get_or_fetch<E>(
        &self,
        key: PlaneKey,
        fetch: impl FnOnce() -> Result<Vec<u8>, E>,
    ) -> Result<(Arc<Vec<u8>>, Origin), E> {
        let mut waited = false;
        let mut guard = self.state.lock();
        loop {
            if let Some(data) = guard.touch(key) {
                if waited {
                    guard.coalesced += 1;
                    drop(guard);
                    return Ok((data, Origin::Coalesced));
                }
                guard.hits += 1;
                drop(guard);
                return Ok((data, Origin::Hit));
            }
            if guard.inflight.contains(&key) {
                waited = true;
                guard = self.cv.wait(guard);
                continue;
            }
            // Become the leader for this key.
            guard.inflight.insert(key);
            guard.misses += 1;
            break;
        }
        drop(guard);

        let outcome = fetch();

        let mut guard = self.state.lock();
        guard.inflight.remove(&key);
        match outcome {
            Ok(bytes) => {
                let data = Arc::new(bytes);
                guard.insert(key, Arc::clone(&data), self.capacity);
                self.cv.notify_all();
                drop(guard);
                Ok((data, Origin::Fetched))
            }
            Err(e) => {
                // Wake waiters so one can promote itself to leader.
                self.cv.notify_all();
                drop(guard);
                Err(e)
            }
        }
    }

    /// Current aggregate counters.
    pub fn stats(&self) -> CacheStats {
        let g = self.state.lock();
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            coalesced: g.coalesced,
            evictions: g.evictions,
            resident_bytes: g.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn a_fetch_runs_with_the_cache_lock_released() {
        // The fetch calls back into the cache it fills. Run under the cache
        // lock, it would take that lock's rank again: a panic in debug
        // builds, a deadlock in release ones.
        let cache = PlaneCache::new(64);
        let (data, origin) = cache
            .get_or_fetch::<()>((0, 0, 0), || {
                assert_eq!(cache.stats().misses, 1);
                let (inner, _) = cache.get_or_fetch((0, 0, 1), || Ok(vec![2; 4]))?;
                Ok(inner.iter().map(|b| b + 1).collect())
            })
            .expect("fetch");
        assert_eq!((data.as_slice(), origin), (&[3u8; 4][..], Origin::Fetched));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn hit_after_miss_and_lru_eviction() {
        let cache = PlaneCache::new(10);
        let (a, o) = cache.get_or_fetch::<()>((0, 0, 0), || Ok(vec![1; 4])).expect("fetch");
        assert_eq!((a.len(), o), (4, Origin::Fetched));
        let (_, o) = cache.get_or_fetch::<()>((0, 0, 0), || Ok(vec![9; 4])).expect("hit");
        assert_eq!(o, Origin::Hit);
        // Two more 4-byte entries overflow the 10-byte budget: the LRU
        // victim is (0,0,1) after (0,0,0) is touched again.
        cache.get_or_fetch::<()>((0, 0, 1), || Ok(vec![2; 4])).expect("fetch");
        cache.get_or_fetch::<()>((0, 0, 0), || Ok(vec![1; 4])).expect("touch");
        cache.get_or_fetch::<()>((0, 0, 2), || Ok(vec![3; 4])).expect("fetch");
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= 10);
        let (_, o) = cache.get_or_fetch::<()>((0, 0, 0), || Ok(vec![1; 4])).expect("still hot");
        assert_eq!(o, Origin::Hit);
        let (_, o) = cache.get_or_fetch::<()>((0, 0, 1), || Ok(vec![2; 4])).expect("evicted");
        assert_eq!(o, Origin::Fetched);
    }

    #[test]
    fn oversized_payloads_pass_through_without_residency() {
        let cache = PlaneCache::new(8);
        cache.get_or_fetch::<()>((0, 0, 0), || Ok(vec![1; 64])).expect("fetch");
        assert_eq!(cache.stats().resident_bytes, 0);
        let (_, o) = cache.get_or_fetch::<()>((0, 0, 0), || Ok(vec![1; 64])).expect("refetch");
        assert_eq!(o, Origin::Fetched);
    }

    #[test]
    fn concurrent_requests_coalesce_to_one_fetch() {
        let cache = Arc::new(PlaneCache::new(1 << 20));
        let fetches = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let fetches = Arc::clone(&fetches);
                std::thread::spawn(move || {
                    cache
                        .get_or_fetch::<()>((7, 1, 2), || {
                            fetches.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            Ok(vec![42; 100])
                        })
                        .expect("fetch")
                })
            })
            .collect();
        let outcomes: Vec<Origin> =
            threads.into_iter().map(|t| t.join().expect("thread").1).collect();
        assert_eq!(fetches.load(Ordering::SeqCst), 1, "single-flight must fetch once");
        assert_eq!(outcomes.iter().filter(|&&o| o == Origin::Fetched).count(), 1);
        assert!(
            outcomes.iter().filter(|&&o| o == Origin::Coalesced).count() >= 1,
            "with a 30 ms fetch, at least one of 8 threads must have parked: {outcomes:?}"
        );
    }

    #[test]
    fn leader_failure_promotes_a_waiter() {
        let cache = Arc::new(PlaneCache::new(1 << 20));
        let attempts = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let attempts = Arc::clone(&attempts);
                std::thread::spawn(move || {
                    cache.get_or_fetch((3, 0, 0), || {
                        let n = attempts.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        if n == 0 {
                            Err("leader dies")
                        } else {
                            Ok(vec![7; 10])
                        }
                    })
                })
            })
            .collect();
        let results: Vec<_> = threads.into_iter().map(|t| t.join().expect("thread")).collect();
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1, "only the leader fails");
        assert!(results.iter().any(|r| r.is_ok()), "a promoted waiter succeeds");
        assert!(attempts.load(Ordering::SeqCst) >= 2);
    }
}
