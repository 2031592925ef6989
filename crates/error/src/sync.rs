//! Ranked locks: the `std::sync` locks, each with a rank from [`rank`].
//!
//! A thread may take a lock only while every lock it already holds ranks
//! strictly below it. Lock-order cycles and self-deadlocks then cannot
//! form. Debug builds check the rule: each thread keeps the ranks it holds,
//! and taking a rank at or below one of them panics *before* it blocks, so
//! a self-deadlock fails its test instead of hanging it. Release builds
//! keep no list, and the wrappers compile to the plain std locks.
//!
//! A poisoned lock is used as it is. Every lock here guards plain data,
//! and the panic that poisoned it goes on unwinding its own thread.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self as std_sync, PoisonError};

/// The rank of every lock in the workspace, outermost first. A lock that
/// is taken while another is held must rank above it.
pub mod rank {
    /// `pmrd`: the connection queue, held by the worker waiting in `recv`.
    pub const DAEMON_QUEUE: u32 = 10;
    /// `pmrd`: the shutdown handles of the connections being served.
    pub const DAEMON_CONNS: u32 = 11;
    /// `pmrd`: per-tenant admission counts.
    pub const ADMISSION: u32 = 20;
    /// `pmrd`: the plane cache. A fetch runs with it released.
    pub const PLANE_CACHE: u32 = 30;
    /// `pmrd-load`: the load generator's tally.
    pub const LOAD_TALLY: u32 = 40;
    /// `pmr-storage`: a fault injector's attempt counters, then its log.
    pub const FAULT_ATTEMPTS: u32 = 50;
    pub const FAULT_LOG: u32 = 51;
    /// `pmr-storage`: a segment log's appender, then the index a batch
    /// updates under it.
    pub const SEGMENT_APPENDER: u32 = 60;
    pub const SEGMENT_INDEX: u32 = 61;
    /// `pmr-storage`: an in-memory store's segments.
    pub const MEM_SEGMENTS: u32 = 62;
    /// `pmr-mgard`: the worker pool's state.
    pub const POOL: u32 = 70;
    /// `pmr-mgard`: one parallel region's job queue, first panic and
    /// `fan_out` result slots.
    pub const REGION_QUEUE: u32 = 71;
    pub const REGION_PANIC: u32 = 72;
    pub const FAN_OUT_SLOTS: u32 = 73;
}

#[cfg(debug_assertions)]
thread_local! {
    /// The ranks of the locks this thread holds.
    static HELD: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// A lock's rank: kept and checked in debug builds, zero-sized otherwise.
#[derive(Clone, Copy)]
struct Rank(#[cfg(debug_assertions)] u32);

/// A rank this thread holds; dropping it lets go of it.
struct Held(#[cfg(debug_assertions)] u32);

#[cfg(debug_assertions)]
impl Rank {
    const fn new(rank: u32) -> Rank {
        Rank(rank)
    }

    /// Record that this thread is about to take a lock of this rank.
    #[expect(clippy::panic, reason = "a lock-order violation must fail, not deadlock")]
    fn take(self) -> Held {
        let rank = self.0;
        let top = HELD.with_borrow_mut(|held| {
            let top = held.iter().copied().max().filter(|&top| top >= rank);
            if top.is_none() {
                held.push(rank);
            }
            top
        });
        if let Some(top) = top {
            panic!("lock of rank {rank} taken while this thread holds rank {top}");
        }
        Held(rank)
    }
}

#[cfg(not(debug_assertions))]
impl Rank {
    const fn new(_rank: u32) -> Rank {
        Rank()
    }

    #[inline(always)]
    fn take(self) -> Held {
        Held()
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        // A guard dropped by a thread-local's destructor may outlive this
        // list; there is nothing left to update then.
        HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.iter().rposition(|&r| r == self.0) {
                held.swap_remove(i);
            }
        })
        .unwrap_or_default();
    }
}

/// A [`std::sync::Mutex`] with a rank.
pub struct Mutex<T: ?Sized> {
    rank: Rank,
    inner: std_sync::Mutex<T>,
}

/// A [`Mutex`]'s guard; the lock and the rank are let go of on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std_sync::MutexGuard<'a, T>,
    _held: Held,
}

impl<T> Mutex<T> {
    pub const fn new(rank: u32, value: T) -> Self {
        Mutex { rank: Rank::new(rank), inner: std_sync::Mutex::new(value) }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is this thread's. In debug builds, panic first
    /// if this thread holds a lock of this rank or above.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = self.rank.take();
        MutexGuard { inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner), _held: held }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A [`std::sync::Condvar`] that waits on a [`MutexGuard`].
#[derive(Debug, Default)]
pub struct Condvar(std_sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(std_sync::Condvar::new())
    }

    /// Release `guard`'s lock, park until notified, and take it again. The
    /// rank stays held while parked: the thread takes nothing meanwhile.
    #[inline]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard { inner, _held } = guard;
        MutexGuard { inner: self.0.wait(inner).unwrap_or_else(PoisonError::into_inner), _held }
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A [`std::sync::RwLock`] with a rank. A second read of the same lock on
/// one thread counts as a violation too: it deadlocks behind a queued
/// writer.
pub struct RwLock<T: ?Sized> {
    rank: Rank,
    inner: std_sync::RwLock<T>,
}

/// Shared access to an [`RwLock`]'s value.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std_sync::RwLockReadGuard<'a, T>,
    _held: Held,
}

/// Exclusive access to an [`RwLock`]'s value.
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std_sync::RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T> RwLock<T> {
    pub const fn new(rank: u32, value: T) -> Self {
        RwLock { rank: Rank::new(rank), inner: std_sync::RwLock::new(value) }
    }
}

impl<T: ?Sized> RwLock<T> {
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = self.rank.take();
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }

    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = self.rank.take();
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "rank 5 taken while this thread holds rank 5")
    )]
    fn a_second_lock_of_one_rank_panics() {
        let (a, b) = (Mutex::new(5, 0), Mutex::new(5, 0));
        let _a = a.lock();
        let _b = b.lock();
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "rank 1 taken while this thread holds rank 2")
    )]
    fn a_lower_rank_under_a_higher_one_panics() {
        let (low, high) = (RwLock::new(1, 0), Mutex::new(2, 0));
        let _high = high.lock();
        let _low = low.read();
    }

    #[test]
    fn a_dropped_guard_lets_go_of_its_rank() {
        let (low, high) = (Mutex::new(1, 0), RwLock::new(2, 0));
        let outer = low.lock();
        *high.write() += 1;
        drop(outer);
        // Rank 2 came and went: rank 1 may be taken again.
        drop(high.read());
        *low.lock() += 1;
        assert_eq!((*low.lock(), *high.read()), (1, 1));
    }

    #[test]
    fn a_condvar_wait_round_trips() {
        let pair = Arc::new((Mutex::new(1, false), Condvar::new()));
        let peer = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            *peer.0.lock() = true;
            peer.1.notify_all();
        });
        let mut ready = pair.0.lock();
        while !*ready {
            ready = pair.1.wait(ready);
        }
        drop(ready);
        t.join().unwrap_or_default();
        // The rank went with the guard: the lock can be taken again.
        assert!(*pair.0.lock());
    }

    #[test]
    fn a_poisoned_lock_is_still_usable() {
        let m = Arc::new(Mutex::new(1, 7));
        let peer = Arc::clone(&m);
        let poisoned = std::thread::spawn(move || {
            let _g = peer.lock();
            panic!("poison it");
        })
        .join();
        assert!(poisoned.is_err());
        assert_eq!(*m.lock(), 7);
        *m.lock() += 1;
        let m = Arc::try_unwrap(m).unwrap_or_else(|_| panic!("one owner left"));
        assert_eq!(m.into_inner(), 8);
    }
}
