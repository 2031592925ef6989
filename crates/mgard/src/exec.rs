//! Execution policy for the parallel data path.
//!
//! Every hot stage in this crate — the multilevel transforms, bit-plane
//! encoding/decoding, and the batch compress/retrieve APIs — accepts an
//! [`ExecPolicy`] that says how many worker threads to use. The parallel
//! paths are written so their output is *bit-identical* to the serial paths:
//! transform lines are fully independent, per-chunk error reductions keep
//! the larger of two numbers (exact, order-independent), and work is split
//! by the policy and the grid geometry, never by thread scheduling.

use pmr_codec::PlaneKernel;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Sentinel meaning "let the library pick" for [`ExecPolicy`] knobs.
pub const AUTO: usize = 0;

/// Grids smaller than this many points run the transforms serially even under
/// a parallel policy: thread startup would dominate the work.
pub const PARALLEL_MIN_POINTS: usize = 16_384;

/// Levels with fewer coefficients than this are encoded/decoded serially even
/// under a parallel policy.
pub const PARALLEL_MIN_COEFFS: usize = 16_384;

/// How work is spread across threads.
///
/// `threads == 0` (the [`AUTO`] sentinel and the default) resolves to
/// [`std::thread::available_parallelism`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Worker thread count; `0` = one per available core.
    pub threads: usize,
    /// Which bit-plane codec kernel the encode/decode stages use. Every
    /// kernel is bit-identical; [`PlaneKernel::Scalar`] keeps the legacy
    /// bit-at-a-time path alive as the differential oracle (and ignores
    /// `threads` for the bit-plane stage). Defaults to [`PlaneKernel::Auto`].
    pub kernel: PlaneKernel,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy { threads: AUTO, kernel: PlaneKernel::Auto }
    }
}

impl ExecPolicy {
    /// A policy that always runs on the calling thread.
    pub fn serial() -> Self {
        ExecPolicy { threads: 1, ..Self::default() }
    }

    /// A policy with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ExecPolicy { threads, ..Self::default() }
    }

    /// This policy with a different bit-plane kernel.
    pub fn with_kernel(mut self, kernel: PlaneKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The thread count after resolving the [`AUTO`] sentinel.
    ///
    /// `AUTO` is resolved once per process: the first call asks
    /// [`std::thread::available_parallelism`], which re-reads the affinity
    /// mask and cgroup files (tens of microseconds), and every later call
    /// reuses that answer. Every decode, encode and transform asks several
    /// times.
    pub fn resolved_threads(&self) -> usize {
        static AUTO_THREADS: OnceLock<usize> = OnceLock::new();
        if self.threads == AUTO {
            *AUTO_THREADS
                .get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        } else {
            self.threads
        }
    }

    /// Whether this policy runs on the calling thread only.
    pub fn is_serial(&self) -> bool {
        self.resolved_threads() <= 1
    }

    /// This policy, demoted to serial when the work is too small to amortise
    /// thread startup. Gating never changes results — parallel and serial
    /// agree bit-for-bit regardless.
    pub fn gate(&self, work_items: usize, min_items: usize) -> ExecPolicy {
        if work_items < min_items {
            ExecPolicy { threads: 1, ..*self }
        } else {
            *self
        }
    }
}

/// Run `work` on every job — on the calling thread when there is only one,
/// otherwise each on a scoped thread of its own. The callers split their
/// data by the policy's thread count, so the job count is the worker count.
pub(crate) fn for_each_job<J: Send>(
    jobs: impl ExactSizeIterator<Item = J>,
    work: impl Fn(J) + Sync,
) {
    if jobs.len() <= 1 {
        jobs.for_each(work);
    } else {
        std::thread::scope(|scope| {
            for job in jobs {
                let work = &work;
                scope.spawn(move || work(job));
            }
        });
    }
}

/// Map `work` over `0..n` on `threads` scoped workers claiming indices from
/// a shared cursor; results come back in index order whatever the
/// scheduling. The outer half of the batch APIs, which run each item under
/// a *serial* inner policy.
pub fn fan_out<T: Send>(threads: usize, n: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let slots = Mutex::new(&mut out);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work(i);
                // A poisoned lock means another worker panicked; the scope
                // re-raises that panic on join, so recovering the slot
                // table here is sound.
                slots.lock().unwrap_or_else(|p| p.into_inner())[i] = Some(item);
            });
        }
    });
    let filled: Vec<T> = out.into_iter().flatten().collect();
    // The cursor hands out every index exactly once; a hole is a dispatch
    // bug, not a runtime failure.
    assert_eq!(filled.len(), n, "batch worker left a slot unfilled");
    filled
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_to_at_least_one() {
        let p = ExecPolicy::default();
        assert!(p.resolved_threads() >= 1);
    }

    #[test]
    fn auto_resolves_to_the_same_count_every_call() {
        let first = ExecPolicy::default().resolved_threads();
        for _ in 0..100 {
            assert_eq!(ExecPolicy::default().resolved_threads(), first);
        }
    }

    #[test]
    fn serial_policy_is_serial() {
        assert!(ExecPolicy::serial().is_serial());
        assert_eq!(ExecPolicy::with_threads(4).resolved_threads(), 4);
        assert!(!ExecPolicy::with_threads(4).is_serial());
    }

    #[test]
    fn fan_out_keeps_index_order() {
        assert_eq!(fan_out(4, 100, |i| i * i), (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert!(fan_out(4, 0, |i| i).is_empty());
    }

    #[test]
    fn gate_demotes_small_work() {
        let p = ExecPolicy::with_threads(8);
        assert!(p.gate(100, 1000).is_serial());
        assert_eq!(p.gate(1000, 1000), p);
    }
}
