//! Execution policy for the parallel data path, and the pool it runs on.
//!
//! An [`ExecPolicy`] (a thread count and a bit-plane kernel) is set once,
//! where the artifact is made: `CompressConfig::{threads, kernel}` drive
//! compression, and the artifact carries the policy (`Compressed::exec`)
//! to every retrieval of it. Only the decode primitives
//! (`DecodeOptions::exec`, `Compressed::retrieve_from_payloads`) and the
//! kernel-level `_with` oracles take another. The parallel paths are
//! written so their output is *bit-identical* to the serial paths:
//! transform lines are fully independent, per-chunk error reductions keep
//! the larger of two numbers (exact, order-independent), and work is split
//! by the policy and the grid geometry, never by thread scheduling or by
//! the size of the pool.
//!
//! The jobs of a parallel region run on the calling thread and on one
//! process-wide pool of parked workers (one per core but the caller's,
//! started on first use), so no region starts an OS thread. The pool owns
//! nesting: a region submitted while another is in flight — a kernel
//! called by a batch item of [`fan_out`], say — runs on its submitter's
//! thread, so no caller has to pick a serial inner policy.

use pmr_codec::PlaneKernel;
use pmr_error::sync::{rank, Condvar, Mutex};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Sentinel meaning "let the library pick" for [`ExecPolicy`] knobs.
pub const AUTO: usize = 0;

/// A transform step whose active grid has fewer points than this runs on the
/// calling thread even under a parallel policy: handing it to the pool
/// would cost more than the step.
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
    /// the hand-off to the pool. Gating never changes results — parallel and serial
    /// agree bit-for-bit regardless.
    pub fn gate(&self, work_items: usize, min_items: usize) -> ExecPolicy {
        if work_items < min_items {
            ExecPolicy { threads: 1, ..*self }
        } else {
            *self
        }
    }
}

/// Run `work` on every job, on the calling thread and the process-wide
/// worker pool. The callers cut their data by the policy's thread count,
/// never by the pool's size, so which thread runs a job never shows in the
/// output. A job's panic reaches the caller once every job has finished.
pub(crate) fn run_jobs<J: Send>(jobs: impl IntoIterator<Item = J>, work: impl Fn(J) + Sync) {
    let jobs: Vec<J> = jobs.into_iter().collect();
    #[cfg(test)]
    let work = tests::counted(jobs.len(), work);
    pool().spread_jobs(jobs, &work);
}

/// Map `work` over `0..n` on up to `threads` jobs claiming indices from a
/// shared cursor; results come back in index order whatever the
/// scheduling. The batch APIs run each item under its own artifact's
/// policy: while a fan-out of two or more jobs is in flight, every kernel
/// an item calls runs inline on the item's thread, and a one-job fan-out
/// publishes no region, so its items' kernels get the whole pool.
pub fn fan_out<T: Send>(threads: usize, n: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let slots = Mutex::new(rank::FAN_OUT_SLOTS, &mut out);
    let next = AtomicUsize::new(0);
    run_jobs(0..threads.max(1).min(n), |_| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = work(i);
        slots.lock()[i] = Some(item);
    });
    let filled: Vec<T> = out.into_iter().flatten().collect();
    // The cursor hands out every index exactly once; a hole is a dispatch
    // bug, not a runtime failure.
    assert_eq!(filled.len(), n, "batch worker left a slot unfilled");
    filled
}

/// The pool every parallel kernel runs on: a worker for every core but the
/// caller's, started on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::start("pmr-mgard-pool", ExecPolicy::default().resolved_threads() - 1))
}

/// Parked worker threads that serve one parallel region at a time.
///
/// A region's submitter publishes a task (claim a job, run it, repeat),
/// runs that task itself, then retracts it and waits until no worker is
/// inside it. A submitter that finds a region in flight — another
/// thread's, or its own when a kernel runs inside a job — runs its jobs
/// alone on its own thread instead of queueing behind it.
struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between regions.
    wake: Condvar,
    /// A submitter waits here for `running` to reach zero.
    idle: Condvar,
}

#[derive(Default)]
struct State {
    /// The in-flight region's task; `None` once its submitter retracts it.
    task: Option<&'static (dyn Fn() + Sync)>,
    /// Regions published so far: a worker joins each at most once.
    region: u64,
    /// Workers inside `task`.
    running: usize,
    /// Set when the pool is dropped: the workers exit.
    shutdown: bool,
}

impl Pool {
    /// A pool of `workers` threads named `name`. A worker the OS refuses to
    /// start leaves the pool smaller; every job still runs, on the caller
    /// if need be.
    fn start(name: &str, workers: usize) -> Pool {
        let shared = Arc::new(Shared {
            state: Mutex::new(rank::POOL, State::default()),
            wake: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..workers)
            .map_while(|_| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new().name(name.into()).spawn(move || shared.work_loop()).ok()
            })
            .collect();
        Pool { shared, workers }
    }

    /// Run `work` on every job, the caller and any idle workers claiming
    /// them in turn. Returns — or re-raises the first job's panic — once
    /// every job has finished.
    fn spread_jobs<J: Send>(&self, jobs: Vec<J>, work: &(impl Fn(J) + Sync)) {
        if jobs.len() < 2 || self.workers.is_empty() {
            return jobs.into_iter().for_each(work);
        }
        let queue = Mutex::new(rank::REGION_QUEUE, jobs.into_iter());
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(rank::REGION_PANIC, None);
        let claim = || queue.lock().next();
        let task = || {
            while let Some(job) = claim() {
                if let Err(panic) = catch_unwind(AssertUnwindSafe(|| work(job))) {
                    panicked.lock().get_or_insert(panic);
                }
            }
        };
        self.shared.offer_task(&task);
        if let Some(panic) = panicked.into_inner() {
            resume_unwind(panic);
        }
    }
}

impl Shared {
    /// Run `task` on the calling thread and on every worker that wakes in
    /// time; return once no worker is inside it. If a region is already in
    /// flight, the caller runs `task` alone.
    fn offer_task(&self, task: &(dyn Fn() + Sync)) {
        {
            let mut st = self.state.lock();
            if st.task.is_some() || st.running > 0 {
                drop(st);
                return task();
            }
            // A worker copies the reference out of `st.task` and counts
            // itself in `st.running` under one hold of the lock; `Retract`,
            // dropped before this function returns (on unwind too), clears
            // `st.task` under the lock and then waits for `running == 0`.
            // SAFETY: only the lifetime is erased, and by the above no worker
            // holds or can still take the reference once `task`'s borrow ends.
            let erased = unsafe {
                std::mem::transmute::<&(dyn Fn() + Sync + '_), &'static (dyn Fn() + Sync)>(task)
            };
            st.task = Some(erased);
            st.region += 1;
        }
        self.wake.notify_all();
        let _retract = Retract(self);
        task();
    }

    /// A worker's life: join every region published while it is parked,
    /// until the pool is dropped.
    fn work_loop(&self) {
        let mut seen = 0;
        let mut st = self.state.lock();
        while !st.shutdown {
            let fresh = st.task.filter(|_| st.region != seen);
            let Some(task) = fresh else {
                st = self.wake.wait(st);
                continue;
            };
            seen = st.region;
            st.running += 1;
            drop(st);
            task();
            st = self.state.lock();
            st.running -= 1;
            if st.running == 0 {
                self.idle.notify_all();
            }
        }
    }
}

/// Takes a region's task back and waits until no worker is inside it.
struct Retract<'a>(&'a Shared);

impl Drop for Retract<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.task = None;
        while st.running > 0 {
            st = self.0.idle.wait(st);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.state.lock().shutdown = true;
        self.shared.wake.notify_all();
        for worker in self.workers.drain(..) {
            // A worker cannot panic: every job runs under `catch_unwind`.
            worker.join().unwrap_or_default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Jobs this thread has handed to [`run_jobs`], and jobs it has run.
        static JOBS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    }

    /// `work`, counting its `n` jobs as submitted by this thread and each
    /// job as run by the thread that runs it.
    pub(super) fn counted<J>(n: usize, work: impl Fn(J) + Sync) -> impl Fn(J) + Sync {
        JOBS.set((JOBS.get().0 + n, JOBS.get().1));
        move |job| {
            JOBS.set((JOBS.get().0, JOBS.get().1 + 1));
            work(job)
        }
    }

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

    /// A pool of its own, so a test's regions never find the process pool
    /// busy with another test's and run inline. Dropping it joins its
    /// workers, which Miri's thread-leak check requires.
    fn test_pool(workers: usize) -> Pool {
        Pool::start("pmr-test-pool", workers)
    }

    #[test]
    fn a_panicking_job_reaches_the_caller_after_every_job_and_the_pool_serves_on() {
        let pool = test_pool(2);
        let caller = std::thread::current().id();
        // Jobs 0–2 wait for each other, so the caller and both workers
        // hold one each; the workers' two panic.
        let all_in = std::sync::Barrier::new(3);
        let finished = AtomicUsize::new(0);
        let raised = catch_unwind(AssertUnwindSafe(|| {
            pool.spread_jobs((0..6).collect(), &|j: usize| {
                if j < 3 {
                    all_in.wait();
                    assert_eq!(std::thread::current().id(), caller, "a worker's job fails");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let panic = raised.expect_err("the job's panic reaches the caller");
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("a worker's job fails"), "{message}");
        assert_eq!(finished.load(Ordering::Relaxed), 4, "every other job ran first");

        // Three jobs that all wait for each other finish only if both
        // workers take one: the pool still serves after the panic.
        let all_in = std::sync::Barrier::new(3);
        pool.spread_jobs(vec![(); 3], &|()| {
            all_in.wait();
        });
    }

    #[test]
    fn a_kernel_run_from_inside_a_job_runs_inline() {
        let pool = test_pool(2);
        let ran = AtomicUsize::new(0);
        pool.spread_jobs((0..4).collect(), &|_| {
            pool.spread_jobs((0..4).collect(), &|_: usize| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 16);

        // The same through the process pool and a real kernel.
        let coeffs: Vec<f64> = (0..600).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let serial =
            crate::bitplane::LevelEncoding::encode_with(&coeffs, 24, &ExecPolicy::serial());
        let want = serial.decode_with(20, &ExecPolicy::serial());
        run_jobs(0..3, |_| {
            let exec = ExecPolicy::with_threads(3);
            let enc = crate::bitplane::LevelEncoding::encode_with(&coeffs, 24, &exec);
            let got = enc.decode_with(20, &exec);
            assert!(got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()));
        });

        // What the batch APIs rely on: items that compress and decode under
        // the default policy, with no serial override, get the serial bits,
        // and while the fan-out is in flight every job their kernels submit
        // runs on the item's own thread. Miri has no pool workers, and these
        // sizes take minutes there.
        if cfg!(miri) {
            return;
        }
        use crate::{persist, CompressConfig, Compressed, DecodeOptions};
        use pmr_field::{Field, Shape};
        let fields: Vec<Field> = (0..4)
            .map(|t| {
                Field::from_fn("batch", t, Shape::d1(40_000), move |x, _, _| {
                    ((x + 97 * t) as f64 * 0.013).sin()
                })
            })
            .collect();
        let round_trip = |field: &Field, cfg: &CompressConfig| {
            let c = Compressed::compress(field, cfg);
            let plan = c.plan_theory(c.absolute_bound(1e-4));
            let out = c.decode_plan(&plan, &DecodeOptions::default()).expect("decode");
            let bits: Vec<u64> = out.data().iter().map(|v| v.to_bits()).collect();
            (persist::to_bytes(&c).expect("persist"), bits)
        };
        let serial = CompressConfig { threads: 1, ..CompressConfig::default() };
        let want: Vec<_> = fields.iter().map(|f| round_trip(f, &serial)).collect();
        // The fan-out is a region of its own only if no other test's region
        // is in flight when it starts: retry until it ran on two threads.
        loop {
            let items = fan_out(ExecPolicy::default().resolved_threads(), fields.len(), |i| {
                let before = JOBS.get();
                let got = round_trip(&fields[i], &CompressConfig::default());
                let (submitted, ran) = (JOBS.get().0 - before.0, JOBS.get().1 - before.1);
                (got, std::thread::current().id(), submitted, ran)
            });
            for ((got, ..), want) in items.iter().zip(&want) {
                assert!(got == want, "a batch item's output differs from the serial one");
            }
            if items.iter().any(|it| it.1 != items[0].1) {
                for &(_, _, submitted, ran) in &items {
                    assert!(submitted > 0, "the item's kernels ran no parallel region");
                    assert_eq!(ran, submitted, "an item's job ran on another thread");
                }
                break;
            }
            if super::pool().workers.is_empty() {
                break; // one core: the pool has no one to spread to
            }
        }
    }

    /// Miri reports one CPU, so there the process pool has no workers and
    /// this is four serial decodes; the test pools above cover the hand-off.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn concurrent_submitters_get_the_serial_bits() {
        use crate::{CompressConfig, Compressed, DecodeOptions};
        use pmr_field::{Field, Shape};
        let field = Field::from_fn("pool", 0, Shape::d1(40_000), |x, _, _| {
            (x as f64 * 0.013).sin() + (x as f64 * 0.0007).cos()
        });
        let cfg = CompressConfig { threads: 3, ..Default::default() };
        let c = Compressed::compress(&field, &cfg);
        let plan = c.plan_theory(c.absolute_bound(1e-4));
        let bits = |exec: ExecPolicy| -> Vec<u64> {
            let out = c.decode_plan(&plan, &DecodeOptions::with_exec(exec)).expect("decode");
            out.data().iter().map(|v| v.to_bits()).collect()
        };
        let want = bits(ExecPolicy::serial());
        std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| (0..5).all(|_| bits(ExecPolicy::with_threads(3)) == want)))
                .collect();
            for s in submitters {
                assert!(s.join().expect("submitter"), "a concurrent decode changed bits");
            }
        });
    }

    /// The process pool's workers, counted by name in `/proc/self/task`.
    #[cfg(target_os = "linux")]
    fn pool_threads() -> usize {
        let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == "pmr-mgard-pool")
            .count()
    }

    #[test]
    #[cfg(target_os = "linux")]
    #[cfg_attr(miri, ignore)]
    fn regions_start_no_threads() {
        let workers = ExecPolicy::default().resolved_threads() - 1;
        run_jobs(0..2, |_| {});
        assert_eq!(pool_threads(), workers);
        let runners = std::sync::Mutex::new(std::collections::HashSet::new());
        for _ in 0..1000 {
            run_jobs(0..4, |_| {
                runners.lock().expect("runners").insert(std::thread::current().id());
            });
        }
        assert_eq!(pool_threads(), workers, "a region started a thread");
        // The caller and the pool's workers, nobody else.
        assert!(runners.into_inner().expect("runners").len() <= workers + 1);
    }

    #[test]
    fn gate_demotes_small_work() {
        let p = ExecPolicy::with_threads(8);
        assert!(p.gate(100, 1000).is_serial());
        assert_eq!(p.gate(1000, 1000), p);
    }
}
