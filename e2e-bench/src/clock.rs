//! Process CPU time.

/// User + system CPU time of the whole process — every thread, including
/// ones that have already exited — in nanoseconds.
///
/// `/proc/self/stat` carries the same quantity in 10 ms ticks, which is
/// 1–2 % of a round here; `clock_gettime` has nanosecond resolution.
#[cfg(target_os = "linux")]
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) and the clock id is a constant
    // the kernel defines; std already links the libc that provides the
    // symbol.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(target_os = "linux"))]
compile_error!(
    "pmr-e2e-bench reads CLOCK_PROCESS_CPUTIME_ID and serves over unix sockets: Linux only"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_counts_exited_threads() {
        let before = process_cpu_ns();
        let spin = || {
            let t0 = std::time::Instant::now();
            let mut x = 0u64;
            while t0.elapsed().as_millis() < 20 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
        };
        std::thread::scope(|s| {
            s.spawn(spin);
        });
        let after = process_cpu_ns();
        assert!(after - before >= 10_000_000, "20 ms of spinning showed {} ns", after - before);
    }
}
