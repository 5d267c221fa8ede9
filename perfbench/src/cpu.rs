//! CPU clocks of the calling thread and of the whole process.
//!
//! The benchmark's timed metrics count CPU time, not wall time. On a shared
//! host, wall time also counts the time other tenants hold the cores, and
//! that moves by more than the benchmark's bounds between runs of the same
//! code. The kernel keeps CPU clocks per task, and a guest kernel with
//! paravirtual steal accounting leaves out the time the hypervisor ran
//! someone else. The solver runs on one thread (see
//! [`crate::SOLVER_THREADS`]), so an in-process op's thread CPU time is its
//! latency on a core of its own.

use std::os::raw::{c_int, c_long};

/// `struct timespec` on Linux, where `time_t` is a `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux clock ids (`<linux/time.h>`).
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn read(clock: c_int) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the calling thread has used.
pub fn thread_s() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds all threads of this process have used.
pub fn process_s() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_not_with_sleep() {
        let (t0, p0) = (thread_s(), process_s());
        let mut x = 0u64;
        while thread_s() - t0 < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        assert!(process_s() - p0 >= 0.02, "the process clock counts every thread");
        let t1 = thread_s();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(thread_s() - t1 < 0.01, "a sleeping thread uses no CPU");
    }
}
