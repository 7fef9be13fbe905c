//! CPU-time clocks. Job latency and pass throughput are measured in CPU
//! time, which time slices given to other processes do not inflate, so a
//! job that was preempted reads the same as one that was not.

/// Which CPU-time clock to read.
#[derive(Debug, Clone, Copy)]
enum Clock {
    /// Every thread of this process.
    Process,
    /// The calling thread.
    Thread,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn read(clock: Clock) -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    // CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID on Linux.
    let id = match clock {
        Clock::Process => 2,
        Clock::Thread => 3,
    };
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on
    // 64-bit Linux) and `id` names a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock:?}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Elsewhere there is no portable CPU clock: fall back to wall time.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn read(_clock: Clock) -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// CPU time consumed so far by every thread of this process, in ns.
pub fn process_ns() -> u64 {
    read(Clock::Process)
}

/// CPU time consumed so far by the calling thread, in ns.
pub fn thread_ns() -> u64 {
    read(Clock::Thread)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work_and_not_with_sleep() {
        let (p0, t0) = (process_ns(), thread_ns());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let busy = thread_ns() - t0;
        assert!(busy > 0 && process_ns() > p0);
        let t1 = thread_ns();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(thread_ns() - t1 < 20_000_000, "a sleeping thread burns no CPU time");
    }
}
