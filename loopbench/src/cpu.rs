//! On-CPU time of this process.
//!
//! The gated op and set-up times are on-CPU time, not wall time: on a
//! shared virtual host the hypervisor steals the vCPU for whole
//! milliseconds at a time (up to 18% of the time on the 2-vCPU host the
//! bounds were set on), and wall time charges those gaps to the
//! program. On an idle host a single-threaded op's CPU time equals its
//! wall time.

/// Nanoseconds of CPU time all threads of this process have used.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, linked by `std` on
    // every Linux target; `ts` is a live, writable `timespec` (two
    // 64-bit fields on 64-bit Linux) and the clock id is a valid
    // constant, so the call writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Wall time since first use, where no process CPU clock is wired up.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Milliseconds between two [`process_ns`] readings.
pub fn ms(from: u64, to: u64) -> f64 {
    (to - from) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let t0 = process_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let t1 = process_ns();
        assert!(t1 > t0);
        assert!(ms(t0, t1) > 0.0);
    }
}
