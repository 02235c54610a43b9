//! The two things that make a timing repeat on a shared host: the calling
//! thread's on-CPU clock, and a calibration kernel to divide by.
//!
//! On the sandbox this benchmark is gated on, the wall time of identical
//! work moves by 10–30 % between runs a minute apart (other tenants of the
//! host) and `fsync` latency by 10×, so a bound of a tenth on wall time
//! cannot hold. What does repeat, within 3–5 %, is the statement's on-CPU
//! time divided by the on-CPU time of a fixed kernel run between rounds in
//! the same process: host-speed changes move both alike, and time blocked
//! on the device or stolen by the hypervisor is in neither. Wall times are
//! still printed beside it, ungated.

use std::collections::BTreeSet;
use std::hint::black_box;

/// CPU time consumed by the calling thread so far, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`). std has no such clock, so this is the one
/// foreign call of the benchmark.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which the cfg above guarantees) for the
    // whole call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_THREAD_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Strings the calibration kernel formats, orders and clones.
const KERNEL_ITEMS: usize = 3000;

/// The calibration kernel: fixed work of the kind the engine does —
/// formatting, allocation, ordered-set insertion by string comparison,
/// cloning — and none of the engine's code, so an engine change cannot
/// move it. Returns its on-CPU time in seconds (about a millisecond).
pub fn calibrate() -> f64 {
    let start = thread_cpu();
    let mut set = BTreeSet::new();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for _ in 0..KERNEL_ITEMS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        set.insert(format!("{x}"));
    }
    let copy: Vec<String> = set.iter().cloned().collect();
    black_box(copy.len());
    thread_cpu() - start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = thread_cpu();
        let spent = calibrate();
        assert!(spent > 0.0);
        assert!(thread_cpu() - before >= spent);
    }
}
