//! Process clock and resource usage, read from the C library that the
//! standard library already links.
//!
//! The monotonic clock is system-wide, so span timestamps taken in the
//! load-generator process and in the server child share one time base.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
/// which only the first (`ru_maxrss`, KiB) is read.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_MONOTONIC: i32 = 1;
const RUSAGE_SELF: i32 = 0;

/// Nanoseconds on the system-wide monotonic clock.
pub fn mono_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` with the
    // C layout (two 64-bit fields on 64-bit Linux), and
    // CLOCK_MONOTONIC always exists, so the call only writes `ts`.
    let rc = unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time and peak resident memory of this process.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// User plus system CPU time, microseconds.
    pub cpu_us: u64,
    /// Peak resident set size, KiB.
    pub maxrss_kb: u64,
}

/// Resource usage of the calling process (all threads).
pub fn usage() -> Usage {
    let zero = Timeval {
        tv_sec: 0,
        tv_usec: 0,
    };
    let mut ru = Rusage {
        ru_utime: zero,
        ru_stime: zero,
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage` with the
    // 64-bit Linux layout declared above; RUSAGE_SELF is always a
    // valid `who`, so the call only writes `ru`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let tv_us = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Usage {
        cpu_us: tv_us(&ru.ru_utime) + tv_us(&ru.ru_stime),
        maxrss_kb: ru.ru_maxrss as u64,
    }
}

/// Host-wide CPU time counters from `/proc/stat`, in clock ticks:
/// (all time, time stolen by the hypervisor). Zero where unreadable.
pub fn host_cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal ...
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}
