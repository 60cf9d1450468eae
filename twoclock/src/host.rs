//! Readings of the host the benchmark runs on: the wall clock, the
//! process's CPU clock (from the C library's `clock_gettime`, which the
//! standard library links on Linux) and its peak resident set.

use std::sync::OnceLock;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the process CPU clock is read through 64-bit Linux clock_gettime");

/// Host wall clock, from an origin shared by the whole process.
pub fn host_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Host CPU time consumed by the whole process (user and system, every
/// thread, live or exited), in nanoseconds.
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is
    // the kernel's constant for the calling process's CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set of this process's address space so far
/// (`VmHWM`), in MiB. (`getrusage`'s `ru_maxrss` would also count the
/// parent's peak from before `execve`, e.g. that of `cargo run`.)
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A point on both host clocks: wall and process CPU.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostStamp {
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

impl HostStamp {
    pub fn now() -> Self {
        HostStamp {
            wall_ns: host_ns(),
            cpu_ns: cpu_ns(),
        }
    }
}
