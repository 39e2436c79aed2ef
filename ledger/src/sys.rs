//! The ledger's operating-system surface: a machine-wide monotonic
//! clock, process resource usage, child reaping with usage, CPU pinning,
//! and the counting allocator.
//!
//! The raw entry points are declared here directly (`std` already links
//! libc), the way `vendor/epoll` declares its syscalls, so the benchmark
//! depends on nothing outside its own directory but the system under
//! test. Layouts are the Linux x86-64 / aarch64 LP64 ABI.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `struct rusage`: two timevals followed by fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RawRusage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const WNOHANG: i32 = 1;
const CLOCK_MONOTONIC: i32 = 1;

/// CPU and context switches of one process over its life (or so far,
/// for [`self_usage`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Voluntary context switches: the process gave the CPU up to wait.
    pub vcsw: u64,
}

impl Usage {
    /// User + system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

impl From<RawRusage> for Usage {
    fn from(r: RawRusage) -> Usage {
        let secs = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage { user_s: secs(r.utime), sys_s: secs(r.stime), vcsw: r.nvcsw.max(0) as u64 }
    }
}

/// This process's usage so far.
pub fn self_usage() -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, correctly laid out `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    raw.into()
}

/// Peak resident set of *this* process's address space, MiB: `VmHWM` of
/// `/proc/self/status` (0 if unreadable).
///
/// Not `ru_maxrss`: on Linux a child's `ru_maxrss` starts from its
/// parent's resident set at fork — exec folds the old address space's
/// high-water mark into it — so a worker spawned by a 12 MiB parent
/// "peaks" at 12 MiB whatever it does. `VmHWM` belongs to the address
/// space exec created.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Reap child `pid` if it has exited: `Ok(Some((exited_cleanly, usage)))`
/// once, `Ok(None)` while it is still running. Never blocks, so callers
/// can enforce their own deadline.
pub fn try_reap(pid: u32) -> io::Result<Option<(bool, Usage)>> {
    let mut status = 0i32;
    let mut raw = RawRusage::default();
    // SAFETY: both out-pointers reference live stack values of the
    // layouts `wait4` writes.
    let rc = unsafe { wait4(pid as i32, &mut status, WNOHANG, &mut raw) };
    match rc {
        0 => Ok(None),
        rc if rc < 0 => Err(io::Error::last_os_error()),
        // WIFEXITED && WEXITSTATUS == 0.
        _ => Ok(Some((status & 0x7f == 0 && (status >> 8) & 0xff == 0, raw.into()))),
    }
}

/// Nanoseconds on `CLOCK_MONOTONIC`, which every process on the machine
/// shares — so a stamp taken in one worker can be subtracted from one
/// taken in another.
pub fn now_ns() -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a live `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
    debug_assert_eq!(rc, 0);
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Pin this process — the calling thread and every thread it starts
/// from now on — to the `nth` CPU it is allowed to run on. `false`, and
/// nothing changes, when it is allowed fewer CPUs than that.
pub fn pin_to_nth_cpu(nth: usize) -> bool {
    const WORDS: usize = 16; // room for 1024 CPUs, the kernel's usual limit
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is live and its size in bytes is passed along.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(cpu) = (0..WORDS * 64).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1).nth(nth) else {
        return false;
    };
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the mask names one CPU the process may use.
    unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) == 0 }
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus one relaxed counter. Workers are this same
/// binary, so the count covers the whole data plane they host.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` unchanged; the counter has
// no bearing on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations (incl. reallocations) made by this process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_usage_reads() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        assert!(self_usage().cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.5, "a test binary has touched more than half a MiB");
    }

    #[test]
    fn pinning_takes_an_allowed_cpu_or_leaves_the_thread_alone() {
        // On its own thread: the affinity of the test runner's stays.
        std::thread::spawn(|| {
            assert!(pin_to_nth_cpu(0), "every process may run somewhere");
            assert!(!pin_to_nth_cpu(1), "one CPU is allowed now, so there is no second");
            assert!(!pin_to_nth_cpu(100_000));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn allocations_are_counted() {
        let before = allocs();
        let v = std::hint::black_box(vec![0u8; 4096]);
        assert!(allocs() > before);
        drop(v);
    }

    #[test]
    // The children are reaped below, through `wait4` instead of std.
    #[allow(clippy::zombie_processes)]
    fn reap_reports_exit_status_and_usage() {
        let reap = |program: &str| {
            let child = std::process::Command::new(program).spawn().unwrap();
            loop {
                if let Some(reaped) = try_reap(child.id()).unwrap() {
                    break reaped;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        };
        assert!(reap("true").0, "`true` exits 0");
        assert!(!reap("false").0, "`false` exits 1");
        assert!(try_reap(1).is_err(), "pid 1 is nobody's child here");
    }
}
