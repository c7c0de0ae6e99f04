//! Host CPU time from `getrusage(2)`, and peak resident set size from
//! `/proc`.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// CPU seconds (user + sys) of one rusage scope.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_s: f64,
}

fn usage(who: i32) -> Usage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the kernel's
    // 64-bit Linux layout, and `who` is one of the two documented scopes;
    // getrusage writes only inside the struct.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed for a documented scope");
    let secs = |t: TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(ru.utime) + secs(ru.stime),
    }
}

/// This process, all threads.
pub fn own() -> Usage {
    usage(RUSAGE_SELF)
}

/// Every child process that has been waited for. (Its rusage peak RSS
/// would not be the children's own: a spawned child's high-water mark
/// starts from the parent's, so [`peak_rss_mb_of`] reads a live child's.)
pub fn children() -> Usage {
    usage(RUSAGE_CHILDREN)
}

/// Hand the allocator's free memory back to the system, then reset this
/// process's peak resident set size to its current size (Linux 4.0 and
/// later). The next [`peak_rss_mb_of`] reading of this process then
/// covers only what runs after the reset, from a resident set that holds
/// no memory freed before it.
pub fn reset_own_peak_rss() -> Result<(), String> {
    // SAFETY: glibc's `malloc_trim` only releases free memory of every
    // arena; it takes no pointers and is safe to call at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset this process's peak RSS: {e}"))
}

/// Peak resident set size of a live process (`VmHWM`), in MB.
pub fn peak_rss_mb_of(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read status of process {pid}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM for process {pid}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_usage_grows_with_work() {
        let before = own();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = own();
        assert!(after.cpu_s > before.cpu_s);
    }

    #[test]
    fn a_reset_drops_the_peak_of_freed_memory() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let me = std::process::id();
        let before = peak_rss_mb_of(me).expect("own status");
        reset_own_peak_rss().expect("own clear_refs");
        let after = peak_rss_mb_of(me).expect("own status");
        assert!(
            after + 32.0 < before,
            "{after} MB after a reset from {before} MB"
        );
    }
}
