//! What the benchmark reads from the host: the clock, the core count,
//! the last-level cache size, memory, and this process's peak RSS.

use std::sync::OnceLock;
use std::time::Instant;

/// The one clock read of the benchmark. Every span, latency and set-up
/// time is a difference of two values of this function.
pub fn now() -> Instant {
    // gaia-analyze: allow(timing): the benchmark measures the repo from
    // outside; wall time between public calls is its whole deliverable.
    Instant::now()
}

/// Seconds since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    now().duration_since(t0).as_secs_f64()
}

/// Cores available to this process when it first asked — the thread
/// count `T` of every parallel workload. Never more threads or clients
/// than this. Read once, so [`confine_to_current_core`] does not change it.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The calling thread confined to one core; dropping it gives the thread
/// its earlier cores back.
pub struct OneCore {
    /// The core's number.
    pub cpu: usize,
    earlier: CpuSet,
}

/// The kernel's `cpu_set_t`: one bit per core, 1024 of them.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn set_affinity(mask: &CpuSet) -> Result<(), String> {
    // SAFETY: a libc call (std links libc on Linux) that reads
    // `size_of_val(mask)` bytes from `mask`, which outlives it; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    if rc != 0 {
        let e = std::io::Error::last_os_error();
        return Err(format!("sched_setaffinity: {e}"));
    }
    Ok(())
}

/// Confine the calling thread, and every thread it starts while the
/// result lives, to the core it is running on.
///
/// `dist-2rank` times its ranks this way. Two ranks in lock-step on the
/// two vCPUs of a shared host wait for whichever vCPU the host served
/// last: the median solve of the same code spread by a third from run to
/// run there. On one core the ranks take turns, and a solve takes the
/// work of both, which repeats as well as a single-thread solve does.
pub fn confine_to_current_core() -> Result<OneCore, String> {
    // Read the core count before it shrinks to one.
    nproc();
    let mut earlier: CpuSet = [0; 16];
    // SAFETY: as in `set_affinity`, but the call writes at most
    // `size_of_val(&earlier)` bytes to `earlier`.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&earlier), earlier.as_mut_ptr()) };
    if rc != 0 {
        let e = std::io::Error::last_os_error();
        return Err(format!("sched_getaffinity: {e}"));
    }
    // SAFETY: a libc call without arguments.
    let cpu = unsafe { sched_getcpu() };
    let mut one: CpuSet = [0; 16];
    let word = usize::try_from(cpu).ok().and_then(|c| one.get_mut(c / 64));
    let Some(word) = word else {
        return Err(format!("sched_getcpu returned {cpu}"));
    };
    *word = 1 << (cpu % 64);
    set_affinity(&one)?;
    Ok(OneCore {
        cpu: cpu as usize,
        earlier,
    })
}

impl Drop for OneCore {
    fn drop(&mut self) {
        set_affinity(&self.earlier).ok();
    }
}

fn proc_kb(file: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_kb("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Memory the kernel estimates can be allocated without swapping, in MB.
pub fn mem_available_mb() -> f64 {
    proc_kb("/proc/meminfo", "MemAvailable:").map_or(1024.0, |kb| kb / 1024.0)
}

/// Size of the largest cache of cpu0 in MB, as sysfs reports it. Falls
/// back to 32 MB where sysfs has no cache directory (some containers).
pub fn llc_mb() -> f64 {
    let mut best = 0.0f64;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, scale) = match text.as_bytes().last() {
            Some(b'K') => (&text[..text.len() - 1], 1.0 / 1024.0),
            Some(b'M') => (&text[..text.len() - 1], 1.0),
            Some(b'G') => (&text[..text.len() - 1], 1024.0),
            _ => (text, 1.0 / (1024.0 * 1024.0)),
        };
        if let Ok(v) = digits.parse::<f64>() {
            best = best.max(v * scale);
        }
    }
    if best > 0.0 {
        best
    } else {
        32.0
    }
}
