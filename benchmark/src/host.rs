//! The benchmark's view of the machine: CPU placement, resource usage,
//! and the host object every result file carries.
//!
//! Placement is the first half of the noise method (README, "Noise
//! method"): a thread's affinity mask is inherited by the threads it
//! spawns, so setting it on the main thread *before* a server is built
//! confines every program thread with it.

use std::ffi::{c_int, c_long};

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals and 14 longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    _ixrss: c_long,
    _idrss: c_long,
    _isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    _nswap: c_long,
    _inblock: c_long,
    _oublock: c_long,
    _msgsnd: c_long,
    _msgrcv: c_long,
    _nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

extern "C" {
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
}

/// Logical cores visible to this process at start-up (before any mask).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Which cores a phase may run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Every core.
    All,
    /// Core 0 only — generator and program share it, so throughput is
    /// 1 / (CPU per lookup over the whole path).
    Core0,
    /// Every core except core 0 (where the paced generator spins). On a
    /// one-core host this is core 0 and the run is marked invalid.
    Others,
}

/// Restrict the calling thread (and every thread it spawns from now on)
/// to `p`. Returns false when the kernel refused; the caller records
/// that as an invalid run rather than failing.
pub fn place(p: Placement, nproc: usize) -> bool {
    let n = nproc.clamp(1, 64);
    let all: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mask = match p {
        Placement::All => all,
        Placement::Core0 => 1,
        Placement::Others if n > 1 => all & !1,
        Placement::Others => 1,
    };
    // SAFETY: `mask` is a live u64 and the size passed is its size; pid 0
    // means the calling thread. The call reads the mask and nothing else.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Process-wide resource usage so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Peak resident set, MiB.
    pub max_rss_mb: f64,
    /// Voluntary + involuntary context switches.
    pub ctxsw: u64,
}

impl Usage {
    /// Usage accumulated between `earlier` and `self` (peak RSS is not a
    /// difference: it is the later peak).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            max_rss_mb: self.max_rss_mb,
            ctxsw: self.ctxsw - earlier.ctxsw,
        }
    }

    /// User + system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, correctly laid out `struct rusage`; who = 0
    // is RUSAGE_SELF. On failure the zeroed struct is returned as is.
    unsafe { getrusage(0, &mut raw) };
    let tv = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: tv(raw.utime),
        sys_s: tv(raw.stime),
        max_rss_mb: raw.maxrss as f64 / 1024.0,
        ctxsw: (raw.nvcsw + raw.nivcsw) as u64,
    }
}

/// One-minute load average (0 where `/proc` is missing).
pub fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_owned())
}

/// Sizes of core 0's caches as the kernel reports them, e.g.
/// `[("L1d","48K"),("L2","2048K")]`.
fn cache_sizes() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(size)) =
            (read_trim(&format!("{base}/level")), read_trim(&format!("{base}/size")))
        else {
            continue;
        };
        let kind = match read_trim(&format!("{base}/type")).as_deref() {
            Some("Data") => "d",
            Some("Instruction") => "i",
            _ => "",
        };
        out.push((format!("L{level}{kind}"), size));
    }
    out
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_default()
}

/// What machine and tree produced a result file.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical cores.
    pub cores: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// Cache level → size.
    pub caches: Vec<(String, String)>,
    /// Kernel release.
    pub kernel: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Commit hash, `"unknown"` outside a git checkout.
    pub commit: String,
    /// Whether the tree had uncommitted changes.
    pub dirty: bool,
}

/// Capture the host object. Never fails: what cannot be read is
/// `"unknown"`, because the benchmark must run the same everywhere
/// (the driver's checkout is not a git repository).
pub fn capture() -> Host {
    let ctx = dini_obs::host_context();
    let or_unknown = |s: String| if s.is_empty() { "unknown".to_owned() } else { s };
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = !commit.is_empty() && !command_line("git", &["status", "--porcelain"]).is_empty();
    Host {
        cores: ctx.cores,
        cpu_model: ctx.cpu_model,
        caches: cache_sizes(),
        kernel: or_unknown(read_trim("/proc/sys/kernel/osrelease").unwrap_or_default()),
        rustc: or_unknown(command_line("rustc", &["--version"])),
        commit: or_unknown(commit),
        dirty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_moves_forward() {
        let a = usage();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = usage();
        assert!(b.cpu_s() >= a.cpu_s());
        assert!(b.max_rss_mb > 0.0);
        assert!(b.since(&a).ctxsw <= b.ctxsw);
    }

    #[test]
    fn placement_round_trips() {
        let n = nproc();
        assert!(place(Placement::Core0, n));
        assert!(place(Placement::Others, n));
        assert!(place(Placement::All, n));
    }
}
