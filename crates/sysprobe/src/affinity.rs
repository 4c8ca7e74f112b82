//! Thread placement: which cores the calling thread may run on, and
//! pinning it to one of them.
//!
//! Two calls into the C library the Rust runtime already links, no
//! crate in between: `sched_getaffinity` for the allowed set (a process
//! confined by `taskset`, a cgroup cpuset or a container runtime sees
//! fewer cores than the machine has, and must not be pinned outside
//! them) and `sched_setaffinity(0, …)` to pin the calling thread. On a
//! target other than Linux the set is empty and nothing pins.

/// Mask width in 64-bit words: 1024 cores, glibc's `CPU_SETSIZE`.
#[cfg(any(target_os = "linux", test))]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
use std::ffi::c_int;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// The cores the calling thread is allowed to run on, ascending. Empty
/// when the platform cannot say (not Linux, or the call failed) — a
/// caller placing threads then has nowhere to pin them and must not
/// guess.
pub fn allowed_cores() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable array and the size passed is
        // its size in bytes; pid 0 means the calling thread. The call
        // writes at most that many bytes and keeps no pointer.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc == 0 {
            return (0..MASK_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect();
        }
    }
    Vec::new()
}

/// Pin the calling thread to `core`, which should come from
/// [`allowed_cores`]. `false` when the kernel refused (no such core, or
/// a cpuset forbids it) and on a target other than Linux; the thread's
/// mask is then unchanged.
pub fn pin_current_thread(core: usize) -> bool {
    #[cfg(target_os = "linux")]
    if core < MASK_WORDS * 64 {
        let mut mask = [0u64; MASK_WORDS];
        mask[core / 64] = 1 << (core % 64);
        // SAFETY: `mask` is a live array and the size passed is its size
        // in bytes; pid 0 means the calling thread. The call reads the
        // mask and nothing else.
        return unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0;
    }
    #[cfg(not(target_os = "linux"))]
    let _ = core;
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In a thread of its own, so the test harness's threads keep their
    /// masks whatever happens here.
    #[test]
    fn pinning_is_read_back_as_exactly_that_core() {
        std::thread::spawn(|| {
            let before = allowed_cores();
            let Some(&first) = before.first() else {
                assert!(!pin_current_thread(0), "no allowed set, yet a pin was accepted");
                return;
            };
            if pin_current_thread(first) {
                assert_eq!(allowed_cores(), vec![first]);
            } else {
                assert_eq!(allowed_cores(), before, "a refused pin must leave the mask alone");
            }
        })
        .join()
        .expect("pinning thread");
    }

    #[test]
    fn a_core_that_does_not_exist_is_refused_and_changes_nothing() {
        std::thread::spawn(|| {
            let before = allowed_cores();
            let absent = (0..MASK_WORDS * 64).rev().find(|c| !before.contains(c));
            assert!(!pin_current_thread(absent.expect("fewer than 1024 cores")));
            assert!(!pin_current_thread(MASK_WORDS * 64), "past the mask's width");
            assert_eq!(allowed_cores(), before);
        })
        .join()
        .expect("pinning thread");
    }
}
