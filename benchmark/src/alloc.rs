//! A counting `#[global_allocator]` for the `*.allocs_per_lookup`
//! counts, as `tests/zero_alloc.rs` does it. Outside a counted window it
//! is a pass-through (one relaxed load of a flag per call), so it does
//! not tax the timed phases.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The allocator installed in the benchmark binary.
pub struct Counting;

// Statistics only: neither publishes other data, so Relaxed suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the arguments it was
// given; the only addition is a counter that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
}

/// Fix glibc's mmap threshold at 1 MiB. By default the threshold creeps up
/// to the size of the largest block freed so far, after which a key
/// array (16–64 MiB) is sometimes carved from the heap and sometimes
/// mapped, and `peak_rss_mb` comes out 16 MiB apart from run to run. A
/// fixed threshold maps every large block and returns it on free, in
/// every run alike. A no-op on other C libraries.
pub fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
        // SAFETY: `mallopt` only stores an allocator tunable; it is called
        // once, before any thread is spawned.
        unsafe { mallopt(M_MMAP_THRESHOLD, 1 << 20) };
    }
}

/// Count allocations made by any thread while `f` runs.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_inside_the_window_only() {
        let (_, n) = count(|| std::hint::black_box(vec![1u8; 64]));
        assert!(n >= 1);
        let before = ALLOCS.load(Ordering::Relaxed);
        std::hint::black_box(vec![2u8; 64]);
        // Other tests may hold a window open concurrently, so only the
        // closed-window case on an idle counter is exact; what must hold
        // always is that the counter never runs backwards.
        assert!(ALLOCS.load(Ordering::Relaxed) >= before);
    }
}
