//! The synchronization seam for this crate's lock-free hot path.
//!
//! Every name here resolves to the real `std::sync` type in normal
//! builds (a plain re-export — zero cost, zero behavior change) and to
//! `dini-check`'s model type under `--cfg dini_check`, where the
//! checker's CI job (`RUSTFLAGS="--cfg dini_check" cargo test -p
//! dini-check`) explores the primitives' interleavings exhaustively.
//! `snapshot`, `oneshot`, `group` and `admission` import their atomics, `Arc`,
//! and parking primitives from here — and only from here — so they
//! compile unchanged against either world.
//!
//! Modules *outside* the modeled core (`server`, `batcher`, `clock`)
//! keep using `std::sync` directly: their concurrency is channel- and
//! join-structured, which `dini-simtest` already covers, and dragging
//! them under the checker would explode the model state space.

pub(crate) use dini_check::sync::{
    spin_loop, switch_point, yield_now, Arc, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize,
    Condvar, Mutex, MutexGuard, Ordering,
};
