//! `dini-check`: exhaustive bounded model checking for the repo's
//! hand-rolled lock-free primitives.
//!
//! The performance story of this reproduction rests on a handful of
//! lock-free constructions — `EpochCell`'s two-slot `AtomicPtr` swap,
//! the pooled `ReplyCell` every reply goes through, the `TraceRing` seqlock,
//! the record-before-release `ReplicaMetrics` contract. Execution-based
//! testing (`dini-simtest`) samples interleavings; it cannot prove the
//! absence of a weak-memory-ordering bug inside a primitive. This crate
//! closes that gap with a small vendored loom-style checker:
//!
//! * [`sync`] — a drop-in shim for the `std::sync` types those
//!   primitives use (`AtomicU64`, `AtomicUsize`, `AtomicBool`,
//!   `AtomicPtr`, `fence`, `Arc`, `Mutex`, `Condvar`). Compiled
//!   normally it re-exports `std` verbatim (zero cost, zero behavior
//!   change — `tests/zero_alloc.rs` still pins the read path at 0
//!   allocations). Compiled with `--cfg dini_check` it swaps in model
//!   types that route every operation through a controlled scheduler.
//! * `model` (only under `--cfg dini_check`) — `model::model` /
//!   `model::Checker` run a closure under **depth-first exhaustive
//!   exploration of thread interleavings**, bounded by a preemption
//!   budget, with **ordering-aware value visibility**: a `Relaxed` load
//!   may observe any coherent stale value; `Acquire`/`Release` edges,
//!   fences, and `SeqCst` constrain which. Lost condvar wakeups and
//!   deadlocks are detected (every blocked-forever state is reported
//!   with the schedule that produced it), and the model `Arc` detects
//!   use-after-free and leaked allocations — exactly the failure modes
//!   of an epoch-reclamation bug.
//!
//! Production code adopts the shim through one `#[cfg(dini_check)]`
//! seam per crate (`crates/serve/src/sync.rs`, `crates/obs/src/sync.rs`)
//! and compiles unchanged against either implementation. The model
//! suite lives in `crates/check/tests/models.rs` and runs in CI as
//! `RUSTFLAGS="--cfg dini_check" cargo test -p dini-check`.
//!
//! ## The memory model, briefly
//!
//! Per atomic location the checker keeps the full modification order
//! (every store, tagged with the writer's vector clock and the message
//! clock an acquire-load of it would join). A load may read any store
//! not ruled out by coherence (never older than one already read) or
//! happens-before (never older than a store the reader's clock already
//! covers); when several stores remain readable, the choice is a
//! branch point explored like a scheduling decision. RMWs always read
//! the latest store, as C11 requires, and continue release sequences.
//! `SeqCst` is approximated by the execution order of `SeqCst`
//! operations (a `SeqCst` load never reads past the latest `SeqCst`
//! store to its location) — strong enough to validate the store-buffer
//! reasoning the primitives document, and exactly the approximation a
//! seeded mutation test proves has teeth (see `models.rs`).
//!
//! ## Bounds
//!
//! Exploration is exhaustive **within bounds**: at most
//! `model::MAX_THREADS` threads, a configurable preemption budget
//! (default 2 — involuntary context switches per execution; voluntary
//! yields and blocking are free), and an execution/step ceiling that
//! turns a state-space explosion or a livelock into a loud failure
//! instead of a hung test.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod sync;

#[cfg(dini_check)]
mod sched;

#[cfg(dini_check)]
pub mod model;
