//! # dini-model
//!
//! The paper's Appendix A analytical model, implemented equation by
//! equation, plus the §4.2 technology-trend extrapolation behind Figure 4.
//!
//! * [`xd`] — the Hankins–Patel expected-distinct-lines function
//!   `X_D(λ, q) = λ(1 − (1 − 1/λ)^q)` (Eq. 2), per-level line counts of
//!   the n-ary tree, and the solve for `q₀` — the number of lookups that
//!   exactly fills the L2 cache (Eq. 3).
//! * [`methods`] — per-key costs of Method A (one-at-a-time tree walk),
//!   Method B (buffered access: θ₁/θ₂ plus buffer traffic), and Method C
//!   (Eq. 8: `max(master, slave)`), from [`ModelParams`].
//! * [`trends`] — the paper's scaling assumptions (CPU 2× / 18 months,
//!   network 2× / 3 years, per-processor memory bandwidth +20 % / year,
//!   memory latency flat) applied to the parameters, regenerating
//!   Figure 4.
//! * [`sensitivity`] — crossover solvers and a sweep: the
//!   network-bandwidth break-even behind the paper's §2 premise, the
//!   slave count at which a single master saturates (§3.2's remark), and
//!   the CPU-memory-gap axis.

#![warn(missing_docs)]

pub mod methods;
pub mod params;
pub mod sensitivity;
pub mod trends;
pub mod xd;

pub use methods::{method_a_per_key_ns, method_b_per_key_ns, method_c3_per_key_ns, MethodCosts};
pub use params::ModelParams;
pub use sensitivity::{
    master_bound_slave_count, network_bw_breakeven, sweep_b2_penalty, SweepPoint,
};
pub use trends::{scale_params, TrendPoint};
pub use xd::{expected_distinct_lines, solve_q0, tree_level_lines, TreeShape};
