//! Sensitivity analysis over the analytical model.
//!
//! The paper varies exactly one axis (years, Figure 4). The model supports
//! asking sharper questions, each grounded in a claim the paper makes in
//! prose (the `paper` binary's `fig4` mode prints all three):
//!
//! * **network bandwidth** — §2 premises the whole design on the network
//!   (138 MB/s) out-running random memory (48 MB/s);
//!   [`network_bw_breakeven`] solves for the W2 where that stops holding.
//! * **cluster size** — §3.2 remarks a single master "could become
//!   overloaded"; [`master_bound_slave_count`] solves for the slave count
//!   where Eq. 8 flips from slave-bound to master-bound.
//! * **the CPU-memory gap** — the motivation section; [`sweep_b2_penalty`]
//!   traces how every method's cost moves as the miss penalty grows.

use crate::methods::{method_c3_per_key_ns, MethodCosts};
use crate::params::ModelParams;

/// One sweep sample: the varied value and the resulting costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The parameter value at this sample.
    pub value: f64,
    /// Per-key costs at this value.
    pub costs: MethodCosts,
}

/// Evaluate while scaling the B2 (RAM) miss penalty by each factor —
/// the CPU-memory-gap axis. Methods A/B absorb it linearly; C-3 is
/// untouched (its slaves never miss to RAM).
pub fn sweep_b2_penalty(p: &ModelParams, factors: &[f64]) -> Vec<SweepPoint> {
    factors
        .iter()
        .map(|&f| {
            let mut q = p.clone();
            q.machine.b2_miss_penalty_ns = p.machine.b2_miss_penalty_ns * f;
            SweepPoint { value: q.machine.b2_miss_penalty_ns, costs: MethodCosts::evaluate(&q) }
        })
        .collect()
}

/// The smallest slave count at which Eq. 8 becomes master-bound (the
/// master term ≥ the slave term), i.e. where the paper's "single master
/// could become overloaded" remark bites. Returns `None` if the system
/// stays slave-bound up to `max_slaves`.
pub fn master_bound_slave_count(p: &ModelParams, max_slaves: usize) -> Option<usize> {
    use crate::methods::dispatch_cost_ns;
    for n in p.n_slaves..=max_slaves {
        let mut q = p.clone();
        q.n_slaves = n;
        let master = (dispatch_cost_ns(&q) + 8.0 / q.machine.mem_bw_seq) / q.n_masters as f64;
        // Eq. 8's max(): if the master term alone equals the total, the
        // master is the binding side.
        if method_c3_per_key_ns(&q) <= master + 1e-12 {
            return Some(n);
        }
    }
    None
}

/// The network bandwidth (bytes/ns) below which Method C-3's modelled
/// cost rises above Method B's — the break-even for the paper's central
/// premise. Solved by bisection over W2 scale factors in
/// `[lo_factor, 1.0]`; returns `None` if C-3 wins even at `lo_factor`.
pub fn network_bw_breakeven(p: &ModelParams, lo_factor: f64) -> Option<f64> {
    assert!(lo_factor > 0.0 && lo_factor < 1.0);
    let beats = |f: f64| {
        let mut q = p.clone();
        q.w2 = p.w2 * f;
        let c = MethodCosts::evaluate(&q);
        c.c3 < c.b
    };
    if beats(lo_factor) {
        return None; // C-3 wins across the whole probed range
    }
    assert!(beats(1.0), "C-3 must win at the paper's measured network");
    let (mut lo, mut hi) = (lo_factor, 1.0);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if beats(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi * p.w2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_cpu_memory_gap_hurts_a_most() {
        let p = ModelParams::paper();
        let pts = sweep_b2_penalty(&p, &[1.0, 2.0, 4.0]);
        let a_growth = pts[2].costs.a / pts[0].costs.a;
        let c3_growth = pts[2].costs.c3 / pts[0].costs.c3;
        assert!(a_growth > 2.0, "A is miss-dominated: {a_growth}");
        assert!((c3_growth - 1.0).abs() < 1e-9, "C-3 never misses to RAM: {c3_growth}");
        // B buffers but still loads each subtree from RAM: grows, less
        // than A.
        let b_growth = pts[2].costs.b / pts[0].costs.b;
        assert!(b_growth > 1.0 && b_growth < a_growth);
    }

    #[test]
    fn papers_cluster_is_near_master_saturation() {
        // A finding the model surfaces: with one master, Eq. 8 master-binds
        // at barely above the paper's 10 slaves — the §3.2 overload remark
        // is not hypothetical; their own configuration sat next to it.
        let p = ModelParams::paper();
        let bound = master_bound_slave_count(&p, 1000).expect("binds");
        assert!((11..=30).contains(&bound), "bound {bound} should sit just above 10");
    }

    #[test]
    fn master_bound_exists_and_is_past_the_papers_ten() {
        let p = ModelParams::paper();
        let n = master_bound_slave_count(&p, 100_000).expect("must eventually master-bind");
        assert!(n > 10, "the paper's 10-slave cluster is slave-bound, got bound at {n}");
        // And adding a master pushes the bound out.
        let mut p2 = ModelParams::paper();
        p2.n_masters = 2;
        let n2 = master_bound_slave_count(&p2, 100_000).expect("still binds eventually");
        assert!(n2 > n, "a second master must raise the master-bound point: {n2} vs {n}");
    }

    #[test]
    fn breakeven_bandwidth_is_below_myrinet() {
        // The paper's premise quantified: Myrinet (0.1375 B/ns) clears the
        // bar; the break-even sits somewhere below.
        let p = ModelParams::paper();
        let be = network_bw_breakeven(&p, 0.005);
        if let Some(bw) = be {
            assert!(bw < p.w2, "break-even {bw} must be below measured W2 {}", p.w2);
            // Sanity: Fast Ethernet (12.5 MB/s = 0.0125 B/ns) should lose.
            let mut q = p.clone();
            q.w2 = 0.0125;
            let c = MethodCosts::evaluate(&q);
            assert!(
                c.c3 > c.b || bw < 0.0125,
                "at Fast Ethernet C-3 should lose (or break-even below it)"
            );
        }
        // None is also acceptable (C-3 wins everywhere probed) — but then
        // scaling W2 down 200× must still leave C-3 ahead.
        if be.is_none() {
            let mut q = p.clone();
            q.w2 = p.w2 * 0.005;
            let c = MethodCosts::evaluate(&q);
            assert!(c.c3 < c.b);
        }
    }
}
