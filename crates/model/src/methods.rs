//! Per-key analytical costs of Methods A, B, and C-3 (paper §A.2).
//!
//! All costs are in nanoseconds per search key, *normalized* the way the
//! paper normalizes Table 3: Methods A and B run replicated on all
//! `n_masters + n_slaves` nodes, so their per-key cost is divided by the
//! node count; Method C is inherently distributed (Eq. 8 already divides
//! the slave term by `n_slaves`).

use crate::params::ModelParams;
use crate::xd::{steady_misses_per_lookup, tree_level_lines, TreeShape};

/// Model outputs for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodCosts {
    /// Method A ns/key (normalized by node count).
    pub a: f64,
    /// Method B ns/key (normalized by node count).
    pub b: f64,
    /// Method C-3 ns/key (Eq. 8).
    pub c3: f64,
}

impl MethodCosts {
    /// Evaluate all three methods for `p`.
    pub fn evaluate(p: &ModelParams) -> Self {
        Self { a: method_a_per_key_ns(p), b: method_b_per_key_ns(p), c3: method_c3_per_key_ns(p) }
    }

    /// Totals in seconds for `n_keys` lookups.
    pub fn totals_s(&self, n_keys: u64) -> (f64, f64, f64) {
        let f = n_keys as f64 * 1e-9;
        (self.a * f, self.b * f, self.c3 * f)
    }
}

fn full_tree(p: &ModelParams) -> TreeShape {
    tree_level_lines(p.n_index_keys, p.internal_keys_per_node(), p.leaf_entries_per_line)
}

fn nodes_total(p: &ModelParams) -> f64 {
    (p.n_masters + p.n_slaves) as f64
}

/// Method A (§A.2.1): per key,
/// `T·CompCost + 8/W1 + (ΣX_D(λ,q₀+1) − C2/B2)·B2pen`, normalized.
pub fn method_a_per_key_ns(p: &ModelParams) -> f64 {
    let shape = full_tree(p);
    let t = shape.t() as f64;
    let m = &p.machine;
    let misses = steady_misses_per_lookup(&shape, p.c2_lines());
    let raw = t * m.comp_cost_node_ns + 8.0 / m.mem_bw_seq + misses * m.b2_miss_penalty_ns;
    raw / nodes_total(p)
}

/// Method B (§A.2.2): per key,
/// `T·CompCost + θ₁ + θ₂ + (4/W1)(T/L) + B2pen·(4/B2)·(T/L − 1)`,
/// with θ₁ the per-batch subtree-load cost (Eq. 6) and θ₂ the in-cache
/// access cost (Eq. 7). Normalized like Method A.
pub fn method_b_per_key_ns(p: &ModelParams) -> f64 {
    let shape = full_tree(p);
    let t = shape.t() as f64;
    let m = &p.machine;
    let q = p.batch_keys.max(1) as f64;
    // L: levels of the tree that fit the L2 (the subtree granularity).
    let l = shape.levels_fitting(p.c2_lines()).max(1) as f64;
    let xd_per_key = shape.xd_sum(q) / q;
    let theta1 = xd_per_key * m.b2_miss_penalty_ns; // Eq. 6
    let theta2 = (t - xd_per_key).max(0.0) * m.b1_miss_penalty_ns; // Eq. 7
    let buffer_reads = (4.0 / m.mem_bw_seq) * (t / l);
    let buffer_writes =
        m.b2_miss_penalty_ns * (4.0 / m.l2.line_bytes as f64) * (t / l - 1.0).max(0.0);
    let raw = t * m.comp_cost_node_ns + theta1 + theta2 + buffer_reads + buffer_writes;
    raw / nodes_total(p)
}

/// Master-side dispatch cost per key: a binary search over `n_slaves − 1`
/// delimiters resident in L1 (the paper leaves this distribution-dependent
/// constant unspecified; we price it as `⌈log₂(n_slaves)⌉` comparisons).
pub fn dispatch_cost_ns(p: &ModelParams) -> f64 {
    (p.n_slaves.max(2) as f64).log2().ceil() * p.machine.cmp_cost_ns
}

/// Method C-3 (§A.2.3, Eq. 8): `max(master, slave)` per key.
///
/// The master term carries **no** `4/W2` network charge: the master's
/// sends are non-blocking (MPI_Isend + DMA) and overlap its dispatch loop,
/// which is also the only reading under which the paper's own Table 3
/// value for C-3 (0.28 s = the slave-side term) reconciles with Eq. 8 —
/// with the network charged to the master's CPU the master term would
/// dominate at ~0.49 s. The slave term keeps its `4/W2` as the paper
/// writes it.
pub fn method_c3_per_key_ns(p: &ModelParams) -> f64 {
    let m = &p.machine;
    let per_key_net = 4.0 / p.w2;
    let master = (dispatch_cost_ns(p) + 8.0 / m.mem_bw_seq) / p.n_masters as f64;
    // L on the slave: levels of the partition tree (all cache-resident).
    let part_keys = p.n_index_keys.div_ceil(p.n_slaves as u64);
    let part_shape =
        tree_level_lines(part_keys, p.internal_keys_per_node(), p.leaf_entries_per_line);
    let l = part_shape.t() as f64;
    let slave =
        (l * (m.comp_cost_node_ns + m.b1_miss_penalty_ns) + 8.0 / m.mem_bw_seq + per_key_net)
            / p.n_slaves as f64;
    master.max(slave)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_operating_point_ordering() {
        // At the paper's Table 3 point (128 KB batches) the model must put
        // C-3 clearly below both replicated methods. (The paper's own
        // prediction also had B < A there; our strict reading of its
        // equations makes A and B nearly equal at 128 KB — B's buffering
        // advantage materialises at larger batches, asserted below.)
        let p = ModelParams::paper();
        let c = MethodCosts::evaluate(&p);
        assert!(c.c3 < c.b, "C-3 ({}) must beat B ({})", c.c3, c.b);
        assert!(c.c3 < c.a, "C-3 ({}) must beat A ({})", c.c3, c.a);
        let big = MethodCosts::evaluate(&p.with_batch_bytes(4 * 1024 * 1024));
        assert!(big.b < big.a, "B ({}) must beat A ({}) at 4 MB batches", big.b, big.a);
    }

    #[test]
    fn totals_are_fractions_of_a_second() {
        // 8 M keys: all three in the sub-second range the paper reports
        // (its Table 3: 0.28–0.45 s).
        let p = ModelParams::paper();
        let c = MethodCosts::evaluate(&p);
        let (a, b, c3) = c.totals_s(1 << 23);
        for (name, v) in [("A", a), ("B", b), ("C3", c3)] {
            assert!(v > 0.05 && v < 1.5, "method {name} total {v}s out of range");
        }
    }

    #[test]
    fn method_b_improves_with_batch_size() {
        let p = ModelParams::paper();
        let small = method_b_per_key_ns(&p.clone().with_batch_bytes(8 * 1024));
        let large = method_b_per_key_ns(&p.with_batch_bytes(4 * 1024 * 1024));
        assert!(large < small, "B large-batch {large} should beat small-batch {small}");
    }

    #[test]
    fn method_a_is_batch_independent() {
        let p = ModelParams::paper();
        let a1 = method_a_per_key_ns(&p.clone().with_batch_bytes(8 * 1024));
        let a2 = method_a_per_key_ns(&p.with_batch_bytes(4 * 1024 * 1024));
        assert_eq!(a1, a2);
    }

    #[test]
    fn c3_slave_bound_at_paper_scale() {
        // At the paper's operating point the slave term dominates Eq. 8 —
        // this is exactly why Table 3's C-3 prediction (0.28 s) equals the
        // slave-side cost.
        let p = ModelParams::paper();
        let m = &p.machine;
        let master = (dispatch_cost_ns(&p) + 8.0 / m.mem_bw_seq) / 1.0;
        let c3 = method_c3_per_key_ns(&p);
        assert!(c3 > master, "slave term ({c3}) must exceed master term ({master})");
    }

    #[test]
    fn table3_c3_prediction_matches_paper() {
        // Paper Table 3: Method C-3 predicted 0.28 s for 2^23 keys.
        let p = ModelParams::paper();
        let (_, _, c3) = MethodCosts::evaluate(&p).totals_s(1 << 23);
        assert!((c3 - 0.28).abs() < 0.05, "C-3 model total {c3} s vs paper 0.28 s");
    }

    #[test]
    fn many_masters_eventually_shift_the_bound_to_slaves() {
        // The paper's remark: an overloaded master is remedied by adding
        // masters; once slave-bound, more masters stop helping.
        let mut p = ModelParams::paper();
        p.n_slaves = 100; // slave term tiny → master-bound
        let one = method_c3_per_key_ns(&p);
        p.n_masters = 4;
        let four = method_c3_per_key_ns(&p);
        assert!(four < one, "extra masters must relieve a master-bound config");
    }

    #[test]
    fn dispatch_scales_with_slave_count() {
        let mut p = ModelParams::paper();
        let d10 = dispatch_cost_ns(&p);
        p.n_slaves = 100;
        assert!(dispatch_cost_ns(&p) > d10);
    }
}
