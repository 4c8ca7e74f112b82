//! The expected-distinct-lines machinery (paper Eqs. 1–5).
//!
//! `X_D(λ, q) = λ (1 − (1 − 1/λ)^q)` (Eq. 2) is the expected number of
//! distinct cache lines touched among `λ` equally likely lines after `q`
//! uniform lookups (Hankins & Patel). Summed over tree levels it gives the
//! footprint of `q` lookups; solving `Σᵢ X_D(λᵢ, q₀) = C2/B2` (Eq. 3)
//! finds the lookup count `q₀` that exactly fills the L2, and the
//! *steady-state misses per lookup* is the increment
//! `Σᵢ X_D(λᵢ, q₀+1) − C2/B2` (Eqs. 4–5), which telescopes to the closed
//! form `Σᵢ (1 − 1/λᵢ)^{q₀}`.

/// Expected distinct lines among `lambda` lines after `q` uniform lookups.
pub fn expected_distinct_lines(lambda: f64, q: f64) -> f64 {
    debug_assert!(lambda >= 1.0 && q >= 0.0);
    if lambda <= 1.0 {
        return if q > 0.0 { 1.0 } else { 0.0 };
    }
    lambda * (1.0 - (1.0 - 1.0 / lambda).powf(q))
}

/// Per-level line counts λᵢ of the index tree, root level first.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeShape {
    /// λᵢ for level i (root first). One node = one cache line.
    pub level_lines: Vec<f64>,
}

/// Number of levels of a tree over `n_keys` with the given leaf/internal
/// capacities.
pub fn tree_level_lines(
    n_keys: u64,
    internal_keys_per_node: u32,
    leaf_entries_per_line: u32,
) -> TreeShape {
    assert!(n_keys > 0 && internal_keys_per_node >= 1 && leaf_entries_per_line >= 1);
    let fanout = (internal_keys_per_node + 1) as u64;
    let mut levels = vec![n_keys.div_ceil(leaf_entries_per_line as u64)];
    while *levels.last().expect("non-empty") > 1 {
        let prev = *levels.last().expect("non-empty");
        levels.push(prev.div_ceil(fanout));
    }
    levels.reverse();
    TreeShape { level_lines: levels.into_iter().map(|l| l as f64).collect() }
}

impl TreeShape {
    /// Number of levels `T`.
    pub fn t(&self) -> usize {
        self.level_lines.len()
    }

    /// Total lines (≈ tree bytes / line bytes).
    pub fn total_lines(&self) -> f64 {
        self.level_lines.iter().sum()
    }

    /// `Σᵢ X_D(λᵢ, q)` — the cache footprint of `q` lookups (Eq. 1
    /// numerator).
    pub fn xd_sum(&self, q: f64) -> f64 {
        self.level_lines.iter().map(|&l| expected_distinct_lines(l, q)).sum()
    }

    /// Levels `L` of the tallest complete subtree (from the root) whose
    /// lines fit `capacity_lines` — the paper's `L` ("the levels of the
    /// B+ tree \[that\] can fit in cache").
    pub fn levels_fitting(&self, capacity_lines: f64) -> usize {
        let mut acc = 0.0;
        for (i, &l) in self.level_lines.iter().enumerate() {
            acc += l;
            if acc > capacity_lines {
                return i;
            }
        }
        self.t()
    }
}

/// Solve Eq. 3 for `q₀`: the number of lookups whose footprint equals the
/// cache capacity. Returns `None` when the whole tree fits (no steady-state
/// capacity misses).
pub fn solve_q0(shape: &TreeShape, capacity_lines: f64) -> Option<f64> {
    if shape.total_lines() <= capacity_lines {
        return None;
    }
    // xd_sum is monotone increasing in q: bisect.
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    while shape.xd_sum(hi) < capacity_lines {
        hi *= 2.0;
        if hi > 1e18 {
            return None; // numerically saturated below capacity
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if shape.xd_sum(mid) < capacity_lines {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// Steady-state expected cache misses per lookup (Eqs. 4–5, closed form
/// `Σᵢ (1 − 1/λᵢ)^{q₀}`). Zero when the tree fits the cache.
pub fn steady_misses_per_lookup(shape: &TreeShape, capacity_lines: f64) -> f64 {
    match solve_q0(shape, capacity_lines) {
        None => 0.0,
        Some(q0) => shape
            .level_lines
            .iter()
            .map(|&l| if l <= 1.0 { 0.0 } else { (1.0 - 1.0 / l).powf(q0) })
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xd_basic_properties() {
        // One lookup touches one line.
        assert!((expected_distinct_lines(100.0, 1.0) - 1.0).abs() < 1e-9);
        // Saturates at lambda.
        assert!(expected_distinct_lines(10.0, 1e6) <= 10.0 + 1e-9);
        assert!(expected_distinct_lines(10.0, 1e6) > 9.999);
        // Zero lookups touch nothing.
        assert_eq!(expected_distinct_lines(10.0, 0.0), 0.0);
    }

    #[test]
    fn paper_tree_shape() {
        // 327 680 keys, 7 internal keys/node, 4 leaf entries/line:
        // leaves 81 920, then 10 240, 1 280, 160, 20, 3, 1 → T = 7 and
        // ~2.9 MB — the paper's T = 7 and ~3.2 MB tree size.
        let s = tree_level_lines(327_680, 7, 4);
        assert_eq!(s.t(), 7);
        assert_eq!(s.level_lines[0], 1.0);
        assert_eq!(*s.level_lines.last().unwrap(), 81_920.0);
        let mb = s.total_lines() * 32.0 / (1024.0 * 1024.0);
        assert!(mb > 2.5 && mb < 3.5, "tree is {mb} MB");
    }

    #[test]
    fn q0_fills_the_cache_exactly() {
        let s = tree_level_lines(327_680, 7, 4);
        let c2 = 16384.0;
        let q0 = solve_q0(&s, c2).expect("tree exceeds cache");
        assert!((s.xd_sum(q0) - c2).abs() < 1.0, "footprint at q0: {}", s.xd_sum(q0));
        assert!(q0 > 1_000.0 && q0 < 100_000.0, "q0 = {q0}");
    }

    #[test]
    fn fitting_tree_has_no_steady_misses() {
        let s = tree_level_lines(10_000, 7, 4);
        assert!(s.total_lines() < 16384.0);
        assert_eq!(steady_misses_per_lookup(&s, 16384.0), 0.0);
        assert!(solve_q0(&s, 16384.0).is_none());
    }

    #[test]
    fn paper_tree_misses_between_one_and_three() {
        // The bottom two levels (92 k lines vs 16 k capacity) dominate:
        // roughly one compulsory leaf miss plus a partial level-6 miss.
        let s = tree_level_lines(327_680, 7, 4);
        let m = steady_misses_per_lookup(&s, 16384.0);
        assert!(m > 1.0 && m < 3.0, "misses/lookup = {m}");
    }

    #[test]
    fn levels_fitting_matches_paper_l() {
        // A slave's partition: 32 768 keys → 6 levels (the paper's L = 6),
        // and all of it fits the L2.
        let s = tree_level_lines(32_768, 7, 4);
        assert_eq!(s.t(), 6);
        assert_eq!(s.levels_fitting(16384.0), 6);
        // The full 327 k tree fits its top 6 levels (11 704 lines) in the
        // 16 384-line L2 — only the 81 920-line leaf level spills.
        let full = tree_level_lines(327_680, 7, 4);
        assert_eq!(full.levels_fitting(16384.0), 6);
    }

    #[test]
    fn misses_grow_as_cache_shrinks() {
        let s = tree_level_lines(327_680, 7, 4);
        let big = steady_misses_per_lookup(&s, 16384.0);
        let small = steady_misses_per_lookup(&s, 2048.0);
        assert!(small > big);
    }
}
