//! Model parameters (the paper's Table 4 notation).

use dini_cache_sim::params::{gbit_per_s, MachineParams};

/// Everything Appendix A needs to price the three methods.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// Per-node machine parameters (Table 2).
    pub machine: MachineParams,
    /// Network bandwidth W2 in bytes/ns (measured Myrinet: 138 MB/s).
    pub w2: f64,
    /// Number of master nodes (1 in all paper experiments).
    pub n_masters: usize,
    /// Number of slave nodes (10 in all paper experiments).
    pub n_slaves: usize,
    /// Keys in the index (327,680 in Table 1).
    pub n_index_keys: u64,
    /// Keys per batch/message (the paper's Figure 3 x-axis ÷ 4 bytes).
    pub batch_keys: u64,
    /// Leaf entries per cache line. The paper's 3.2 MB tree for 327 k keys
    /// implies leaves carry (key, value) *pairs*: 4 entries per 32-byte
    /// line, versus 7 separator keys per internal node.
    pub leaf_entries_per_line: u32,
}

impl ModelParams {
    /// The paper's experimental configuration: Pentium III nodes, measured
    /// Myrinet, 1 master + 10 slaves, 327 k keys, 128 KB batches
    /// (Table 3's operating point).
    pub fn paper() -> Self {
        let machine = MachineParams::pentium_iii();
        Self {
            machine,
            w2: gbit_per_s(1.1),
            n_masters: 1,
            n_slaves: 10,
            n_index_keys: 327_680,
            batch_keys: (128 * 1024) / 4,
            leaf_entries_per_line: 4,
        }
    }

    /// Keys per internal node (7 on the Pentium III).
    pub fn internal_keys_per_node(&self) -> u32 {
        self.machine.keys_per_node()
    }

    /// L2 capacity in lines (the paper's `C2 / B2` = 16384).
    pub fn c2_lines(&self) -> f64 {
        (self.machine.l2.size_bytes / self.machine.l2.line_bytes) as f64
    }

    /// Batch size in bytes.
    pub fn batch_bytes(&self) -> u64 {
        self.batch_keys * 4
    }

    /// With a new batch size in bytes.
    pub fn with_batch_bytes(mut self, bytes: u64) -> Self {
        self.batch_keys = bytes / 4;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_match_tables() {
        let p = ModelParams::paper();
        assert_eq!(p.n_masters, 1);
        assert_eq!(p.n_slaves, 10);
        assert_eq!(p.n_index_keys, 327_680);
        assert_eq!(p.c2_lines(), 16384.0);
        assert_eq!(p.internal_keys_per_node(), 7);
        assert!((p.w2 - 0.1375).abs() < 1e-12);
        assert_eq!(p.batch_bytes(), 128 * 1024);
    }
}
