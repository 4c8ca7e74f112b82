//! Shape tests for the paper's evaluation claims, at reduced scale
//! (2^20–2^21 keys instead of 2^23; `paper fig3 table3` runs full scale).
//! Each test pins one qualitative claim from §4.

use dini::core::{run_method, standard_workload, ExperimentSetup, MethodId};
use dini::model::{MethodCosts, ModelParams};

fn paper_setup(batch: usize) -> ExperimentSetup {
    ExperimentSetup { batch_bytes: batch, ..ExperimentSetup::paper() }
}

/// §4.1 / Figure 3: "Method C-3 has the best performance" at moderate
/// batch sizes, against both A and B.
#[test]
fn c3_wins_at_moderate_batches() {
    let setup = paper_setup(64 * 1024);
    let (idx, q) = standard_workload(&setup, 1 << 21);
    let a = run_method(MethodId::A, &setup, &idx, &q);
    let b = run_method(MethodId::B, &setup, &idx, &q);
    let c3 = run_method(MethodId::C3, &setup, &idx, &q);
    assert!(
        c3.search_time_s < a.search_time_s,
        "C-3 {} vs A {}",
        c3.search_time_s,
        a.search_time_s
    );
    assert!(
        c3.search_time_s < b.search_time_s,
        "C-3 {} vs B {}",
        c3.search_time_s,
        b.search_time_s
    );
}

/// §4.1: "If a batch size is 16 KB or less, Methods C-1, C-2, and C-3 are
/// worse than method B and method A" — the small-batch reversal. At our
/// scale the crossover shows as C-3 losing its advantage at 8 KB.
#[test]
fn small_batches_erase_the_c_advantage() {
    let (idx, q) = standard_workload(&paper_setup(8 * 1024), 1 << 20);
    let c3_small = run_method(MethodId::C3, &paper_setup(8 * 1024), &idx, &q);
    let c3_sweet = run_method(MethodId::C3, &paper_setup(32 * 1024), &idx, &q);
    let a = run_method(MethodId::A, &paper_setup(8 * 1024), &idx, &q);
    // At 8 KB the per-message overhead eats the win over A...
    assert!(
        c3_small.search_time_s > 0.95 * a.search_time_s,
        "8 KB C-3 ({}) should be no better than A ({})",
        c3_small.search_time_s,
        a.search_time_s
    );
    // ...while 32 KB already beats 8 KB clearly.
    assert!(c3_sweet.search_time_s < 0.95 * c3_small.search_time_s);
}

/// Figure 3: Methods C-1 and C-2 "follow the same trend as Method C-3...
/// but slightly worse" (trees occupy more space than the sorted array).
#[test]
fn c_variants_cluster_with_c3_best_or_close() {
    let setup = paper_setup(64 * 1024);
    let (idx, q) = standard_workload(&setup, 1 << 20);
    let c1 = run_method(MethodId::C1, &setup, &idx, &q);
    let c2 = run_method(MethodId::C2, &setup, &idx, &q);
    let c3 = run_method(MethodId::C3, &setup, &idx, &q);
    let a = run_method(MethodId::A, &setup, &idx, &q);
    for (name, s) in [("C-1", &c1), ("C-2", &c2)] {
        assert!(
            s.search_time_s < a.search_time_s,
            "{name} ({}) must still beat A ({})",
            s.search_time_s,
            a.search_time_s
        );
        assert!(
            s.search_time_s < 1.5 * c3.search_time_s,
            "{name} ({}) should track C-3 ({})",
            s.search_time_s,
            c3.search_time_s
        );
    }
}

/// Method B's buffering advantage grows with batch size (Zhou–Ross).
#[test]
fn b_improves_with_batch_size_a_stays_flat() {
    let (idx, q) = standard_workload(&paper_setup(8 * 1024), 1 << 20);
    let b_8 = run_method(MethodId::B, &paper_setup(8 * 1024), &idx, &q);
    let b_512 = run_method(MethodId::B, &paper_setup(512 * 1024), &idx, &q);
    assert!(b_512.search_time_s < b_8.search_time_s);

    let a_8 = run_method(MethodId::A, &paper_setup(8 * 1024), &idx, &q);
    let a_512 = run_method(MethodId::A, &paper_setup(512 * 1024), &idx, &q);
    let drift = (a_8.search_time_s - a_512.search_time_s).abs() / a_8.search_time_s;
    assert!(drift < 0.15, "A must stay roughly batch-flat, drifted {:.0} %", drift * 100.0);
}

/// Table 3's headline: the analytical model is within 25 % of the
/// "experiment" (here, the simulator) for A, B, and C-3.
#[test]
fn model_within_25_percent_of_simulation() {
    let n = 1u64 << 21;
    let setup = paper_setup(128 * 1024);
    let (idx, q) = standard_workload(&setup, n as usize);
    let model = ModelParams::paper();
    let pred = MethodCosts::evaluate(&model);
    let (pa, pb, pc3) = pred.totals_s(n);

    for (m, p) in [(MethodId::A, pa), (MethodId::B, pb), (MethodId::C3, pc3)] {
        let meas = run_method(m, &setup, &idx, &q).search_time_s;
        let err = (p - meas).abs() / meas;
        assert!(err < 0.25, "{m}: model {p:.4} s vs sim {meas:.4} s ({:.0} % off)", err * 100.0);
    }
}

/// §4.1: per-message overhead starves slaves at small batches; the idle
/// fraction falls as batches grow toward the sweet spot.
#[test]
fn slave_idle_falls_from_8kb_to_32kb() {
    let (idx, q) = standard_workload(&paper_setup(8 * 1024), 1 << 20);
    let i8 = run_method(MethodId::C3, &paper_setup(8 * 1024), &idx, &q).slave_idle;
    let i32 = run_method(MethodId::C3, &paper_setup(32 * 1024), &idx, &q).slave_idle;
    assert!(i8 > i32, "idle 8 KB {i8:.3} must exceed 32 KB {i32:.3}");
}

/// The cache-economics core of the whole paper: Method A misses to RAM
/// roughly once per non-resident tree level, Method C-3 essentially never.
#[test]
fn miss_economics_favor_distribution() {
    let setup = paper_setup(64 * 1024);
    let (idx, q) = standard_workload(&setup, 1 << 19);
    let a = run_method(MethodId::A, &setup, &idx, &q);
    let c3 = run_method(MethodId::C3, &setup, &idx, &q);
    assert!(a.l2_misses_per_key() > 1.0, "A: {}", a.l2_misses_per_key());
    assert!(c3.l2_misses_per_key() < 0.2, "C-3: {}", c3.l2_misses_per_key());
}
