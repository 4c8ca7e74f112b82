//! Property tests for the log-histogram and fault-plan substrates.

use dini_cluster::fault::FaultPlan;
use dini_cluster::LogHistogram;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn histogram_mean_and_quantiles_are_consistent(
        // Stay below the top (clamped, unbounded-width) bin so quantile
        // error stays within one log-bin.
        samples in proptest::collection::vec(0.0f64..1e9, 1..500),
    ) {
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let exact_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert!((h.mean() - exact_mean).abs() <= 1e-6 * exact_mean.max(1.0));
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(0.0f64, f64::max);
        prop_assert_eq!(h.min(), min);
        prop_assert_eq!(h.max(), max);
        // Quantiles are monotone and bounded by the extremes (up to one
        // log-bin of slack, ~2.2 %).
        let qs: Vec<f64> = [0.0, 0.25, 0.5, 0.75, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9, "quantiles must be monotone: {:?}", qs);
        }
        prop_assert!(qs[5] <= max * 1.0 + 1e-9);
        prop_assert!(qs[0] >= min / 1.03 - 1e-9, "q0 {} vs min {}", qs[0], min);
    }

    #[test]
    fn histogram_merge_equals_bulk_record(
        a in proptest::collection::vec(0.0f64..1e9, 0..200),
        b in proptest::collection::vec(0.0f64..1e9, 0..200),
    ) {
        let mut ha = LogHistogram::new();
        let mut hb = LogHistogram::new();
        let mut hall = LogHistogram::new();
        for &s in &a {
            ha.record(s);
            hall.record(s);
        }
        for &s in &b {
            hb.record(s);
            hall.record(s);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hall.count());
        prop_assert_eq!(ha.min(), hall.min());
        prop_assert_eq!(ha.max(), hall.max());
        // Sums differ by addition order only.
        prop_assert!((ha.mean() - hall.mean()).abs() <= 1e-9 * hall.mean().max(1.0));
        for q in [0.25, 0.5, 0.75, 0.99] {
            prop_assert_eq!(ha.quantile(q), hall.quantile(q), "quantile {}", q);
        }
    }

    #[test]
    fn fault_plan_fates_depend_only_on_seed_and_params(
        seed in any::<u64>(),
        drop_pct in 0u32..=100,
    ) {
        let p = drop_pct as f64 / 100.0;
        let plan = FaultPlan::with_drops(seed, p);
        prop_assert_eq!(plan.is_noop(), drop_pct == 0);
        // crash() never perturbs drop behaviour.
        let crashed = plan.clone().crash(5, 1e9);
        prop_assert_eq!(crashed.crash_time(5), Some(1e9));
        prop_assert_eq!(crashed.crash_time(4), None);
    }
}
