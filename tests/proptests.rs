//! Cross-crate property-based tests.

use evfad_core::anomaly::{merge_segments, MitigationStrategy};
use evfad_core::attack::{DdosConfig, DdosInjector};
use evfad_core::data::{DatasetConfig, ShenzhenGenerator, Zone};
use evfad_core::federated::{Aggregator, FederatedConfig, FederatedSimulation, LocalUpdate};
use evfad_core::nn::{forecaster_model, Sample};
use evfad_core::tensor::kernels::{self, MatMut};
use evfad_core::tensor::{parallel, Matrix};
use evfad_core::timeseries::MinMaxScaler;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Attack injection only ever touches labelled points, and labels are
    /// exactly the union of the reported episodes.
    #[test]
    fn injection_is_label_consistent(seed in 0u64..500, hours in 100usize..800) {
        let client = ShenzhenGenerator::new(DatasetConfig::small(hours, seed))
            .generate_zone(Zone::Z105);
        let out = DdosInjector::new(DdosConfig::default()).inject(&client.demand, seed);
        prop_assert_eq!(out.series.len(), client.demand.len());
        for i in 0..out.series.len() {
            if out.labels[i] {
                prop_assert!(out.series[i] >= client.demand[i]);
            } else {
                prop_assert_eq!(out.series[i], client.demand[i]);
            }
        }
        let mut from_episodes = vec![false; out.series.len()];
        for ep in &out.episodes {
            for f in from_episodes.iter_mut().take(ep.end).skip(ep.start) {
                *f = true;
            }
        }
        prop_assert_eq!(from_episodes, out.labels);
    }

    /// Mitigation with any strategy keeps the series finite, the same
    /// length, and untouched outside the merged mask.
    #[test]
    fn mitigation_preserves_structure(
        seed in 0u64..200,
        strategy_idx in 0usize..2,
    ) {
        let strategy = [
            MitigationStrategy::Linear,
            MitigationStrategy::SeasonalNaive,
        ][strategy_idx];
        let client = ShenzhenGenerator::new(DatasetConfig::small(300, seed))
            .generate_zone(Zone::Z108);
        let out = DdosInjector::new(DdosConfig::default()).inject(&client.demand, seed);
        let merged = merge_segments(&out.labels, 2);
        let fixed = strategy.apply(&out.series, &merged).unwrap();
        prop_assert_eq!(fixed.len(), out.series.len());
        for i in 0..fixed.len() {
            prop_assert!(fixed[i].is_finite());
            if !merged[i] {
                prop_assert_eq!(fixed[i], out.series[i]);
            }
        }
    }

    /// Scaling then inverse-scaling an attacked series is lossless, even
    /// though spikes exceed the clean range.
    #[test]
    fn scaler_round_trips_attacked_series(seed in 0u64..200) {
        let client = ShenzhenGenerator::new(DatasetConfig::small(400, seed))
            .generate_zone(Zone::Z102);
        let out = DdosInjector::new(DdosConfig::default()).inject(&client.demand, seed);
        let scaler = MinMaxScaler::fit(&client.demand).unwrap();
        let back = scaler.inverse_transform(&scaler.transform(&out.series));
        for (a, b) in out.series.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
        }
    }

    /// FedAvg lies in the per-coordinate convex hull of the updates, for
    /// arbitrary positive sample counts.
    #[test]
    fn fedavg_within_hull(
        va in -10.0f64..10.0,
        vb in -10.0f64..10.0,
        vc in -10.0f64..10.0,
        na in 1usize..1000,
        nb in 1usize..1000,
        nc in 1usize..1000,
    ) {
        let mk = |id: &str, v: f64, n: usize| LocalUpdate {
            client_id: id.into(),
            weights: vec![Matrix::filled(2, 3, v)],
            sample_count: n,
            train_loss: 0.0,
            duration: std::time::Duration::ZERO,
        simulated_extra_seconds: 0.0,
        };
        let ups = [mk("a", va, na), mk("b", vb, nb), mk("c", vc, nc)];
        let g = Aggregator::FedAvg.aggregate(&ups).unwrap();
        let lo = va.min(vb).min(vc);
        let hi = va.max(vb).max(vc);
        for x in g[0].as_slice() {
            prop_assert!(*x >= lo - 1e-9 && *x <= hi + 1e-9);
        }
    }

    /// Krum agrees with FedAvg when all updates are identical.
    #[test]
    fn aggregators_agree_on_identical_updates(v in -5.0f64..5.0) {
        let mk = |id: &str| LocalUpdate {
            client_id: id.into(),
            weights: vec![Matrix::filled(3, 2, v)],
            sample_count: 10,
            train_loss: 0.0,
            duration: std::time::Duration::ZERO,
        simulated_extra_seconds: 0.0,
        };
        let ups = [mk("a"), mk("b"), mk("c"), mk("d")];
        let favg = Aggregator::FedAvg.aggregate(&ups).unwrap();
        let g = Aggregator::Krum { byzantine: 1 }.aggregate(&ups).unwrap();
        for (x, y) in g[0].as_slice().iter().zip(favg[0].as_slice()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    /// merge_segments is monotone: it only ever adds flags, and wider gaps
    /// merge supersets of narrower gaps.
    #[test]
    fn merge_segments_monotone(mask in prop::collection::vec(any::<bool>(), 1..200)) {
        let narrow = merge_segments(&mask, 1);
        let wide = merge_segments(&mask, 3);
        for i in 0..mask.len() {
            if mask[i] {
                prop_assert!(narrow[i]);
            }
            if narrow[i] {
                prop_assert!(wide[i]);
            }
        }
    }

    /// The parallel compute layer is bitwise deterministic: every pooled
    /// GEMM kernel produces the bits of the serial `Matrix` reference loop
    /// when split across the worker pool, for arbitrary shapes (including
    /// 1×n and n×1).
    #[test]
    fn parallel_kernels_bitwise_equal_serial(
        rows in 1usize..48,
        inner in 1usize..48,
        cols in 1usize..48,
        seed in 0u64..1000,
    ) {
        let mix = |i: usize, j: usize, salt: u64| {
            (((seed ^ salt).wrapping_add((i * 131 + j * 17) as u64)) as f64 * 0.6180339887).sin()
        };
        let a = Matrix::from_fn(rows, inner, |i, j| mix(i, j, 1));
        let b = Matrix::from_fn(inner, cols, |i, j| mix(i, j, 2));
        let c = Matrix::from_fn(rows, cols, |i, j| mix(i, j, 3));
        let d = Matrix::from_fn(cols, inner, |i, j| mix(i, j, 4));
        let e = Matrix::from_fn(rows, inner, |i, j| mix(i, j, 5));

        // Threshold 0 makes every dispatch eligible for the pool.
        let before = parallel::serial_flop_threshold();
        parallel::set_serial_flop_threshold(0);
        parallel::set_threads(5);
        let mut mm_p = vec![f64::NAN; rows * cols];
        kernels::matmul_into(a.view(), b.view(), MatMut::new(rows, cols, &mut mm_p));
        let mut tm_p = vec![f64::NAN; inner * cols];
        kernels::transpose_matmul_into(a.view(), c.view(), MatMut::new(inner, cols, &mut tm_p));
        let mut mt_p = vec![f64::NAN; rows * cols];
        kernels::matmul_transpose_into(a.view(), d.view(), MatMut::new(rows, cols, &mut mt_p));
        parallel::set_threads(0);
        parallel::set_serial_flop_threshold(before);

        prop_assert_eq!(a.matmul(&b).into_vec(), mm_p);
        prop_assert_eq!(a.transpose_matmul(&c).into_vec(), tm_p);
        prop_assert_eq!(a.matmul_transpose(&d).into_vec(), mt_p);
        // `transpose_into` and `zip_map` have no dispatch: plain checks.
        let mut tr = vec![f64::NAN; rows * inner];
        kernels::transpose_into(a.view(), MatMut::new(inner, rows, &mut tr));
        prop_assert_eq!(a.transpose().into_vec(), tr);
        let zm = a.zip_map(&e, |x, y| x.mul_add(1.25, y));
        for ((z, x), y) in zm.as_slice().iter().zip(a.as_slice()).zip(e.as_slice()) {
            prop_assert_eq!(z.to_bits(), x.mul_add(1.25, *y).to_bits());
        }
    }

    /// Tall/thin extremes: row counts far above the thread count and
    /// single-column outputs still partition correctly.
    #[test]
    fn parallel_tall_thin_bitwise_equal_serial(
        rows in 200usize..400,
        cols in 1usize..4,
        seed in 0u64..500,
    ) {
        let a = Matrix::from_fn(rows, 7, |i, j| ((seed.wrapping_add((i * 7 + j) as u64)) as f64 * 0.37).cos());
        let b = Matrix::from_fn(7, cols, |i, j| ((i * 3 + j) as f64 * 0.11).sin());
        let before = parallel::serial_flop_threshold();
        parallel::set_serial_flop_threshold(0);
        parallel::set_threads(7);
        let mut par = vec![f64::NAN; rows * cols];
        kernels::matmul_into(a.view(), b.view(), MatMut::new(rows, cols, &mut par));
        parallel::set_threads(0);
        parallel::set_serial_flop_threshold(before);
        prop_assert_eq!(a.matmul(&b).into_vec(), par);
    }
}

proptest! {
    // A federated round is expensive; a few cases suffice to exercise the
    // whole train/aggregate path under both thread settings.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A full federated round is bitwise independent of the intra-op
    /// thread count: `threads = 4` reproduces `threads = 1` exactly.
    #[test]
    fn federated_round_bitwise_independent_of_threads(seed in 0u64..100) {
        let samples = |phase: f64| -> Vec<Sample> {
            (0..24)
                .map(|i| {
                    let xs: Vec<f64> = (0..6)
                        .map(|t| ((i + t) as f64 * 0.5 + phase + seed as f64 * 0.01).sin())
                        .collect();
                    Sample::new(
                        Matrix::column_vector(&xs),
                        Matrix::from_vec(1, 1, vec![((i + 6) as f64 * 0.5 + phase).sin()]),
                    )
                })
                .collect()
        };
        let run = |threads: usize| {
            parallel::set_threads(threads);
            let cfg = FederatedConfig {
                rounds: 1,
                epochs_per_round: 1,
                batch_size: 8,
                parallel: false,
                ..FederatedConfig::default()
            };
            let mut sim = FederatedSimulation::new(forecaster_model(3, 3), cfg);
            sim.add_client("a", samples(0.0));
            sim.add_client("b", samples(0.9));
            sim.run()
        };
        let out_one = run(1).expect("threads=1 run");
        let out_four = run(4).expect("threads=4 run");
        parallel::set_threads(0);
        prop_assert_eq!(out_one.global_weights, out_four.global_weights);
    }
}
