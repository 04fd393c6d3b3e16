//! Integration tests for the extension subsystems: online detection, wire
//! format + compression interplay, the generator's daily structure, and
//! episode-level metrics on real injections.

use evfad_core::anomaly::{EpisodeReport, FilterConfig, OnlineDetector};
use evfad_core::attack::{DdosConfig, DdosInjector};
use evfad_core::data::{DatasetConfig, ShenzhenGenerator, Zone};
use evfad_core::federated::compression::QuantizedUpdate;
use evfad_core::federated::wire;
use evfad_core::forecast::experiment::build_forecaster;
use evfad_core::timeseries::MinMaxScaler;

/// Sample autocorrelation of `v` at `lag`.
fn autocorrelation(v: &[f64], lag: usize) -> f64 {
    let m = v.iter().sum::<f64>() / v.len() as f64;
    let cov: f64 = (lag..v.len()).map(|t| (v[t] - m) * (v[t - lag] - m)).sum();
    cov / v.iter().map(|x| (x - m).powi(2)).sum::<f64>()
}

/// Share of the variance of `v` explained by its hour-of-day means.
fn hour_of_day_share(v: &[f64]) -> f64 {
    let m = v.iter().sum::<f64>() / v.len() as f64;
    let mut hours = [(0.0, 0.0); 24];
    for (t, x) in v.iter().enumerate() {
        hours[t % 24].0 += x;
        hours[t % 24].1 += 1.0;
    }
    let between: f64 = hours.iter().map(|(s, n)| n * (s / n - m).powi(2)).sum();
    between / v.iter().map(|x| (x - m).powi(2)).sum::<f64>()
}

#[test]
fn generated_zones_have_daily_structure() {
    let data = ShenzhenGenerator::new(DatasetConfig::small(24 * 45, 11)).generate_all();
    for client in &data {
        let (zone, acf24) = (client.zone.label(), autocorrelation(&client.demand, 24));
        assert!(
            acf24 > 0.4,
            "zone {zone} lacks daily autocorrelation: {acf24}"
        );
        let share = hour_of_day_share(&client.demand);
        assert!(
            share > 0.2,
            "zone {zone} hour-of-day variance share {share}"
        );
    }
}

#[test]
fn online_detector_agrees_with_batch_on_strong_attacks() {
    let client = ShenzhenGenerator::new(DatasetConfig::small(700, 5)).generate_zone(Zone::Z102);
    let boundary = 560;
    let scaler = MinMaxScaler::fit(&client.demand[..boundary]).expect("scaler");
    let train_scaled = scaler.transform(&client.demand[..boundary]);

    let outcome = DdosInjector::new(DdosConfig::default()).inject(&client.demand, 3);
    let stream_scaled = scaler.transform(&outcome.series[boundary..]);

    let mut online =
        OnlineDetector::fit(FilterConfig::fast(24), &train_scaled, false).expect("online fit");
    let decisions = online.push_all(&stream_scaled);
    assert_eq!(decisions.len(), stream_scaled.len());

    // Strongly attacked streamed points should be flagged more often than
    // normal streamed points.
    let mut attacked_flagged = 0usize;
    let mut attacked_total = 0usize;
    let mut normal_flagged = 0usize;
    let mut normal_total = 0usize;
    for (i, d) in decisions.iter().enumerate() {
        let t = boundary + i;
        if outcome.labels[t] {
            attacked_total += 1;
            if d.anomalous {
                attacked_flagged += 1;
            }
        } else {
            normal_total += 1;
            if d.anomalous {
                normal_flagged += 1;
            }
        }
    }
    if attacked_total > 0 && normal_total > 0 {
        let attacked_rate = attacked_flagged as f64 / attacked_total as f64;
        let normal_rate = normal_flagged as f64 / normal_total as f64;
        assert!(
            attacked_rate > normal_rate + 0.1,
            "online detector not discriminating: attacked {attacked_rate:.2} vs normal {normal_rate:.2}"
        );
    }
}

#[test]
fn episode_metrics_on_real_injection() {
    let client = ShenzhenGenerator::new(DatasetConfig::small(900, 9)).generate_zone(Zone::Z105);
    let outcome = DdosInjector::new(DdosConfig::default()).inject(&client.demand, 4);
    // A perfect detector detects every episode with zero false alarms.
    let episodes: Vec<(usize, usize)> = outcome.episodes.iter().map(|e| (e.start, e.end)).collect();
    let perfect = EpisodeReport::from_episodes(&episodes, &outcome.labels, 0.5);
    assert_eq!(perfect.detected, perfect.episodes);
    assert_eq!(perfect.false_alarm_events, 0);
    // A blind detector detects none.
    let blind = EpisodeReport::from_episodes(&episodes, &vec![false; outcome.labels.len()], 0.1);
    assert_eq!(blind.detected, 0);
}

#[test]
fn wire_and_quantization_compose() {
    let model = build_forecaster(12, 0.001, 17);
    let weights = model.weights();

    // Wire round trip is exact.
    let blob = wire::encode_weights(&weights);
    assert_eq!(wire::decode_weights(&blob).expect("decode"), weights);

    // Quantized + wire is ~8x smaller than raw JSON and still close.
    let quant = QuantizedUpdate::quantize(&weights);
    let deq = quant.dequantize();
    let wire_exact = wire::encoded_size(&weights);
    assert!(
        quant.byte_size() < wire_exact / 6,
        "quantization not paying off"
    );
    for (a, b) in weights.iter().zip(&deq) {
        let max_err = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0_f64, f64::max);
        // Glorot-initialised weights live in (-1, 1): 8-bit quantization
        // error stays well under 1% of the range.
        assert!(max_err < 0.01, "quantization error {max_err}");
    }
}

#[test]
fn csv_round_trip_through_disk_format() {
    let client = ShenzhenGenerator::new(DatasetConfig::small(120, 21)).generate_zone(Zone::Z108);
    let text = evfad_core::data::csv::to_csv(&client);
    let restored = evfad_core::data::csv::from_csv(&text, Zone::Z108).expect("parse");
    assert_eq!(restored.demand.len(), client.demand.len());
    let max_err = client
        .demand
        .iter()
        .zip(&restored.demand)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    assert_eq!(max_err, 0.0, "CSV round trip must be lossless");
}
