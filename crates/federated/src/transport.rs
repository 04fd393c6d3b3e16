//! Communication accounting for weight exchange.
//!
//! The paper's privacy argument rests on "only model parameters were
//! exchanged between clients". This module makes that exchange explicit: a
//! [`MeteredChannel`] counts every payload, so experiments can report how
//! many bytes a federation round costs versus shipping raw data.
//!
//! The round loop meters **binary wire bytes** (see [`wire`](crate::wire))
//! through the O(1) [`MeteredChannel::record_bytes`] /
//! [`MeteredChannel::record_attempts_bytes`] entry points — the broadcast
//! is encoded once per round and every uplink is measured by the exact
//! byte length of the payload that crossed the channel, so metering never
//! serialises anything.

use evfad_tensor::Matrix;
use parking_lot::Mutex;
use std::sync::Arc;

/// Byte counters for one direction of traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficTotals {
    /// Number of payloads sent (including re-sends).
    pub messages: usize,
    /// Total payload bytes.
    pub bytes: usize,
    /// Payloads that were *re*-sends: retry attempts after a transient
    /// upload failure (see [`crate::faults::FaultKind::Transient`]). Each
    /// retry is also counted in `messages`/`bytes` — the payload crossed
    /// the channel — so `messages - retries` is the first-attempt count.
    pub retries: usize,
}

/// A thread-safe channel meter.
///
/// # Examples
///
/// ```
/// use evfad_federated::transport::MeteredChannel;
/// use evfad_federated::wire;
/// use evfad_tensor::Matrix;
///
/// let weights = vec![Matrix::zeros(10, 10)];
/// let channel = MeteredChannel::new();
/// channel.record_bytes(wire::encoded_size(&weights));
/// assert_eq!(channel.totals().messages, 1);
/// assert!(channel.totals().bytes > 100);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MeteredChannel {
    totals: Arc<Mutex<TrafficTotals>>,
}

impl MeteredChannel {
    /// Creates a channel with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one payload of `bytes` length — O(1), no serialisation.
    /// The caller supplies the length of the payload that actually crossed
    /// the channel (an encoded blob's `len()`, or exact size arithmetic
    /// like [`wire::encoded_size`](crate::wire::encoded_size)).
    pub fn record_bytes(&self, bytes: usize) {
        let mut t = self.totals.lock();
        t.messages += 1;
        t.bytes += bytes;
    }

    /// Records one payload of `bytes` length sent `attempts` times (an
    /// initial attempt plus `attempts - 1` retries). Every attempt crosses
    /// the channel, so each one is metered in full; the extra attempts are
    /// also tallied in [`TrafficTotals::retries`]. `attempts == 0` records
    /// nothing. O(1), no serialisation.
    pub fn record_attempts_bytes(&self, bytes: usize, attempts: usize) {
        if attempts == 0 {
            return;
        }
        let mut t = self.totals.lock();
        t.messages += attempts;
        t.bytes += bytes * attempts;
        t.retries += attempts - 1;
    }

    /// Current counters.
    pub fn totals(&self) -> TrafficTotals {
        *self.totals.lock()
    }

    /// Resets the counters to zero.
    pub fn reset(&self) {
        *self.totals.lock() = TrafficTotals::default();
    }
}

/// Wire size in bytes of a weight vector (one full-precision model
/// update) — O(1) shape arithmetic over [`wire::encoded_size`], no
/// allocation, no serialisation.
///
/// [`wire::encoded_size`]: crate::wire::encoded_size
pub fn update_size_bytes(weights: &[Matrix]) -> usize {
    crate::wire::encoded_size(weights)
}

/// Wire size in bytes of a raw data series — what a *centralized*
/// architecture would have to ship instead of weights, priced in the same
/// binary wire format (one `len × 1` tensor: header plus 8 bytes per
/// point). O(1).
pub fn series_size_bytes(series: &[f64]) -> usize {
    10 + 8 + series.len() * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let ch = MeteredChannel::new();
        ch.record_bytes(7);
        ch.record_attempts_bytes(5, 2);
        let t = ch.totals();
        assert_eq!(t.messages, 3);
        assert_eq!(t.bytes, 17);
    }

    #[test]
    fn record_bytes_is_exact() {
        let ch = MeteredChannel::new();
        ch.record_bytes(123);
        ch.record_bytes(77);
        let t = ch.totals();
        assert_eq!(t.messages, 2);
        assert_eq!(t.bytes, 200);
        assert_eq!(t.retries, 0);
    }

    #[test]
    fn reset_zeroes() {
        let ch = MeteredChannel::new();
        ch.record_bytes(42);
        ch.reset();
        assert_eq!(ch.totals(), TrafficTotals::default());
    }

    #[test]
    fn clones_share_counters() {
        let ch = MeteredChannel::new();
        let clone = ch.clone();
        clone.record_bytes(1);
        assert_eq!(ch.totals().messages, 1);
    }

    #[test]
    fn works_across_threads() {
        let ch = MeteredChannel::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let local = ch.clone();
                s.spawn(move || {
                    for _ in 0..10 {
                        local.record_bytes(64);
                    }
                });
            }
        });
        assert_eq!(ch.totals().messages, 40);
        assert_eq!(ch.totals().bytes, 40 * 64);
    }

    #[test]
    fn record_attempts_bytes_meters_every_attempt() {
        let ch = MeteredChannel::new();
        ch.record_attempts_bytes(100, 3);
        let t = ch.totals();
        assert_eq!(t.messages, 3);
        assert_eq!(t.bytes, 300);
        assert_eq!(t.retries, 2);
    }

    #[test]
    fn record_attempts_zero_is_a_no_op() {
        let ch = MeteredChannel::new();
        ch.record_attempts_bytes(64, 0);
        assert_eq!(ch.totals(), TrafficTotals::default());
    }

    #[test]
    fn update_size_is_the_wire_encoding_size() {
        let weights = vec![Matrix::zeros(10, 10), Matrix::zeros(1, 10)];
        assert_eq!(
            update_size_bytes(&weights),
            crate::wire::encode_weights(&weights).len()
        );
    }

    #[test]
    fn series_size_is_the_wire_encoding_size() {
        // Priced as one column tensor in the EVFD format.
        let series = vec![1.25f64; 500];
        let as_tensor = vec![Matrix::column_vector(&series)];
        assert_eq!(
            series_size_bytes(&series),
            crate::wire::encode_weights(&as_tensor).len()
        );
    }

    #[test]
    fn weight_updates_are_smaller_than_long_series() {
        // A small model's weights vs a season of hourly data per client.
        let weights = vec![Matrix::zeros(10, 10), Matrix::zeros(1, 10)];
        let series = vec![123.456f64; 50_000];
        assert!(update_size_bytes(&weights) < series_size_bytes(&series));
    }
}
