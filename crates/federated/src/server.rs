//! Server-side round machinery, factored out of the simulation loop so the
//! same components drive both the in-process [`crate::FederatedSimulation`]
//! and the large-population [`crate::scale`] engine:
//!
//! * [`FaultGate`] — deterministic admission (pre-training drop-out) and
//!   disposition (straggler timeout, corruption, transient retry) of
//!   updates under a [`FaultPlan`];
//! * [`meter_uplinks`] — exact wire-byte metering of every payload that
//!   crosses the channel, retries and discarded uploads included, through
//!   a caller-owned [`CodecScratch`](crate::compression::CodecScratch) so
//!   warm rounds encode without allocating;
//! * [`aggregate_round`] — the aggregation entry point, which routes
//!   FedAvg through the O(model) [`crate::streaming`] path (bitwise
//!   identical to the batch fold by construction) and the robust rules
//!   through the batch path.

use crate::aggregate::Aggregator;
use crate::client::LocalUpdate;
use crate::compression::{CodecScratch, CompressionMode};
use crate::error::FederatedError;
use crate::faults::{FaultEvent, FaultInjector, FaultKind, FaultOutcome, FaultPlan};
use crate::transport::MeteredChannel;
use crate::wire;
use evfad_tensor::Matrix;

/// What the server does with a trained update after consulting the fault
/// model: aggregate it, or discard it while still paying for its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Disposition {
    /// Aggregate the update; it crossed the channel `attempts` times
    /// (1 plus any recovered transient failures).
    Keep { attempts: usize },
    /// Discard the update (timed-out straggler, exhausted retries); its
    /// `attempts` sends are still metered.
    Waste { attempts: usize },
}

/// Deterministic fault admission and disposition for one run.
///
/// Wraps a [`FaultInjector`] over the run's [`FaultPlan`] — a plan with no
/// rules when the run has none, so no fault ever fires — and reads the
/// plan-level knobs (`min_participants`, round timeout, retry budget,
/// backoff) from it, so round loops never re-derive them. All decisions
/// are pure functions of `(plan seed, round, client id)` — identical across
/// thread counts and across the simulation/scale engines. The scale
/// engine's parallel edge fan-out shares one gate by `&` across worker
/// threads, so the gate must stay `Sync`: no interior mutability, no cached
/// per-call state (the `gate_is_sync_for_the_parallel_fan_out` test pins
/// this at compile time).
#[derive(Debug)]
pub(crate) struct FaultGate {
    injector: FaultInjector,
    /// Fewest aggregated updates a round may proceed with.
    pub(crate) min_participants: usize,
    /// The plan's round timeout in simulated seconds; `+∞` when it waits
    /// forever, which no delay exceeds.
    round_timeout: f64,
}

impl FaultGate {
    pub(crate) fn new(plan: Option<FaultPlan>) -> Self {
        let plan = plan.unwrap_or_default();
        Self {
            min_participants: plan.min_participants,
            round_timeout: plan.round_timeout_seconds.unwrap_or(f64::INFINITY),
            injector: FaultInjector::new(plan),
        }
    }

    /// The fault (if any) the plan injects for `client_id` in `round`.
    /// Pure: safe to call from a pre-pass and again from the round loop.
    pub(crate) fn fault_for(&self, round: usize, client_id: &str) -> Option<FaultKind> {
        self.injector.fault_for(round, client_id)
    }

    /// Pre-training admission: `None` when the client drops out this round
    /// (the event is recorded; the client never trains), otherwise the
    /// fault to apply post-training via [`FaultGate::dispose`].
    pub(crate) fn admit(
        &self,
        round: usize,
        client_id: &str,
        events: &mut Vec<FaultEvent>,
    ) -> Option<Option<FaultKind>> {
        let fault = self.fault_for(round, client_id);
        if matches!(fault, Some(FaultKind::DropOut)) {
            events.push(FaultEvent {
                round,
                client_id: client_id.to_string(),
                fault: FaultKind::DropOut,
                outcome: FaultOutcome::Dropped,
            });
            None
        } else {
            Some(fault)
        }
    }

    /// The Keep/Waste decision for `fault`, without touching an update or
    /// recording an event. Pure — lets a pre-pass size streaming
    /// aggregators (expected update counts, sample totals) before any
    /// payload exists. [`FaultGate::dispose`] returns this and adds only the
    /// side effects, so the timeout and retry-budget comparisons live here.
    pub(crate) fn decide(&self, fault: Option<FaultKind>) -> Disposition {
        match fault {
            None | Some(FaultKind::Corrupt { .. }) => Disposition::Keep { attempts: 1 },
            // `FaultGate::admit` answers `None` for a drop-out, so the
            // client never trains and its fault never gets here
            // (`gate_records_drop_outs_at_admission`).
            Some(FaultKind::DropOut) => unreachable!("drop-outs filtered at admission"),
            Some(FaultKind::Straggler { delay_seconds }) if delay_seconds > self.round_timeout => {
                Disposition::Waste { attempts: 1 }
            }
            Some(FaultKind::Straggler { .. }) => Disposition::Keep { attempts: 1 },
            Some(FaultKind::Transient { failures }) => {
                let budget = self.injector.plan().retry_budget;
                if failures <= budget {
                    Disposition::Keep {
                        attempts: failures + 1,
                    }
                } else {
                    Disposition::Waste {
                        attempts: budget + 1,
                    }
                }
            }
        }
    }

    /// Applies `fault` to a trained update — in place for corruption and
    /// simulated delay — records the event, and returns
    /// [`FaultGate::decide`]'s verdict on whether the server aggregates or
    /// discards it. `timeout_wait_seconds` accumulates the
    /// server-side wait for stragglers cut off by the round timeout.
    ///
    /// `apply_payload_faults` controls whether payload-visible mutations
    /// (update corruption) are applied here. The simulated path passes
    /// `true`; the socket path passes `false` because the *client* applies
    /// the corruption before encoding its uplink — the bytes on the wire
    /// are already corrupt, and re-applying a non-idempotent corruption
    /// (sign flip, scaling) server-side would double it. Accounting-only
    /// effects (simulated delay, retry backoff, events, Keep/Waste) happen
    /// either way.
    pub(crate) fn dispose(
        &self,
        round: usize,
        fault: Option<FaultKind>,
        update: &mut LocalUpdate,
        events: &mut Vec<FaultEvent>,
        timeout_wait_seconds: &mut f64,
        apply_payload_faults: bool,
    ) -> Disposition {
        let disposition = self.decide(fault);
        let Some(fault) = fault else {
            return disposition;
        };
        let outcome = match (fault, disposition) {
            // Admission answered `None` for a drop-out, so the client never
            // trained and has no update to dispose of
            // (`gate_records_drop_outs_at_admission`).
            (FaultKind::DropOut, _) => unreachable!("drop-outs filtered before training"),
            (FaultKind::Straggler { delay_seconds }, Disposition::Waste { .. }) => {
                // Wasted only past a finite timeout: `decide` compared.
                let timeout = self.round_timeout;
                *timeout_wait_seconds = timeout_wait_seconds.max(timeout);
                // The late update still arrives eventually and still
                // costs bandwidth; it is just ignored.
                FaultOutcome::TimedOut {
                    delay_seconds,
                    timeout_seconds: timeout,
                }
            }
            (FaultKind::Straggler { delay_seconds }, Disposition::Keep { .. }) => {
                update.simulated_extra_seconds += delay_seconds;
                FaultOutcome::Delayed { delay_seconds }
            }
            (FaultKind::Corrupt { corruption }, _) => {
                if apply_payload_faults {
                    corruption.apply(&mut update.weights);
                }
                FaultOutcome::Corrupted
            }
            (FaultKind::Transient { failures }, Disposition::Keep { .. }) => {
                let backoff = self.injector.plan().backoff_total_seconds(failures);
                update.simulated_extra_seconds += backoff;
                FaultOutcome::Recovered {
                    failed_attempts: failures,
                    backoff_seconds: backoff,
                }
            }
            (FaultKind::Transient { .. }, Disposition::Waste { attempts }) => {
                FaultOutcome::RetriesExhausted {
                    failed_attempts: attempts,
                }
            }
        };
        events.push(FaultEvent {
            round,
            client_id: update.client_id.clone(),
            fault,
            outcome,
        });
        disposition
    }
}

/// Uplink traffic for one round, as metered by [`meter_uplinks`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct UplinkStats {
    /// Wire bytes that actually crossed the channel, retries included.
    pub(crate) bytes: usize,
    /// Full-precision bytes the same payloads would have cost.
    pub(crate) raw_bytes: usize,
}

impl UplinkStats {
    /// Full-precision bytes over actual bytes (1.0 when nothing crossed).
    pub(crate) fn compression_ratio(&self) -> f64 {
        if self.bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.bytes as f64
        }
    }
}

/// Encodes, meters, and (for lossy modes) decodes every uplink of a round:
/// kept updates have their weights replaced by the server-side decode so
/// metering, faults, and aggregation all see the same bytes; wasted
/// updates (timed-out stragglers, exhausted retries) are metered only.
///
/// `kept_wire` / the third tuple field of `wasted` carry the *actual*
/// payload byte length for updates that crossed a real wire (the socket
/// path): those weights are already the server-side decode of the received
/// payload, so re-encoding here would not be an identity for the lossy
/// modes (re-quantizing dequantized values moves the grid). `None` means
/// the in-process path: encode into `scratch`, meter the arithmetic,
/// substitute the decode in place — the round loop owns one scratch for
/// the whole run, so warm rounds encode and decode every update without a
/// single codec allocation. Frame and envelope overhead is deliberately
/// excluded from the metered bytes on both paths; the digest counts
/// protocol payload, which is what `wire::encoded_size` arithmetic
/// predicts.
pub(crate) fn meter_uplinks(
    channel: &MeteredChannel,
    mode: CompressionMode,
    kept: &mut [LocalUpdate],
    kept_attempts: &[usize],
    kept_wire: &[Option<usize>],
    wasted: &[(LocalUpdate, usize, Option<usize>)],
    scratch: &mut CodecScratch,
) -> UplinkStats {
    let mut stats = UplinkStats::default();
    for ((update, attempts), wire_len) in kept.iter_mut().zip(kept_attempts).zip(kept_wire) {
        stats.raw_bytes += wire::encoded_size(&update.weights) * attempts;
        let payload_bytes = match wire_len {
            Some(len) => *len,
            None => {
                let len = scratch.encoded_len(mode, &update.weights);
                scratch.decode_into(mode, &mut update.weights);
                len
            }
        };
        channel.record_attempts_bytes(payload_bytes, *attempts);
        stats.bytes += payload_bytes * attempts;
    }
    for (update, attempts, wire_len) in wasted {
        let payload_bytes = match wire_len {
            Some(len) => *len,
            None => scratch.encoded_len(mode, &update.weights),
        };
        channel.record_attempts_bytes(payload_bytes, *attempts);
        stats.bytes += payload_bytes * attempts;
        stats.raw_bytes += wire::encoded_size(&update.weights) * attempts;
    }
    stats
}

/// Aggregates one round's surviving updates.
///
/// FedAvg is routed through [`crate::streaming::StreamingAggregator`] —
/// the streaming fold replays the batch fold term by term (same weights,
/// same order), so the result is **bitwise identical** to
/// [`Aggregator::aggregate`] while holding O(model) state; the golden
/// fixture pins this. The robust rules keep the batch path here: median
/// and Krum fundamentally need all updates, and streaming trimmed mean
/// re-associates the sum (≈1 ulp) so it serves the scale engine, not the
/// bit-reproducible simulation.
pub(crate) fn aggregate_round(
    aggregator: Aggregator,
    kept: &[LocalUpdate],
) -> Result<Vec<Matrix>, FederatedError> {
    if matches!(aggregator, Aggregator::FedAvg) && !kept.is_empty() {
        let total: f64 = kept.iter().map(|u| u.sample_count as f64).sum();
        if let Some(mut streaming) = aggregator.streaming(total, kept.len()) {
            for update in kept {
                streaming.ingest(update)?;
            }
            return streaming.finish();
        }
    }
    aggregator.aggregate(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::RoundSelector;
    use std::time::Duration;

    #[test]
    fn gate_is_sync_for_the_parallel_fan_out() {
        // The scale engine hands `&FaultGate` to every edge-fold worker;
        // losing `Sync` (e.g. by caching decisions in a `Cell`) would
        // break that at a distance.
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<FaultGate>();
    }

    fn update(id: &str, count: usize, v: f64) -> LocalUpdate {
        LocalUpdate {
            client_id: id.to_string(),
            weights: vec![Matrix::from_vec(1, 3, vec![v, v * 2.0, v * -0.5])],
            sample_count: count,
            train_loss: 0.1,
            duration: Duration::ZERO,
            simulated_extra_seconds: 0.0,
        }
    }

    #[test]
    fn aggregate_round_fedavg_is_bitwise_identical_to_batch() {
        let kept = vec![
            update("a", 31, 0.1234567),
            update("b", 7, -2.25),
            update("c", 113, 9.75e-3),
        ];
        let via_server = aggregate_round(Aggregator::FedAvg, &kept).expect("streaming route");
        let via_batch = Aggregator::FedAvg.aggregate(&kept).expect("batch");
        assert_eq!(via_server, via_batch, "must match to the bit");
    }

    #[test]
    fn aggregate_round_robust_rules_use_the_batch_path() {
        let kept = vec![
            update("a", 1, 1.0),
            update("b", 1, 2.0),
            update("c", 1, 3.0),
            update("d", 1, 4.0),
        ];
        for agg in [
            Aggregator::Median,
            Aggregator::TrimmedMean { trim: 1 },
            Aggregator::Krum { byzantine: 1 },
        ] {
            let via_server = aggregate_round(agg, &kept).expect("server route");
            let via_batch = agg.aggregate(&kept).expect("batch");
            assert_eq!(via_server, via_batch);
        }
    }

    #[test]
    fn aggregate_round_propagates_no_clients() {
        assert!(matches!(
            aggregate_round(Aggregator::FedAvg, &[]),
            Err(FederatedError::NoClients)
        ));
    }

    #[test]
    fn gate_without_plan_keeps_everything() {
        let gate = FaultGate::new(None);
        assert_eq!(gate.min_participants, 1);
        let mut events = Vec::new();
        assert_eq!(gate.admit(0, "a", &mut events), Some(None));
        let mut u = update("a", 1, 1.0);
        let mut wait = 0.0;
        let d = gate.dispose(0, None, &mut u, &mut events, &mut wait, true);
        assert_eq!(d, Disposition::Keep { attempts: 1 });
        assert!(events.is_empty());
        assert_eq!(wait, 0.0);
    }

    #[test]
    fn gate_times_out_stragglers_past_the_deadline() {
        let plan = FaultPlan::new(3).with_timeout(10.0).with_rule(
            "slow",
            RoundSelector::Every,
            FaultKind::Straggler {
                delay_seconds: 50.0,
            },
        );
        let gate = FaultGate::new(Some(plan));
        let mut events = Vec::new();
        let fault = gate.admit(0, "slow", &mut events).expect("not a drop-out");
        let mut u = update("slow", 1, 1.0);
        let mut wait = 0.0;
        let d = gate.dispose(0, fault, &mut u, &mut events, &mut wait, true);
        assert_eq!(d, Disposition::Waste { attempts: 1 });
        assert_eq!(wait, 10.0);
        assert!(matches!(
            events[0].outcome,
            FaultOutcome::TimedOut { delay_seconds, timeout_seconds }
                if delay_seconds == 50.0 && timeout_seconds == 10.0
        ));
    }

    #[test]
    fn gate_records_drop_outs_at_admission() {
        let plan = FaultPlan::new(3).with_rule("gone", RoundSelector::Every, FaultKind::DropOut);
        let gate = FaultGate::new(Some(plan));
        let mut events = Vec::new();
        assert_eq!(gate.admit(0, "gone", &mut events), None);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].outcome, FaultOutcome::Dropped);
        assert_eq!(gate.admit(0, "here", &mut events), Some(None));
    }

    #[test]
    fn decide_agrees_with_dispose_for_every_fault_kind() {
        use crate::faults::Corruption;
        let plan = FaultPlan::new(1).with_timeout(10.0).with_retry(2, 1.0);
        let gate = FaultGate::new(Some(plan));
        let cases = [
            None,
            Some(FaultKind::Straggler { delay_seconds: 5.0 }),
            Some(FaultKind::Straggler {
                delay_seconds: 50.0,
            }),
            Some(FaultKind::Corrupt {
                corruption: Corruption::NanFlood,
            }),
            Some(FaultKind::Transient { failures: 2 }),
            Some(FaultKind::Transient { failures: 3 }),
        ];
        for fault in cases {
            let mut u = update("x", 1, 1.0);
            let mut events = Vec::new();
            let mut wait = 0.0;
            let disposed = gate.dispose(0, fault, &mut u, &mut events, &mut wait, true);
            assert_eq!(gate.decide(fault), disposed, "fault {fault:?}");
        }
    }

    #[test]
    fn gate_meters_exhausted_retries_as_waste() {
        let plan = FaultPlan::new(3).with_retry(1, 1.0).with_rule(
            "flaky",
            RoundSelector::Every,
            FaultKind::Transient { failures: 5 },
        );
        let gate = FaultGate::new(Some(plan));
        let mut events = Vec::new();
        let fault = gate.admit(0, "flaky", &mut events).expect("active");
        let mut u = update("flaky", 1, 1.0);
        let mut wait = 0.0;
        let d = gate.dispose(0, fault, &mut u, &mut events, &mut wait, true);
        assert_eq!(d, Disposition::Waste { attempts: 2 });
        assert!(matches!(
            events[0].outcome,
            FaultOutcome::RetriesExhausted { failed_attempts: 2 }
        ));
    }
}
