//! The server's fault model: [`FaultGate`] answers, for one run's
//! [`FaultPlan`], every question the round protocol in
//! [`engine`](crate::engine) asks about a client —
//!
//! * at admission, before anyone trains: does the client drop out, and if
//!   not, which fault does it act out and will the server keep its update
//!   ([`FaultGate::admit`])?
//! * after training: apply the fault to the update (straggler delay, retry
//!   backoff, corruption) and name its outcome ([`FaultGate::dispose`]);
//! * and whether enough updates survive for the round to proceed
//!   ([`FaultGate::require`]).
//!
//! Every answer is a pure function of `(plan seed, round, client id)`, so
//! the in-process, socket and scale drivers — and the scale engine's edge
//! hop, which asks an edge plan's gate about ids `"edge-{e}"` — agree on
//! them at every thread count.

use crate::client::LocalUpdate;
use crate::error::FederatedError;
use crate::faults::{FaultKind, FaultOutcome, FaultPlan};

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

impl Disposition {
    /// How many times the update crossed the channel.
    pub(crate) fn attempts(self) -> usize {
        match self {
            Disposition::Keep { attempts } | Disposition::Waste { attempts } => attempts,
        }
    }
}

/// Deterministic fault admission and disposition for one run.
///
/// Holds the run's [`FaultPlan`] — a plan with no rules when the run has
/// none, so no fault ever fires — and reads the plan-level knobs
/// (`min_participants`, round timeout, retry budget, backoff) from it, so
/// the protocol never re-derives them. The scale
/// engine's parallel shard folds share one gate by `&` across worker
/// threads, so the gate must stay `Sync`: no interior mutability, no cached
/// per-call state (the `gate_is_sync_for_the_parallel_fan_out` test pins
/// this at compile time).
#[derive(Debug)]
pub(crate) struct FaultGate {
    plan: FaultPlan,
    /// The plan's round timeout in simulated seconds; `+∞` when it waits
    /// forever, which no delay exceeds.
    round_timeout: f64,
}

impl FaultGate {
    pub(crate) fn new(plan: Option<FaultPlan>) -> Self {
        let plan = plan.unwrap_or_default();
        Self {
            round_timeout: plan.round_timeout_seconds.unwrap_or(f64::INFINITY),
            plan,
        }
    }

    /// Pre-training admission: `None` when the client drops out this round
    /// (it never trains), otherwise the fault it acts out after training and
    /// the server's verdict on its update.
    pub(crate) fn admit(
        &self,
        round: usize,
        client_id: &str,
    ) -> Option<(Option<FaultKind>, Disposition)> {
        let fault = self.plan.fault_for(round, client_id);
        if matches!(fault, Some(FaultKind::DropOut)) {
            None
        } else {
            Some((fault, self.decide(fault)))
        }
    }

    /// The Keep/Waste decision for `fault`, without touching an update.
    /// Admission sizes accumulators with it before any payload exists;
    /// [`FaultGate::dispose`] returns the same verdict, so the timeout and
    /// retry-budget comparisons live here only.
    fn decide(&self, fault: Option<FaultKind>) -> Disposition {
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
                let budget = self.plan.retry_budget;
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
    /// simulated delay — and returns [`FaultGate::decide`]'s verdict with
    /// the fault's outcome (`None` when there was no fault).
    ///
    /// `apply_payload_faults` controls whether payload-visible mutations
    /// (update corruption) are applied here. The simulated path passes
    /// `true`; the socket path passes `false` because the *client* applies
    /// the corruption before encoding its uplink — the bytes on the wire
    /// are already corrupt, and re-applying a non-idempotent corruption
    /// (sign flip, scaling) server-side would double it. Accounting-only
    /// effects (simulated delay, retry backoff, Keep/Waste) happen either
    /// way.
    pub(crate) fn dispose(
        &self,
        fault: Option<FaultKind>,
        update: &mut LocalUpdate,
        apply_payload_faults: bool,
    ) -> (Disposition, Option<FaultOutcome>) {
        let disposition = self.decide(fault);
        let outcome = fault.map(|fault| match (fault, disposition) {
            // Admission answered `None` for a drop-out, so the client never
            // trained and has no update to dispose of
            // (`gate_records_drop_outs_at_admission`).
            (FaultKind::DropOut, _) => unreachable!("drop-outs filtered before training"),
            // Wasted only past a finite timeout: `decide` compared. The late
            // update still arrives and still costs bandwidth; it is ignored.
            (FaultKind::Straggler { delay_seconds }, Disposition::Waste { .. }) => {
                FaultOutcome::TimedOut {
                    delay_seconds,
                    timeout_seconds: self.round_timeout,
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
                let backoff = self.plan.backoff_total_seconds(failures);
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
        });
        (disposition, outcome)
    }

    /// The round proceeds only when `survivors` updates reach the plan's
    /// `min_participants`.
    ///
    /// # Errors
    ///
    /// [`FederatedError::InsufficientParticipants`] below the floor.
    pub(crate) fn require(&self, round: usize, survivors: usize) -> Result<(), FederatedError> {
        let required = self.plan.min_participants;
        if survivors < required {
            return Err(FederatedError::InsufficientParticipants {
                round,
                survivors,
                required,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::RoundSelector;
    use evfad_tensor::Matrix;
    use std::time::Duration;

    #[test]
    fn gate_is_sync_for_the_parallel_fan_out() {
        // The scale engine hands `&FaultGate` to every shard-fold worker;
        // losing `Sync` (e.g. by caching decisions in a `Cell`) would
        // break that at a distance.
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<FaultGate>();
    }

    fn update(id: &str) -> LocalUpdate {
        LocalUpdate {
            client_id: id.to_string(),
            weights: vec![Matrix::from_vec(1, 3, vec![1.0, 2.0, -0.5])],
            sample_count: 1,
            train_loss: 0.1,
            duration: Duration::ZERO,
            simulated_extra_seconds: 0.0,
        }
    }

    #[test]
    fn gate_without_plan_keeps_everything() {
        let gate = FaultGate::new(None);
        assert_eq!(gate.plan.min_participants, 1);
        let keep = Disposition::Keep { attempts: 1 };
        assert_eq!(gate.admit(0, "a"), Some((None, keep)));
        let mut u = update("a");
        assert_eq!(gate.dispose(None, &mut u, true), (keep, None));
        assert_eq!(u, update("a"));
        assert_eq!(
            gate.require(3, 0),
            Err(FederatedError::InsufficientParticipants {
                round: 3,
                survivors: 0,
                required: 1,
            })
        );
        assert_eq!(gate.require(3, 1), Ok(()));
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
        let (fault, decided) = gate.admit(0, "slow").expect("not a drop-out");
        let mut u = update("slow");
        let (disposed, outcome) = gate.dispose(fault, &mut u, true);
        assert_eq!(disposed, Disposition::Waste { attempts: 1 });
        assert_eq!(decided, disposed);
        assert!(matches!(
            outcome,
            Some(FaultOutcome::TimedOut { delay_seconds, timeout_seconds })
                if delay_seconds == 50.0 && timeout_seconds == 10.0
        ));
    }

    #[test]
    fn gate_records_drop_outs_at_admission() {
        let plan = FaultPlan::new(3).with_rule("gone", RoundSelector::Every, FaultKind::DropOut);
        let gate = FaultGate::new(Some(plan));
        assert_eq!(gate.admit(0, "gone"), None);
        assert_eq!(
            gate.admit(0, "here"),
            Some((None, Disposition::Keep { attempts: 1 }))
        );
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
            let mut u = update("x");
            let (disposed, outcome) = gate.dispose(fault, &mut u, true);
            assert_eq!(gate.decide(fault), disposed, "fault {fault:?}");
            assert_eq!(outcome.is_some(), fault.is_some(), "fault {fault:?}");
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
        let (fault, _) = gate.admit(0, "flaky").expect("active");
        let mut u = update("flaky");
        let (d, outcome) = gate.dispose(fault, &mut u, true);
        assert_eq!(d, Disposition::Waste { attempts: 2 });
        assert_eq!(d.attempts(), 2);
        assert!(matches!(
            outcome,
            Some(FaultOutcome::RetriesExhausted { failed_attempts: 2 })
        ));
    }
}
