//! Seeded fault injection for the federated loop.
//!
//! The paper's schedule assumes every client returns a clean update every
//! round, but its own threat model (data-integrity attacks on charging
//! telemetry) implies clients that stall, vanish, or return garbage. This
//! module makes those failure modes first-class and *deterministic*: a
//! [`FaultPlan`] describes which client misbehaves when and how and
//! evaluates itself ([`FaultPlan::fault_for`]), and every probabilistic
//! decision flows from a seeded RNG keyed on `(seed, rule, round, client)`
//! — so a chaos schedule is bit-reproducible regardless of thread
//! interleaving.
//!
//! Fault taxonomy (see DESIGN §7):
//!
//! | fault | models | server-side handling |
//! |---|---|---|
//! | [`FaultKind::DropOut`] | node vanishes | round proceeds without it |
//! | [`FaultKind::Straggler`] | degraded link / slow node | excluded when later than the round timeout |
//! | [`FaultKind::Corrupt`] | integrity attack at the weight level | left to the aggregator (Krum survives) |
//! | [`FaultKind::Transient`] | flaky upload | retried with exponential backoff up to a budget |

use crate::error::FederatedError;
use evfad_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How a corrupted client mangles its update payload.
///
/// These model the paper's data-integrity attacks escalated from the
/// telemetry path to the weight path (a compromised *client* rather than a
/// compromised *meter*).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Corruption {
    /// Every weight becomes NaN — destroys any mean-style aggregate
    /// outright and stress-tests NaN tolerance in Krum.
    NanFlood,
    /// Every weight is negated (gradient-inversion style poisoning).
    SignFlip,
    /// Every weight is multiplied by `factor` (model-boosting attack).
    Scale {
        /// Multiplier applied to every weight.
        factor: f64,
    },
}

impl Corruption {
    /// Applies this corruption to a weight payload in place.
    pub fn apply(self, weights: &mut [Matrix]) {
        for m in weights.iter_mut() {
            match self {
                Corruption::NanFlood => {
                    for v in m.as_mut_slice() {
                        *v = f64::NAN;
                    }
                }
                Corruption::SignFlip => {
                    for v in m.as_mut_slice() {
                        *v = -*v;
                    }
                }
                Corruption::Scale { factor } => {
                    for v in m.as_mut_slice() {
                        *v *= factor;
                    }
                }
            }
        }
    }
}

/// One fault a [`FaultRule`] can inject into a client's round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The client never reports this round (no update, no traffic).
    DropOut,
    /// The client reports `delay_seconds` of *simulated* time late. The
    /// delay counts toward [`simulated_distributed_seconds`]; if it exceeds
    /// the plan's round timeout the update arrives too late and is excluded
    /// from aggregation (its upload is still metered — the bytes crossed).
    ///
    /// [`simulated_distributed_seconds`]:
    ///   crate::FederatedOutcome::simulated_distributed_seconds
    Straggler {
        /// Simulated extra seconds before the update arrives.
        delay_seconds: f64,
    },
    /// The client's trained update is corrupted before upload.
    Corrupt {
        /// How the payload is mangled.
        corruption: Corruption,
    },
    /// The upload fails `failures` times before succeeding. The server
    /// retries with exponential backoff within [`FaultPlan::retry_budget`];
    /// each attempt is metered. If `failures` exceeds the budget the update
    /// is lost this round.
    Transient {
        /// Number of failed upload attempts before one would succeed.
        failures: usize,
    },
}

impl FaultKind {
    /// Stable identifier for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::DropOut => "drop_out",
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::Corrupt { .. } => "corrupt",
            FaultKind::Transient { .. } => "transient",
        }
    }
}

/// Which rounds a [`FaultRule`] fires in.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RoundSelector {
    /// Every round.
    Every,
    /// Exactly one round.
    Only {
        /// Zero-based round index.
        round: usize,
    },
    /// This round and every later one.
    From {
        /// Zero-based first affected round.
        round: usize,
    },
    /// Independently each round with probability `p`, drawn from the
    /// plan's seeded RNG (deterministic for a given plan).
    Probability {
        /// Per-round fire probability in `[0, 1]`.
        p: f64,
    },
}

/// A fault bound to one client and a round schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRule {
    /// Id of the client this rule targets (exact match), or `"*"` to
    /// target every client. Wildcard rules combined with
    /// [`RoundSelector::Probability`] express population-level fault rates
    /// (each client draws independently, keyed by its own id) — the form
    /// the 10k–100k client [`crate::scale`] engine uses, where per-client
    /// rules would be impractical.
    pub client: String,
    /// Rounds in which the rule fires.
    pub rounds: RoundSelector,
    /// The fault injected when the rule fires.
    pub fault: FaultKind,
}

/// A complete, seeded chaos schedule plus the server-side resilience knobs.
///
/// # Examples
///
/// ```
/// use evfad_federated::faults::{FaultKind, FaultPlan, RoundSelector};
///
/// let plan = FaultPlan::new(7)
///     .with_rule("z105", RoundSelector::Every, FaultKind::DropOut)
///     .with_min_participants(2);
/// assert!(plan.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision in the plan.
    pub seed: u64,
    /// The chaos schedule; for a client matched by several rules, the
    /// first rule that fires in a round wins.
    pub rules: Vec<FaultRule>,
    /// Server-side round timeout in simulated seconds; updates delayed
    /// beyond it are excluded from aggregation. `None` waits forever.
    pub round_timeout_seconds: Option<f64>,
    /// Maximum upload retries per client per round (beyond the first
    /// attempt) before the server gives the client up for the round.
    pub retry_budget: usize,
    /// First retry backoff in simulated seconds; attempt `k` waits
    /// `backoff_base_seconds * 2^(k-1)`.
    pub backoff_base_seconds: f64,
    /// A round errors ([`FederatedError::InsufficientParticipants`]) when
    /// fewer than this many updates survive the fault model.
    pub min_participants: usize,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            rules: Vec::new(),
            round_timeout_seconds: None,
            retry_budget: 2,
            backoff_base_seconds: 1.0,
            min_participants: 1,
        }
    }
}

impl FaultPlan {
    /// A plan with no rules and the default knobs.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Adds a rule (builder style).
    pub fn with_rule(
        mut self,
        client: impl Into<String>,
        rounds: RoundSelector,
        fault: FaultKind,
    ) -> Self {
        self.rules.push(FaultRule {
            client: client.into(),
            rounds,
            fault,
        });
        self
    }

    /// Sets the round timeout (builder style).
    pub fn with_timeout(mut self, seconds: f64) -> Self {
        self.round_timeout_seconds = Some(seconds);
        self
    }

    /// Sets the retry budget and backoff base (builder style).
    pub fn with_retry(mut self, budget: usize, backoff_base_seconds: f64) -> Self {
        self.retry_budget = budget;
        self.backoff_base_seconds = backoff_base_seconds;
        self
    }

    /// Sets the per-round participant floor (builder style).
    pub fn with_min_participants(mut self, n: usize) -> Self {
        self.min_participants = n;
        self
    }

    /// Checks every knob for sanity.
    ///
    /// # Errors
    ///
    /// [`FederatedError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), FederatedError> {
        let bad = |field: &str, message: String| FederatedError::InvalidConfig {
            field: field.to_string(),
            message,
        };
        if let Some(t) = self.round_timeout_seconds {
            if !t.is_finite() || t <= 0.0 {
                return Err(bad(
                    "faults.round_timeout_seconds",
                    format!("timeout must be finite and positive, got {t}"),
                ));
            }
        }
        if !self.backoff_base_seconds.is_finite() || self.backoff_base_seconds < 0.0 {
            return Err(bad(
                "faults.backoff_base_seconds",
                format!(
                    "backoff base must be finite and non-negative, got {}",
                    self.backoff_base_seconds
                ),
            ));
        }
        if self.min_participants == 0 {
            return Err(bad(
                "faults.min_participants",
                "a round needs at least one surviving participant".to_string(),
            ));
        }
        for (i, rule) in self.rules.iter().enumerate() {
            crate::wire::check_id("faults.rules", &rule.client)?;
            if let RoundSelector::Probability { p } = rule.rounds {
                if !(0.0..=1.0).contains(&p) || p.is_nan() {
                    return Err(bad(
                        "faults.rules",
                        format!("rule {i} ({}) probability {p} outside [0, 1]", rule.client),
                    ));
                }
            }
            match rule.fault {
                FaultKind::Straggler { delay_seconds }
                    if !delay_seconds.is_finite() || delay_seconds < 0.0 =>
                {
                    return Err(bad(
                        "faults.rules",
                        format!(
                            "rule {i} ({}) straggler delay {delay_seconds} must be \
                             finite and non-negative",
                            rule.client
                        ),
                    ));
                }
                FaultKind::Corrupt {
                    corruption: Corruption::Scale { factor },
                } if factor.is_nan() => {
                    return Err(bad(
                        "faults.rules",
                        format!(
                            "rule {i} ({}) scale factor must not be NaN \
                             (use Corruption::NanFlood to inject NaN)",
                            rule.client
                        ),
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Simulated seconds spent backing off before a success on attempt
    /// `failures + 1`: `base * (2^failures - 1)`.
    pub fn backoff_total_seconds(&self, failures: usize) -> f64 {
        // Saturate the exponent: a plan with a pathological failure count
        // should yield a huge-but-finite delay, not overflow.
        let doublings = failures.min(60) as u32;
        self.backoff_base_seconds * ((1u64 << doublings) - 1) as f64
    }

    /// Seconds a client waits after its `attempt`-th failed upload
    /// (0-based) before retrying: `base * 2^attempt`. The per-step view
    /// of the same schedule [`FaultPlan::backoff_total_seconds`] sums —
    /// `Σ step(0..failures) == total(failures)` for *every* failure
    /// count — used by the live TCP client, which actually sleeps between
    /// attempts instead of having the server account the wait in one lump.
    pub fn backoff_step_seconds(&self, attempt: usize) -> f64 {
        // Saturate consistently with the total: the total's exponent caps
        // at 60, so past that point the schedule stops growing and every
        // further step contributes zero wait. Capping the *step* at
        // `base * 2^60` instead would both break the sum identity above
        // and (uncapped) overflow the shift, panicking in debug builds
        // from attempt 64 on.
        if attempt >= 60 {
            return 0.0;
        }
        self.backoff_base_seconds * (1u64 << attempt as u32) as f64
    }

    /// The fault (if any) hitting `client_id` in `round`: the first rule
    /// matching the client (exactly, or via the `"*"` wildcard) that fires
    /// this round. A pure function of `(seed, round, client)`, so the
    /// order in which a server asks never changes an answer.
    pub fn fault_for(&self, round: usize, client_id: &str) -> Option<FaultKind> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, rule)| rule.client == client_id || rule.client == "*")
            .find(|(idx, rule)| self.fires(rule, *idx, round, client_id))
            .map(|(_, rule)| rule.fault)
    }

    fn fires(&self, rule: &FaultRule, rule_idx: usize, round: usize, client_id: &str) -> bool {
        match rule.rounds {
            RoundSelector::Every => true,
            RoundSelector::Only { round: r } => r == round,
            RoundSelector::From { round: r } => round >= r,
            RoundSelector::Probability { p } => {
                // Keyed by the *affected* client, not the rule's pattern:
                // identical to the old keying for exact-match rules (where
                // the two strings coincide), and gives every client an
                // independent draw under a wildcard rule.
                let key = fnv1a(&[
                    rule_idx as u64,
                    round as u64,
                    fnv1a_bytes(client_id.as_bytes()),
                ]);
                StdRng::seed_from_u64(self.seed ^ key).gen_bool(p)
            }
        }
    }
}

/// What actually happened when a fault fired — the per-round telemetry the
/// chaos harness asserts on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultOutcome {
    /// The client never reported (drop-out).
    Dropped,
    /// The update arrived `delay_seconds` late but within the timeout and
    /// was aggregated.
    Delayed {
        /// Simulated lateness in seconds.
        delay_seconds: f64,
    },
    /// The update arrived after the round timeout and was excluded; the
    /// server waited the full `timeout_seconds`.
    TimedOut {
        /// Simulated lateness in seconds.
        delay_seconds: f64,
        /// The timeout the server enforced.
        timeout_seconds: f64,
    },
    /// The corrupted update was sent and left to the aggregator.
    Corrupted,
    /// The upload succeeded after `failed_attempts` retries costing
    /// `backoff_seconds` of simulated backoff.
    Recovered {
        /// Failed attempts before the success.
        failed_attempts: usize,
        /// Total simulated backoff seconds.
        backoff_seconds: f64,
    },
    /// Every attempt within the retry budget failed; the update was lost.
    RetriesExhausted {
        /// Attempts made (initial try + retries).
        failed_attempts: usize,
    },
}

/// One fault occurrence, recorded in [`RoundStats::faults`].
///
/// [`RoundStats::faults`]: crate::RoundStats::faults
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Round in which the fault fired.
    pub round: usize,
    /// Affected client.
    pub client_id: String,
    /// The injected fault.
    pub fault: FaultKind,
    /// How the server resolved it.
    pub outcome: FaultOutcome,
}

/// FNV-1a over a word sequence (stable, dependency-free mixing for the
/// per-(rule, round, client) RNG keys — also used by
/// [`crate::scheduler`] to key the per-round participant sampling).
pub(crate) fn fnv1a(words: &[u64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// FNV-1a over raw bytes.
pub(crate) fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_nan_flood_poisons_every_weight() {
        let mut w = vec![Matrix::filled(2, 2, 1.5)];
        Corruption::NanFlood.apply(&mut w);
        assert!(w[0].as_slice().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn corruption_sign_flip_negates() {
        let mut w = vec![Matrix::filled(2, 2, 1.5)];
        Corruption::SignFlip.apply(&mut w);
        assert!(w[0].as_slice().iter().all(|&v| v == -1.5));
    }

    #[test]
    fn corruption_scale_multiplies() {
        let mut w = vec![Matrix::filled(1, 3, 2.0)];
        Corruption::Scale { factor: -10.0 }.apply(&mut w);
        assert!(w[0].as_slice().iter().all(|&v| v == -20.0));
    }

    #[test]
    fn selectors_fire_on_the_right_rounds() {
        let plan = FaultPlan::new(0)
            .with_rule("a", RoundSelector::Every, FaultKind::DropOut)
            .with_rule("b", RoundSelector::Only { round: 2 }, FaultKind::DropOut)
            .with_rule("c", RoundSelector::From { round: 1 }, FaultKind::DropOut);
        for round in 0..4 {
            assert!(plan.fault_for(round, "a").is_some());
            assert_eq!(plan.fault_for(round, "b").is_some(), round == 2);
            assert_eq!(plan.fault_for(round, "c").is_some(), round >= 1);
            assert!(plan.fault_for(round, "unknown").is_none());
        }
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new(0)
            .with_rule("a", RoundSelector::Only { round: 1 }, FaultKind::DropOut)
            .with_rule(
                "a",
                RoundSelector::Every,
                FaultKind::Straggler { delay_seconds: 3.0 },
            );
        assert_eq!(plan.fault_for(1, "a"), Some(FaultKind::DropOut));
        assert!(matches!(
            plan.fault_for(0, "a"),
            Some(FaultKind::Straggler { .. })
        ));
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        let plan = |seed| {
            FaultPlan::new(seed).with_rule(
                "a",
                RoundSelector::Probability { p: 0.5 },
                FaultKind::DropOut,
            )
        };
        let (x, y, z) = (plan(9), plan(9), plan(10));
        let draws = |plan: &FaultPlan| -> Vec<bool> {
            (0..64).map(|r| plan.fault_for(r, "a").is_some()).collect()
        };
        assert_eq!(draws(&x), draws(&y), "same seed, same schedule");
        assert_ne!(draws(&x), draws(&z), "different seed, different schedule");
        let hits = draws(&x).iter().filter(|&&b| b).count();
        assert!((16..=48).contains(&hits), "p=0.5 should fire about half");
    }

    #[test]
    fn probability_extremes_fire_never_and_always() {
        let plan = FaultPlan::new(3)
            .with_rule(
                "never",
                RoundSelector::Probability { p: 0.0 },
                FaultKind::DropOut,
            )
            .with_rule(
                "always",
                RoundSelector::Probability { p: 1.0 },
                FaultKind::DropOut,
            );
        for round in 0..32 {
            assert!(plan.fault_for(round, "never").is_none());
            assert!(plan.fault_for(round, "always").is_some());
        }
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let bad_timeout = FaultPlan::new(0).with_timeout(0.0);
        assert!(matches!(
            bad_timeout.validate(),
            Err(FederatedError::InvalidConfig { .. })
        ));
        let bad_backoff = FaultPlan {
            backoff_base_seconds: f64::NAN,
            ..FaultPlan::default()
        };
        assert!(bad_backoff.validate().is_err());
        let bad_floor = FaultPlan {
            min_participants: 0,
            ..FaultPlan::default()
        };
        assert!(bad_floor.validate().is_err());
        let bad_prob = FaultPlan::new(0).with_rule(
            "a",
            RoundSelector::Probability { p: 1.5 },
            FaultKind::DropOut,
        );
        assert!(bad_prob.validate().is_err());
        let bad_delay = FaultPlan::new(0).with_rule(
            "a",
            RoundSelector::Every,
            FaultKind::Straggler {
                delay_seconds: -1.0,
            },
        );
        assert!(bad_delay.validate().is_err());
        let bad_scale = FaultPlan::new(0).with_rule(
            "a",
            RoundSelector::Every,
            FaultKind::Corrupt {
                corruption: Corruption::Scale { factor: f64::NAN },
            },
        );
        assert!(bad_scale.validate().is_err());
        // An id the wire's u16 length prefix cannot carry.
        let long_id = FaultPlan::new(0).with_rule(
            "z".repeat(70_000),
            RoundSelector::Every,
            FaultKind::DropOut,
        );
        assert!(matches!(
            long_id.validate(),
            Err(FederatedError::InvalidConfig { field, .. }) if field == "faults.rules"
        ));
        let longest = FaultPlan::new(0).with_rule(
            "z".repeat(usize::from(u16::MAX)),
            RoundSelector::Every,
            FaultKind::DropOut,
        );
        assert!(longest.validate().is_ok());
        assert!(FaultPlan::default().validate().is_ok());
    }

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        let plan = FaultPlan::new(0).with_retry(8, 1.0);
        assert_eq!(plan.backoff_total_seconds(0), 0.0);
        assert_eq!(plan.backoff_total_seconds(1), 1.0);
        assert_eq!(plan.backoff_total_seconds(2), 3.0);
        assert_eq!(plan.backoff_total_seconds(3), 7.0);
        assert!(plan.backoff_total_seconds(10_000).is_finite());
    }

    #[test]
    fn per_step_backoff_sums_to_the_total() {
        // The live client sleeps step by step; the engine accounts the
        // lump sum. Both views of the schedule must agree exactly.
        let plan = FaultPlan::new(0).with_retry(8, 0.25);
        for failures in (0..12).chain([59, 60, 61, 63, 64, 100, 200]) {
            let stepped: f64 = (0..failures).map(|a| plan.backoff_step_seconds(a)).sum();
            assert_eq!(stepped, plan.backoff_total_seconds(failures), "{failures}");
        }
    }

    #[test]
    fn backoff_step_saturates_past_the_exponent_cap() {
        // Regression: a shift by the raw attempt count would wrap (or
        // panic in debug) from attempt 64 on, and a per-step cap at
        // `base * 2^60` would let the stepped sum race past the saturated
        // total. Past the cap the schedule is flat: zero extra wait.
        let plan = FaultPlan::new(0).with_retry(8, 1.5);
        assert_eq!(plan.backoff_step_seconds(59), 1.5 * (1u64 << 59) as f64);
        for attempt in [60usize, 63, 64, 65, 127, 10_000] {
            let step = plan.backoff_step_seconds(attempt);
            assert!(step.is_finite(), "attempt {attempt}");
            assert_eq!(step, 0.0, "attempt {attempt}: schedule must stay flat");
        }
        assert!(plan.backoff_total_seconds(10_000).is_finite());
    }

    #[test]
    fn fault_names_are_stable() {
        assert_eq!(FaultKind::DropOut.name(), "drop_out");
        assert_eq!(
            FaultKind::Straggler { delay_seconds: 1.0 }.name(),
            "straggler"
        );
        assert_eq!(
            FaultKind::Corrupt {
                corruption: Corruption::SignFlip
            }
            .name(),
            "corrupt"
        );
        assert_eq!(FaultKind::Transient { failures: 1 }.name(), "transient");
    }

    #[test]
    fn plan_serde_round_trips() {
        let plan = FaultPlan::new(5)
            .with_rule(
                "z102",
                RoundSelector::Probability { p: 0.25 },
                FaultKind::Corrupt {
                    corruption: Corruption::Scale { factor: -2.0 },
                },
            )
            .with_timeout(30.0)
            .with_retry(3, 0.5)
            .with_min_participants(2);
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(plan, back);
    }
}
