//! Multi-tenant batched scoring front end.
//!
//! An [`OnlineDetector`](crate::OnlineDetector) serves one series. A
//! station-fleet backend serves thousands: every tenant streams readings
//! at its own cadence, and scoring them one window at a time wastes the
//! batched GEMMs the inference snapshot is built for. [`ScoringService`]
//! multiplexes many tenant series over **one** frozen
//! [`InferenceModel`]:
//!
//! - [`submit`](ScoringService::submit) enqueues readings into a shared
//!   admission queue (any tenant order, any interleaving);
//! - [`flush`](ScoringService::flush) drains the queue in deterministic
//!   rounds — round *r* takes each tenant's *r*-th pending reading in
//!   ascending tenant order — assembles every ready window of the round
//!   into one batch, and runs a single
//!   [`forward_batch_into`](InferenceModel::forward_batch_into) per
//!   worker over it;
//! - decisions come back in that same (round, tenant) order, each scored
//!   against the **tenant's own** threshold with the exact
//!   [`OnlineDetector::push`](crate::OnlineDetector::push) admission
//!   semantics (sanitising replaces a flagged reading with the previous
//!   admitted value; buffers stay bounded).
//!
//! # Determinism and exactness
//!
//! A flush splits each round's batch into contiguous row chunks served by
//! per-worker snapshot clones on the deterministic
//! [`parallel`](evfad_tensor::parallel) pool — as many chunks as the
//! process-wide [`parallel::threads`]; at width 1 it is a plain loop on
//! the caller. Because every kernel row depends only on its own window,
//! chunking — and therefore the thread count — cannot change any tenant's
//! bits. An `F64` snapshot serves through the layers' own eval forward —
//! the one [`AnomalyFilter::score`](crate::AnomalyFilter::score) and the
//! study run — so the service is **bitwise-identical** to running one
//! `OnlineDetector` per tenant (pinned in tier-1 tests and, at pool widths
//! 1/2/3/8, in `tests/service_width.rs`). The `Int8` lane trades that
//! identity for throughput.
//!
//! # Quarantine
//!
//! A non-finite reading (NaN sensor, dead channel) quarantines its
//! tenant: the reading is rejected with
//! [`TenantVerdict::Quarantined`] *before* batch assembly, every later
//! reading from that tenant is rejected the same way, and the shared
//! batch never sees the poison — the other tenants' scores are
//! unaffected down to the bit. Once the station is repaired,
//! [`release`](ScoringService::release) lets the tenant warm up again.

use crate::detector::AnomalyFilter;
use crate::error::AnomalyError;
use crate::online::OnlineDecision;
use evfad_nn::infer::{InferenceModel, Precision};
use evfad_tensor::parallel;
use std::collections::VecDeque;

/// Outcome of one submitted reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TenantVerdict {
    /// Context still filling; the reading was admitted unscored.
    Warmup,
    /// Scored against the tenant's threshold.
    Scored(OnlineDecision),
    /// The reading was non-finite, or the tenant was already
    /// quarantined: rejected, nothing entered the buffer or the batch.
    Quarantined,
}

/// One flushed decision: which tenant, and what happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantDecision {
    /// Tenant id as returned by [`ScoringService::add_tenant`].
    pub tenant: usize,
    /// The decision.
    pub verdict: TenantVerdict,
}

/// Per-tenant streaming state: context buffer, pending readings, policy.
#[derive(Debug, Clone)]
struct TenantState {
    buffer: Vec<f64>,
    pending: VecDeque<f64>,
    threshold: f64,
    sanitize: bool,
    quarantined: bool,
}

/// One worker's slice of a flush round: a snapshot clone plus reusable
/// input/reconstruction arenas.
#[derive(Debug)]
struct Worker {
    model: InferenceModel,
    input: Vec<f64>,
    recon: Vec<f64>,
    rows: usize,
    out_shape: (usize, usize),
}

/// Multi-tenant batched scoring service over one frozen autoencoder.
///
/// # Examples
///
/// ```no_run
/// use evfad_anomaly::{AnomalyFilter, FilterConfig, ScoringService, TenantVerdict};
/// use evfad_nn::infer::Precision;
///
/// let train: Vec<f64> = (0..400)
///     .map(|i| 0.5 + 0.3 * (i as f64 * std::f64::consts::TAU / 24.0).sin())
///     .collect();
/// let mut filter = AnomalyFilter::new(FilterConfig::fast(24));
/// filter.fit(&train)?;
/// let mut service = ScoringService::from_filter(&filter, Precision::F64)?;
/// let a = service.add_tenant(true);
/// let b = service.add_tenant(false);
/// service.seed_context(a, &train);
/// service.seed_context(b, &train);
/// service.submit(a, 0.62);
/// service.submit(b, 9.0); // blatant spike
/// for d in service.flush() {
///     if let TenantVerdict::Scored(s) = d.verdict {
///         println!("tenant {} score {:.4} anomalous {}", d.tenant, s.score, s.anomalous);
///     }
/// }
/// # Ok::<(), evfad_anomaly::AnomalyError>(())
/// ```
#[derive(Debug)]
pub struct ScoringService {
    prototype: InferenceModel,
    workers: Vec<Worker>,
    seq_len: usize,
    default_threshold: f64,
    tenants: Vec<TenantState>,
    pending_total: usize,
    // Flush-round scratch: tenant id and raw value per batch row, and the
    // output slot each row's verdict patches.
    batch_tenants: Vec<usize>,
    batch_values: Vec<f64>,
    batch_slots: Vec<usize>,
}

impl ScoringService {
    /// Builds a service from a fitted filter: freezes the autoencoder at
    /// the requested precision and adopts the filter's threshold and
    /// window length as tenant defaults. A flush runs at the process-wide
    /// pool width, [`parallel::threads`].
    ///
    /// # Errors
    ///
    /// [`AnomalyError::NotFitted`] if the filter has not been fitted;
    /// [`AnomalyError::NanThreshold`] if its fitted threshold is NaN;
    /// [`AnomalyError::Training`] if the model cannot be frozen.
    pub fn from_filter(filter: &AnomalyFilter, precision: Precision) -> Result<Self, AnomalyError> {
        let model = filter.model().ok_or(AnomalyError::NotFitted)?;
        let default_threshold = filter.threshold().ok_or(AnomalyError::NotFitted)?;
        if default_threshold.is_nan() {
            return Err(AnomalyError::NanThreshold);
        }
        let prototype = InferenceModel::freeze(model, precision)
            .map_err(|e| AnomalyError::Training(e.to_string()))?;
        Ok(Self {
            prototype,
            workers: Vec::new(),
            seq_len: filter.config().seq_len,
            default_threshold,
            tenants: Vec::new(),
            pending_total: 0,
            batch_tenants: Vec::new(),
            batch_values: Vec::new(),
            batch_slots: Vec::new(),
        })
    }

    /// Registers a tenant with the filter's fitted threshold. Returns the
    /// tenant id used by [`submit`](ScoringService::submit).
    pub fn add_tenant(&mut self, sanitize: bool) -> usize {
        self.push_tenant(self.default_threshold, sanitize)
    }

    /// Registers a tenant with its own decision threshold. `+∞` is legal
    /// ("never flag").
    ///
    /// # Errors
    ///
    /// [`AnomalyError::NanThreshold`] if `threshold` is NaN.
    pub fn add_tenant_with(
        &mut self,
        threshold: f64,
        sanitize: bool,
    ) -> Result<usize, AnomalyError> {
        if threshold.is_nan() {
            return Err(AnomalyError::NanThreshold);
        }
        Ok(self.push_tenant(threshold, sanitize))
    }

    /// `threshold` is not NaN: `from_filter` and `add_tenant_with` checked.
    fn push_tenant(&mut self, threshold: f64, sanitize: bool) -> usize {
        self.tenants.push(TenantState {
            buffer: Vec::new(),
            pending: VecDeque::new(),
            threshold,
            sanitize,
            quarantined: false,
        });
        self.tenants.len() - 1
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Whether a tenant has been quarantined by a non-finite reading.
    pub fn is_quarantined(&self, tenant: usize) -> bool {
        self.tenants[tenant].quarantined
    }

    /// Lets a repaired tenant back in: drops its pending readings, empties
    /// its context buffer and clears the quarantine flag, so the tenant
    /// warms up again through [`seed_context`](ScoringService::seed_context)
    /// or `seq_len - 1` [`TenantVerdict::Warmup`] readings. Returns whether
    /// the tenant was quarantined.
    pub fn release(&mut self, tenant: usize) -> bool {
        let t = &mut self.tenants[tenant];
        self.pending_total -= t.pending.len();
        t.pending.clear();
        t.buffer.clear();
        std::mem::take(&mut t.quarantined)
    }

    /// Context points currently buffered for a tenant.
    pub fn context_len(&self, tenant: usize) -> usize {
        self.tenants[tenant].buffer.len()
    }

    /// Readings submitted but not yet flushed.
    pub fn pending(&self) -> usize {
        self.pending_total
    }

    /// Warm-starts a tenant's context buffer (e.g. with the tail of its
    /// training series) so its first submitted reading is scored
    /// immediately. A non-finite history value quarantines the tenant.
    pub fn seed_context(&mut self, tenant: usize, history: &[f64]) {
        let seq_len = self.seq_len;
        let t = &mut self.tenants[tenant];
        for &v in history {
            if !v.is_finite() {
                t.quarantined = true;
                return;
            }
            t.buffer.push(v);
        }
        Self::bound_buffer(&mut t.buffer, seq_len);
    }

    /// Enqueues one reading for a tenant. Nothing is scored until
    /// [`flush`](ScoringService::flush).
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is not a registered id.
    pub fn submit(&mut self, tenant: usize, value: f64) {
        self.tenants[tenant].pending.push_back(value);
        self.pending_total += 1;
    }

    /// Drains the admission queue, scoring every ready window in batched
    /// forward passes, and returns the decisions in deterministic
    /// (round, tenant) order.
    pub fn flush(&mut self) -> Vec<TenantDecision> {
        let mut out = Vec::new();
        self.flush_into(&mut out);
        out
    }

    /// Like [`flush`](ScoringService::flush), writing into a caller-owned
    /// buffer (cleared first). A warm, shape-stable caller allocates no
    /// matrix or arena (`infer_heap.rs` and `alloc_regression.rs` pin that
    /// half) and, at width 1, nothing at all; at width ≥ 2 each round's
    /// dispatch boxes its jobs and a latch.
    pub fn flush_into(&mut self, out: &mut Vec<TenantDecision>) {
        out.clear();
        while self.pending_total > 0 {
            self.flush_round(out);
        }
    }

    /// `OnlineDetector::push`'s buffer bound: only the last
    /// `seq_len - 1` points matter; trim once the buffer outgrows
    /// `4 * seq_len`.
    fn bound_buffer(buffer: &mut Vec<f64>, seq_len: usize) {
        if buffer.len() > 4 * seq_len {
            let keep = buffer.len() - (seq_len - 1);
            buffer.drain(..keep);
        }
    }

    /// One admission round: each tenant's oldest pending reading, in
    /// ascending tenant order.
    fn flush_round(&mut self, out: &mut Vec<TenantDecision>) {
        self.batch_tenants.clear();
        self.batch_values.clear();
        self.batch_slots.clear();
        let seq_len = self.seq_len;
        for (id, t) in self.tenants.iter_mut().enumerate() {
            let Some(value) = t.pending.pop_front() else {
                continue;
            };
            self.pending_total -= 1;
            if t.quarantined || !value.is_finite() {
                t.quarantined = true;
                out.push(TenantDecision {
                    tenant: id,
                    verdict: TenantVerdict::Quarantined,
                });
                continue;
            }
            if t.buffer.len() < seq_len - 1 {
                t.buffer.push(value);
                out.push(TenantDecision {
                    tenant: id,
                    verdict: TenantVerdict::Warmup,
                });
                continue;
            }
            // Ready to score: joins the round's shared batch; the verdict
            // slot is patched after the forward pass.
            self.batch_tenants.push(id);
            self.batch_values.push(value);
            self.batch_slots.push(out.len());
            out.push(TenantDecision {
                tenant: id,
                verdict: TenantVerdict::Warmup,
            });
        }
        let rows = self.batch_tenants.len();
        if rows == 0 {
            return;
        }
        // Contiguous balanced row chunks, one per worker — the same split
        // `parallel::distribute` itself uses, so worker `w` serves rows
        // `[starts[w], starts[w+1])`.
        let chunks = parallel::threads().min(rows);
        while self.workers.len() < chunks {
            self.workers.push(Worker {
                model: self.prototype.clone(),
                input: Vec::new(),
                recon: Vec::new(),
                rows: 0,
                out_shape: (0, 0),
            });
        }
        let base = rows / chunks;
        let extra = rows % chunks;
        let mut start = 0usize;
        for (c, w) in self.workers.iter_mut().take(chunks).enumerate() {
            let len = base + usize::from(c < extra);
            w.rows = len;
            w.input.clear();
            for row in start..start + len {
                let t = &self.tenants[self.batch_tenants[row]];
                let tail = &t.buffer[t.buffer.len() - (seq_len - 1)..];
                w.input.extend_from_slice(tail);
                w.input.push(self.batch_values[row]);
            }
            start += len;
        }
        parallel::distribute(&mut self.workers[..chunks], chunks, |_, w| {
            if w.rows > 0 {
                w.out_shape = w.model.forward_batch_into(&w.input, w.rows, &mut w.recon);
            }
        });
        // Patch the verdicts in batch (= ascending tenant) order and admit
        // the readings with `OnlineDetector::push` semantics.
        let mut worker_idx = 0usize;
        let mut local = 0usize;
        for row in 0..rows {
            while local >= self.workers[worker_idx].rows {
                worker_idx += 1;
                local = 0;
            }
            let w = &self.workers[worker_idx];
            let (os, of) = w.out_shape;
            let recon_last = w.recon[local * os * of + (os - 1) * of];
            local += 1;
            let value = self.batch_values[row];
            let t = &mut self.tenants[self.batch_tenants[row]];
            let err = recon_last - value;
            let score = err * err;
            let anomalous = score > t.threshold;
            let admitted = if anomalous && t.sanitize {
                *t.buffer.last().expect("context is non-empty")
            } else {
                value
            };
            t.buffer.push(admitted);
            Self::bound_buffer(&mut t.buffer, seq_len);
            out[self.batch_slots[row]].verdict = TenantVerdict::Scored(OnlineDecision {
                score,
                anomalous,
                admitted,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::FilterConfig;
    use crate::online::OnlineDetector;

    fn sine(n: usize, phase: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 0.5 + 0.3 * ((i + phase) as f64 * std::f64::consts::TAU / 12.0).sin())
            .collect()
    }

    fn fitted_filter() -> AnomalyFilter {
        let mut f = AnomalyFilter::new(FilterConfig::fast(12));
        f.fit(&sine(400, 0)).expect("fit");
        f
    }

    /// Streams `series` through a dedicated OnlineDetector and through a
    /// service tenant, returning both decision streams.
    fn stream_both(
        filter: &AnomalyFilter,
        service: &mut ScoringService,
        tenant: usize,
        series: &[f64],
    ) -> (Vec<OnlineDecision>, Vec<TenantDecision>) {
        let mut reference =
            OnlineDetector::from_fitted(filter.clone(), true).expect("fitted reference");
        let expected = reference.push_all(series);
        let mut got = Vec::new();
        let mut round = Vec::new();
        for &v in series {
            service.submit(tenant, v);
            service.flush_into(&mut round);
            got.extend_from_slice(&round);
        }
        (expected, got)
    }

    #[test]
    fn single_tenant_matches_online_detector() {
        let filter = fitted_filter();
        let mut service = ScoringService::from_filter(&filter, Precision::F64).expect("service");
        let tenant = service.add_tenant(true);
        let mut series = sine(60, 3);
        series[40] += 3.0;
        let (expected, got) = stream_both(&filter, &mut service, tenant, &series);
        let scored: Vec<OnlineDecision> = got
            .iter()
            .filter_map(|d| match d.verdict {
                TenantVerdict::Scored(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(scored.len(), expected.len());
        for (s, e) in scored.iter().zip(&expected) {
            assert_eq!(s.score.to_bits(), e.score.to_bits());
            assert_eq!(s.admitted.to_bits(), e.admitted.to_bits());
            assert_eq!(s.anomalous, e.anomalous);
        }
    }

    #[test]
    fn decisions_come_back_in_round_then_tenant_order() {
        let filter = fitted_filter();
        let mut service = ScoringService::from_filter(&filter, Precision::F64).expect("service");
        for _ in 0..3 {
            service.add_tenant(false);
        }
        // Tenant 2 submits twice (two rounds), others once — submission
        // order deliberately scrambled.
        service.submit(2, 0.5);
        service.submit(0, 0.5);
        service.submit(2, 0.6);
        service.submit(1, 0.5);
        let order: Vec<usize> = service.flush().iter().map(|d| d.tenant).collect();
        assert_eq!(order, vec![0, 1, 2, 2]);
        assert_eq!(service.pending(), 0);
    }

    #[test]
    fn nan_tenant_is_quarantined_without_poisoning_the_batch() {
        let filter = fitted_filter();
        let mut service = ScoringService::from_filter(&filter, Precision::F64).expect("service");
        let healthy = service.add_tenant(false);
        let broken = service.add_tenant(false);
        let history = sine(40, 1);
        service.seed_context(healthy, &history);
        service.seed_context(broken, &history);
        // Reference: the healthy tenant alone, no broken neighbour.
        let mut solo = ScoringService::from_filter(&filter, Precision::F64).expect("service");
        let solo_id = solo.add_tenant(false);
        solo.seed_context(solo_id, &history);
        let series = sine(20, 41);
        for &v in &series {
            service.submit(healthy, v);
            service.submit(broken, f64::NAN);
            solo.submit(solo_id, v);
            let decisions = service.flush();
            assert_eq!(decisions.len(), 2);
            assert_eq!(
                decisions[1].verdict,
                TenantVerdict::Quarantined,
                "all-NaN tenant must get an error decision every round"
            );
            let TenantVerdict::Scored(got) = decisions[0].verdict else {
                panic!("healthy tenant was not scored");
            };
            let TenantVerdict::Scored(want) = solo.flush()[0].verdict else {
                panic!("solo tenant was not scored");
            };
            assert_eq!(
                got.score.to_bits(),
                want.score.to_bits(),
                "NaN neighbour changed a healthy tenant's bits"
            );
        }
        assert!(service.is_quarantined(broken));
        assert!(!service.is_quarantined(healthy));
    }

    #[test]
    fn a_released_tenant_scores_like_a_new_one() {
        fn scored_bits(d: &TenantDecision) -> (u64, u64, bool) {
            match d.verdict {
                TenantVerdict::Scored(s) => (s.score.to_bits(), s.admitted.to_bits(), s.anomalous),
                other => panic!("tenant {} was not scored: {other:?}", d.tenant),
            }
        }
        let filter = fitted_filter();
        let mut service = ScoringService::from_filter(&filter, Precision::F64).expect("service");
        let healthy = service.add_tenant(false);
        let broken = service.add_tenant(true);
        // Reference: the healthy tenant alone, no neighbour.
        let mut solo = ScoringService::from_filter(&filter, Precision::F64).expect("service");
        let solo_id = solo.add_tenant(false);
        let history = sine(40, 1);
        service.seed_context(healthy, &history);
        service.seed_context(broken, &history);
        solo.seed_context(solo_id, &history);
        // One reading for the healthy tenant beside whatever its neighbours
        // queued: its bits are the solo service's.
        let mut flush_beside_solo = |service: &mut ScoringService, v: f64| {
            service.submit(healthy, v);
            solo.submit(solo_id, v);
            let decisions = service.flush();
            assert_eq!(
                scored_bits(&decisions[healthy]),
                scored_bits(&solo.flush()[0]),
                "a neighbour changed the healthy tenant's bits"
            );
            decisions
        };

        service.submit(broken, f64::NAN);
        let decisions = flush_beside_solo(&mut service, 0.55);
        assert_eq!(decisions[broken].verdict, TenantVerdict::Quarantined);
        service.submit(broken, 0.5);
        service.submit(broken, 0.6);
        assert!(service.release(broken));
        assert_eq!(service.pending(), 0, "its queue went with it");
        assert_eq!(service.context_len(broken), 0);
        assert!(!service.is_quarantined(broken));
        assert!(!service.release(broken), "released once");

        // Repaired and re-seeded, it is a tenant added now and seeded the
        // same way.
        let repair = sine(30, 5);
        service.seed_context(broken, &repair);
        let fresh = service.add_tenant(true);
        service.seed_context(fresh, &repair);
        let mut series = sine(20, 35);
        series[8] += 3.0;
        for &v in &series {
            service.submit(broken, v);
            service.submit(fresh, v);
            let decisions = flush_beside_solo(&mut service, v);
            assert_eq!(
                scored_bits(&decisions[broken]),
                scored_bits(&decisions[fresh])
            );
        }
    }

    #[test]
    fn cold_tenant_warms_up_before_scoring() {
        let filter = fitted_filter();
        let mut service = ScoringService::from_filter(&filter, Precision::F64).expect("service");
        let t = service.add_tenant(false);
        let series = sine(30, 0);
        let mut warmups = 0;
        let mut scored = 0;
        for &v in &series {
            service.submit(t, v);
            for d in service.flush() {
                match d.verdict {
                    TenantVerdict::Warmup => warmups += 1,
                    TenantVerdict::Scored(_) => scored += 1,
                    TenantVerdict::Quarantined => panic!("unexpected quarantine"),
                }
            }
        }
        assert_eq!(warmups, 11);
        assert_eq!(scored, 30 - 11);
    }

    #[test]
    fn per_tenant_thresholds_are_respected() {
        let filter = fitted_filter();
        let mut service = ScoringService::from_filter(&filter, Precision::F64).expect("service");
        let strict = service.add_tenant_with(0.0, false).expect("finite");
        let lax = service
            .add_tenant_with(f64::INFINITY, false)
            .expect("never flag");
        let history = sine(40, 1);
        service.seed_context(strict, &history);
        service.seed_context(lax, &history);
        service.submit(strict, 0.9);
        service.submit(lax, 0.9);
        let decisions = service.flush();
        let TenantVerdict::Scored(s) = decisions[0].verdict else {
            panic!("strict tenant unscored");
        };
        let TenantVerdict::Scored(l) = decisions[1].verdict else {
            panic!("lax tenant unscored");
        };
        assert!(s.anomalous, "zero threshold must flag everything");
        assert!(!l.anomalous, "infinite threshold must flag nothing");
    }

    #[test]
    fn nan_threshold_is_rejected() {
        let filter = fitted_filter();
        let mut service = ScoringService::from_filter(&filter, Precision::F64).expect("service");
        assert_eq!(
            service.add_tenant_with(f64::NAN, false),
            Err(AnomalyError::NanThreshold)
        );
        assert_eq!(
            service.tenant_count(),
            0,
            "a rejected tenant is not registered"
        );
        // The same hole one level up: a rule that fits to a NaN boundary
        // must not become every `add_tenant`'s default.
        let mut config = FilterConfig::fast(12);
        config.threshold = crate::ThresholdRule::MeanStd { k: f64::NAN };
        let mut unflaggable = AnomalyFilter::new(config);
        unflaggable.fit(&sine(400, 0)).expect("fit");
        assert!(matches!(
            ScoringService::from_filter(&unflaggable, Precision::F64),
            Err(AnomalyError::NanThreshold)
        ));
    }

    #[test]
    fn unfitted_filter_is_rejected() {
        let filter = AnomalyFilter::new(FilterConfig::fast(12));
        assert!(matches!(
            ScoringService::from_filter(&filter, Precision::F64),
            Err(AnomalyError::NotFitted)
        ));
    }
}
