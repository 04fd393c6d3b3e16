//! `score_stream`: the serving tier. One `ScoringService` over one fitted
//! paper-shape autoencoder, 32 tenants (even ids sanitising), each seeded
//! with 720 clean points. A tick submits one attacked reading per tenant
//! and flushes.
//!
//! Closed loop, one caller: stations report on a fixed cadence, so the
//! question is how many windows one core scores per second and how long
//! a tick's flush takes, not how a queue behaves under overload.
//!
//! This is forward-only use of `nn`/`tensor` (the frozen `InferenceModel`
//! on packed panels) beside `paper_run`'s forward and backward: a change
//! to the training kernels that costs inference, or the reverse, shows as
//! one row up and one row down.

use super::{Outcome, Sizes, Workload};
use crate::host;
use crate::trace::Tracer;
use evfad_core::anomaly::{
    AnomalyFilter, FilterConfig, OnlineDecision, OnlineDetector, ScoringService, TenantDecision,
    TenantVerdict,
};
use evfad_core::attack::DdosInjector;
use evfad_core::data::{DatasetConfig, ShenzhenGenerator, Zone};
use evfad_core::nn::infer::{InferenceModel, Precision};
use evfad_core::tensor::alloc_stats;
use evfad_core::timeseries::MinMaxScaler;
use std::collections::BTreeMap;
use std::time::Instant;

/// One tenant's input: clean context, then an attacked stream that
/// repeats when a run outlasts it.
struct Tenant {
    context: Vec<f64>,
    stream: Vec<f64>,
    sanitize: bool,
}

pub struct ScoreStream {
    filter: AnomalyFilter,
    service: ScoringService,
    tenants: Vec<Tenant>,
    /// Readings each tenant has been sent so far in this process.
    sent: usize,
    /// Every decision on the first and the last tenant, in order.
    watched: [Vec<OnlineDecision>; 2],
}

impl ScoreStream {
    /// Generates every tenant's series, fits the filter on the first
    /// tenant's clean context, freezes it into a service, registers and
    /// seeds the tenants, and pushes one warm-up tick through.
    pub fn setup(seed: u64, sizes: &Sizes) -> Self {
        let tenants: Vec<Tenant> = (0..sizes.tenants)
            .map(|id| {
                let config =
                    DatasetConfig::small(sizes.context + sizes.stream_len, seed + id as u64);
                let data =
                    ShenzhenGenerator::new(config).generate_zone(Zone::ALL[id % Zone::ALL.len()]);
                let (clean, later) = data.demand.split_at(sizes.context);
                let attacked = DdosInjector::default()
                    .inject(later, seed + id as u64)
                    .series;
                // Scaled on what the station had seen when it was enrolled,
                // so attack spikes legitimately exceed 1.0.
                let scaler = MinMaxScaler::fit(clean).expect("generated demand is not constant");
                Tenant {
                    context: scaler.transform(clean),
                    stream: scaler.transform(&attacked),
                    sanitize: id % 2 == 0,
                }
            })
            .collect();

        // One epoch at a wide stride: the service needs real fitted
        // weights and a real threshold, not a converged model.
        let mut filter = AnomalyFilter::new(FilterConfig {
            epochs: 1,
            train_stride: 4,
            ..FilterConfig::paper(seed)
        });
        filter
            .fit(&tenants[0].context)
            .expect("the context is longer than one window");
        let mut service =
            ScoringService::from_filter(&filter, Precision::F64).expect("a fitted filter freezes");
        for tenant in &tenants {
            let id = service.add_tenant(tenant.sanitize);
            service.seed_context(id, &tenant.context);
        }
        let mut this = Self {
            filter,
            service,
            tenants,
            sent: 0,
            watched: [Vec::new(), Vec::new()],
        };
        let mut decisions = Vec::new();
        let mut warm = Outcome::default();
        this.tick(&mut decisions, &mut warm, &mut Tracer::off());
        this
    }

    /// Submits every tenant's next reading and flushes — the part that
    /// is timed — then tallies the verdicts. Returns the tick's
    /// milliseconds and how many readings came back scored.
    fn tick(
        &mut self,
        decisions: &mut Vec<TenantDecision>,
        out: &mut Outcome,
        t: &mut Tracer,
    ) -> (f64, f64) {
        let start = Instant::now();
        t.enter("anomaly.submit");
        for (id, tenant) in self.tenants.iter().enumerate() {
            self.service
                .submit(id, tenant.stream[self.sent % tenant.stream.len()]);
        }
        t.exit();
        t.enter("anomaly.flush");
        self.service.flush_into(decisions);
        t.exit();
        let tick_ms = start.elapsed().as_secs_f64() * 1e3;
        self.sent += 1;

        let last = self.tenants.len() - 1;
        out.attempted += self.tenants.len() as u64;
        let mut scored = 0u64;
        for d in decisions.iter() {
            match d.verdict {
                TenantVerdict::Scored(decision) => {
                    scored += 1;
                    *out.layer.entry("anomaly.flagged").or_insert(0.0) +=
                        f64::from(u8::from(decision.anomalous));
                    if d.tenant == 0 {
                        self.watched[0].push(decision);
                    } else if d.tenant == last {
                        self.watched[1].push(decision);
                    }
                }
                TenantVerdict::Quarantined => {
                    *out.layer.entry("anomaly.quarantined").or_insert(0.0) += 1.0;
                }
                TenantVerdict::Warmup => {}
            }
        }
        *out.layer.entry("anomaly.decisions").or_insert(0.0) += scored as f64;
        out.failed += self.tenants.len() as u64 - scored;
        (tick_ms, scored as f64)
    }

    /// Feeds one `OnlineDetector` per watched tenant the readings the
    /// service got; its decisions must equal the service's bit for bit.
    fn check_against_online(&self, out: &mut Outcome) {
        let seq_len = self.filter.config().seq_len;
        for (watched, id) in self.watched.iter().zip([0, self.tenants.len() - 1]) {
            let tenant = &self.tenants[id];
            let mut reference = OnlineDetector::from_fitted(self.filter.clone(), tenant.sanitize)
                .expect("the filter is fitted");
            // The last `seq_len − 1` context points are all a decision
            // depends on; pushed into an empty detector they only fill it.
            for &v in &tenant.context[tenant.context.len() - (seq_len - 1)..] {
                reference.push(v);
            }
            let expected: Vec<OnlineDecision> = (0..self.sent)
                .filter_map(|i| reference.push(tenant.stream[i % tenant.stream.len()]))
                .collect();
            let same = expected.len() == watched.len()
                && expected.iter().zip(watched).all(|(a, b)| {
                    a.score.to_bits() == b.score.to_bits()
                        && a.admitted.to_bits() == b.admitted.to_bits()
                        && a.anomalous == b.anomalous
                });
            if !same {
                out.fail(format!(
                    "tenant {id}: service decisions differ from an OnlineDetector fed the same readings"
                ));
            }
        }
    }
}

impl ScoreStream {
    /// Milliseconds of one batched forward pass of the service's own
    /// model over one window per tenant — the part of a tick that is
    /// `nn`, against which the service's own share is read.
    fn forward_batch_ms(&self) -> f64 {
        let model = self.filter.model().expect("the filter is fitted");
        let mut frozen = InferenceModel::freeze(model, Precision::F64)
            .expect("the service froze the same model");
        let seq_len = self.filter.config().seq_len;
        let windows: Vec<f64> = self
            .tenants
            .iter()
            .flat_map(|t| {
                t.stream
                    .iter()
                    .cycle()
                    .skip(self.sent % t.stream.len())
                    .take(seq_len)
            })
            .copied()
            .collect();
        let mut recon = Vec::new();
        1e3 * host::seconds_per_call(5, 0.02, || {
            std::hint::black_box(frozen.forward_batch_into(
                &windows,
                self.tenants.len(),
                &mut recon,
            ));
        })
    }
}

impl Workload for ScoreStream {
    fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut decisions = Vec::with_capacity(self.tenants.len());
        let allocs = alloc_stats();
        let start = Instant::now();
        loop {
            let (tick_ms, scored) = self.tick(&mut decisions, &mut out, tracer);
            out.unit_ms.push(tick_ms);
            out.mark(start, scored);
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        out.count_allocs(&allocs);

        self.check_against_online(&mut out);
        let quarantined = (0..self.tenants.len())
            .filter(|&id| self.service.is_quarantined(id))
            .count();
        if quarantined > 0 {
            out.fail(format!(
                "{quarantined} tenants quarantined on finite readings"
            ));
        }
        // Tallies become per-tick rates, so passes of any length agree.
        let ticks = out.unit_ms.len() as f64;
        for key in [
            "anomaly.decisions",
            "anomaly.flagged",
            "anomaly.quarantined",
        ] {
            *out.layer.entry(key).or_insert(0.0) /= ticks;
        }
        out
    }

    fn ledger(&mut self, unit_s: f64, rows: &mut BTreeMap<&'static str, f64>) -> Vec<String> {
        // What a tick costs beyond one batched forward pass over its
        // windows: queueing, window assembly, verdicts, admission.
        let forward_s = self.forward_batch_ms() / 1e3;
        rows.insert("anomaly.service_overhead_share", 1.0 - forward_s / unit_s);
        Vec::new()
    }
}
