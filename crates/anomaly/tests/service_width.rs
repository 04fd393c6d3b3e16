//! A `ScoringService` flushes at the process-wide pool width, and no width
//! changes a decision: every row below streams a mixed fleet through the
//! service and compares each verdict — `to_bits()` — with an
//! `OnlineDetector` per tenant fed the same readings, and each flush's
//! (round, tenant) order with the round rule.
//!
//! Writes the process-wide thread setting, so the table is one test in its
//! own integration-test binary.

use evfad_anomaly::{
    AnomalyFilter, FilterConfig, OnlineDetector, ScoringService, TenantDecision, TenantVerdict,
};
use evfad_nn::infer::Precision;
use evfad_tensor::parallel;

const SEQ_LEN: usize = 12;
const READINGS: usize = 36;

fn sine(n: usize, phase: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.5 + 0.3 * ((i + phase) as f64 * std::f64::consts::TAU / 12.0).sin())
        .collect()
}

/// One station of the fleet. Even ids sanitise; the last tenant of a fleet
/// of two or more joins cold and warms up while its neighbours are scored;
/// tenant 1 of a fleet of three or more reads a NaN mid-stream, before the
/// cold tenant has warmed up.
struct Tenant {
    sanitize: bool,
    history: Vec<f64>,
    readings: Vec<f64>,
}

fn fleet(n: usize) -> Vec<Tenant> {
    (0..n)
        .map(|id| {
            let cold = n >= 2 && id == n - 1;
            let mut readings = sine(READINGS, 5 * id + SEQ_LEN - 1);
            if id % 3 == 0 {
                readings[15] += 3.0;
            }
            if n >= 3 && id == 1 {
                readings[3] = f64::NAN;
            }
            Tenant {
                sanitize: id % 2 == 0,
                history: if cold {
                    Vec::new()
                } else {
                    sine(SEQ_LEN - 1, 5 * id)
                },
                readings,
            }
        })
        .collect()
}

/// A verdict as the bits it carries.
type Bits = (u8, u64, u64, bool);

fn bits(verdict: &TenantVerdict) -> Bits {
    match verdict {
        TenantVerdict::Warmup => (0, 0, 0, false),
        TenantVerdict::Quarantined => (1, 0, 0, false),
        TenantVerdict::Scored(d) => (2, d.score.to_bits(), d.admitted.to_bits(), d.anomalous),
    }
}

/// Each tenant's verdicts from a detector of its own.
fn reference(filter: &AnomalyFilter, fleet: &[Tenant]) -> Vec<Vec<Bits>> {
    fleet
        .iter()
        .map(|tenant| {
            let mut detector =
                OnlineDetector::from_fitted(filter.clone(), tenant.sanitize).expect("fitted");
            assert!(detector.push_all(&tenant.history).is_empty());
            let mut quarantined = false;
            tenant
                .readings
                .iter()
                .map(|&v| {
                    quarantined |= !v.is_finite();
                    let verdict = if quarantined {
                        TenantVerdict::Quarantined
                    } else {
                        detector
                            .push(v)
                            .map_or(TenantVerdict::Warmup, TenantVerdict::Scored)
                    };
                    bits(&verdict)
                })
                .collect()
        })
        .collect()
}

/// Streams the fleet through `service`: a step submits one or two readings
/// a tenant, every third step flushes — so a flush is several rounds and
/// the later ones are ragged — and every flush must come back in (round,
/// tenant) order. Returns each tenant's verdicts.
fn serve(service: &mut ScoringService, fleet: &[Tenant]) -> Vec<Vec<Bits>> {
    for tenant in fleet {
        let id = service.add_tenant(tenant.sanitize);
        service.seed_context(id, &tenant.history);
    }
    let mut served = vec![Vec::new(); fleet.len()];
    let mut cursor = vec![0usize; fleet.len()];
    let mut queued = vec![0usize; fleet.len()];
    let mut decisions: Vec<TenantDecision> = Vec::new();
    let mut step = 0usize;
    while cursor.iter().any(|&c| c < READINGS) {
        for (id, tenant) in fleet.iter().enumerate() {
            for _ in 0..1 + (id + step) % 2 {
                if let Some(&v) = tenant.readings.get(cursor[id]) {
                    service.submit(id, v);
                    cursor[id] += 1;
                    queued[id] += 1;
                }
            }
        }
        step += 1;
        if !step.is_multiple_of(3) && cursor.iter().any(|&c| c < READINGS) {
            continue;
        }
        service.flush_into(&mut decisions);
        let rounds = queued.iter().copied().max().unwrap_or(0);
        let due = &queued;
        let order: Vec<usize> = (0..rounds)
            .flat_map(|round| (0..fleet.len()).filter(move |&id| due[id] > round))
            .collect();
        let got: Vec<usize> = decisions.iter().map(|d| d.tenant).collect();
        assert_eq!(got, order, "flush order at step {step}");
        for d in &decisions {
            served[d.tenant].push(bits(&d.verdict));
        }
        queued.fill(0);
    }
    assert_eq!(service.pending(), 0);
    served
}

/// How many snapshot clones the service has made: one per chunk of the
/// widest split it has run, which is the only trace a width leaves outside
/// the service. Read off the derived `Debug`, counting only inside the
/// `workers: [` list: every caller expects at least one, so renaming the
/// field or the element type fails here instead of counting zero.
fn workers_cloned(service: &ScoringService) -> usize {
    let debug = format!("{service:?}");
    let (_, list) = debug
        .split_once("workers: [")
        .expect("ScoringService's Debug lists `workers`");
    list.matches("Worker {").count()
}

#[test]
fn every_width_serves_the_same_bits_in_the_same_order() {
    let mut filter = AnomalyFilter::new(FilterConfig::fast(SEQ_LEN));
    filter.fit(&sine(400, 0)).expect("fit");

    for tenants in [1usize, 2, 3, 5, 32, 33] {
        let fleet = fleet(tenants);
        let expected = reference(&filter, &fleet);
        if tenants >= 3 {
            let flagged = |v: &Bits| v.0 == 2 && v.3;
            assert!(expected[0].iter().any(flagged), "no spike to sanitise");
            assert_eq!(expected[1].iter().filter(|v| v.0 == 1).count(), 33);
            assert_eq!(
                expected[tenants - 1].iter().filter(|v| v.0 == 0).count(),
                11
            );
        }
        for width in [1usize, 2, 3, 8] {
            parallel::set_threads(width);
            let mut service =
                ScoringService::from_filter(&filter, Precision::F64).expect("service");
            let served = serve(&mut service, &fleet);
            parallel::set_threads(0);
            assert_eq!(served, expected, "{tenants} tenants at width {width}");
            // The widest round scores every tenant but the quarantined one
            // (before its NaN, every tenant but the cold one).
            let widest = if tenants >= 3 { tenants - 1 } else { tenants };
            assert_eq!(
                workers_cloned(&service),
                width.min(widest),
                "{tenants} tenants at width {width}: the flush did not follow the pool"
            );
        }
    }
}
