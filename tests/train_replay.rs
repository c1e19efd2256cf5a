//! Steady-train replay is exact: for every workload under the baseline
//! and every Figure-5 scheme, a run with the replay on produces the same
//! bits as the per-event engine (`with_classic_event_core`), and on the
//! storage workload the replay carries most of the requests.

use dma_aware_mem::core::experiments::{mu_from_baseline, Workload};
use dma_aware_mem::core::{Scheme, ServerSimulator, SimResult, SystemConfig};
use dma_aware_mem::sim::stats::DurationStats;
use dma_aware_mem::sim::SimDuration;

/// Every f64 the Welford accumulator holds, as bits.
fn stat_bits(s: &DurationStats) -> [u64; 5] {
    let raw = s.raw();
    [
        raw.count(),
        raw.mean().to_bits(),
        raw.population_variance().to_bits(),
        raw.min().map_or(0, f64::to_bits),
        raw.max().map_or(0, f64::to_bits),
    ]
}

fn assert_identical(label: &str, replayed: &SimResult, classic: &SimResult) {
    assert!(replayed.energy == classic.energy, "{label}: energy");
    assert_eq!(replayed.per_chip_energy, classic.per_chip_energy, "{label}");
    assert_eq!(
        replayed.per_chip_residency, classic.per_chip_residency,
        "{label}"
    );
    assert_eq!(replayed.horizon, classic.horizon, "{label}: horizon");
    assert_eq!(replayed.slack, classic.slack, "{label}: slack");
    assert_eq!(
        stat_bits(&replayed.request_service),
        stat_bits(&classic.request_service),
        "{label}: request_service"
    );
    assert_eq!(
        stat_bits(&replayed.transfer_response),
        stat_bits(&classic.transfer_response),
        "{label}: transfer_response"
    );
    assert_eq!(replayed.wakes, classic.wakes, "{label}: wakes");
    assert_eq!(replayed.page_moves, classic.page_moves, "{label}");
    assert_eq!(replayed.delayed_firsts, classic.delayed_firsts, "{label}");
    assert_eq!(replayed.dma_requests, classic.dma_requests, "{label}");
    assert_eq!(replayed.dma_serving, classic.dma_serving, "{label}");
    assert_eq!(
        replayed.profile.requests, classic.profile.requests,
        "{label}"
    );
    assert_eq!(classic.profile.replayed_requests, 0, "{label}: classic");
}

#[test]
fn replay_matches_the_per_event_engine_bit_for_bit() {
    let config = SystemConfig::default();
    for w in [
        Workload::OltpSt,
        Workload::OltpDb,
        Workload::SyntheticSt,
        Workload::SyntheticDb,
    ] {
        let trace = w.generate(SimDuration::from_ms(2), 42);
        let baseline = ServerSimulator::new(config.clone(), Scheme::baseline());
        let base = baseline.run(&trace);
        assert_identical(
            &format!("{} baseline", w.label()),
            &base,
            &baseline.clone().with_classic_event_core().run(&trace),
        );
        let mu = mu_from_baseline(&config, &base, 0.10, w.client_extra_latency());
        for scheme in [
            Scheme::dma_ta(mu),
            Scheme::dma_ta_pl(mu, 2),
            Scheme::dma_ta_pl(mu, 3),
            Scheme::dma_ta_pl(mu, 6),
        ] {
            let sim = ServerSimulator::new(config.clone(), scheme);
            let replayed = sim.run(&trace);
            let classic = sim.with_classic_event_core().run(&trace);
            assert_identical(
                &format!("{} {}", w.label(), scheme.label()),
                &replayed,
                &classic,
            );
            if w == Workload::OltpSt && scheme == Scheme::dma_ta_pl(mu, 2) {
                let share =
                    replayed.profile.replayed_requests as f64 / replayed.profile.requests as f64;
                assert!(share >= 0.7, "replayed share {share:.3}");
            }
        }
    }
}
