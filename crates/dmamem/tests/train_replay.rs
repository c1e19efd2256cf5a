//! Steady-train replay conservation: replaying a recorded bus period is
//! *observationally* identical to dispatching its events one by one.
//!
//! [`ServerSimulator::with_classic_event_core`] disables the replay, so
//! every pair below runs the same trace both ways and demands identical
//! results: energy per category and per chip, residency, horizon,
//! service/response statistics, slack ledger and controller counters.
//! Only the engine profile may differ — replayed requests dispatch no
//! events — and each test asserts the replay actually ran
//! (`replayed_requests > 0`) where it should, so it cannot pass
//! vacuously, and did not run where it must not.

use dma_trace::{DmaRecord, SyntheticStorageGen, Trace, TraceEvent, TraceGen};
use dmamem::experiments::Workload;
use dmamem::PolicyKind;
use dmamem::{Scheme, ServerSimulator, SystemConfig};
use iobus::{DmaDirection, DmaSource};
use mempower::{EnergyCategory, PowerMode};
use proptest::prelude::*;
use simcore::{SimDuration, SimTime};

/// A storage trace sparse enough that transfers run alone between long
/// idle gaps, so windows end at transfer ends rather than at arrivals.
fn sparse_trace(seed: u64) -> Trace {
    let gen = SyntheticStorageGen {
        transfers_per_ms: 20.0,
        ..SyntheticStorageGen::default()
    };
    gen.generate(SimDuration::from_ms(2), seed)
}

fn run_pair(
    config: &SystemConfig,
    scheme: Scheme,
    trace: &Trace,
) -> (dmamem::SimResult, dmamem::SimResult) {
    let sim = ServerSimulator::new(config.clone(), scheme);
    let replayed = sim.run(trace);
    let classic = sim.with_classic_event_core().run(trace);
    (replayed, classic)
}

/// Field-by-field identity of everything observable about a run.
fn assert_conserved(label: &str, fast: &dmamem::SimResult, classic: &dmamem::SimResult) {
    assert_eq!(fast.scheme, classic.scheme, "{label}: scheme label");
    assert_eq!(fast.energy, classic.energy, "{label}: energy breakdown");
    assert_eq!(
        fast.per_chip_mj, classic.per_chip_mj,
        "{label}: per-chip energy"
    );
    assert_eq!(
        fast.per_chip_energy, classic.per_chip_energy,
        "{label}: per-chip breakdowns"
    );
    assert_eq!(
        fast.per_chip_residency, classic.per_chip_residency,
        "{label}: residency"
    );
    assert_eq!(fast.horizon, classic.horizon, "{label}: horizon");
    assert_eq!(fast.dma_requests, classic.dma_requests, "{label}: requests");
    assert_eq!(fast.transfers, classic.transfers, "{label}: transfers");
    assert_eq!(
        fast.proc_accesses, classic.proc_accesses,
        "{label}: proc accesses"
    );
    assert_eq!(
        fast.dma_serving, classic.dma_serving,
        "{label}: dma serving"
    );
    assert_eq!(fast.wakes, classic.wakes, "{label}: wakes");
    assert_eq!(
        fast.delayed_firsts, classic.delayed_firsts,
        "{label}: delayed firsts"
    );
    assert_eq!(fast.page_moves, classic.page_moves, "{label}: page moves");
    assert_eq!(fast.slack, classic.slack, "{label}: slack summary");
    for (a, b, which) in [
        (&fast.request_service, &classic.request_service, "service"),
        (
            &fast.transfer_response,
            &classic.transfer_response,
            "response",
        ),
    ] {
        let (a, b) = (a.raw(), b.raw());
        assert_eq!(a.count(), b.count(), "{label}: {which} count");
        assert_eq!(
            a.mean().to_bits(),
            b.mean().to_bits(),
            "{label}: {which} mean"
        );
        assert_eq!(
            a.population_variance().to_bits(),
            b.population_variance().to_bits(),
            "{label}: {which} variance"
        );
        assert_eq!(a.max(), b.max(), "{label}: {which} max");
    }
    // The five attribution buckets partition the same total either way.
    for cat in EnergyCategory::ALL {
        assert_eq!(
            fast.energy.energy_mj(cat).to_bits(),
            classic.energy.energy_mj(cat).to_bits(),
            "{label}: bucket {}",
            cat.label()
        );
    }
    assert_eq!(
        fast.profile.requests, classic.profile.requests,
        "{label}: requests allocated"
    );
    assert_eq!(
        classic.profile.replayed_requests, 0,
        "{label}: the classic core never replays"
    );
}

/// One 8-KB transfer on `bus` to `page` at `us` microseconds.
fn dma_at(us: u64, bus: usize, page: u64) -> TraceEvent {
    TraceEvent::Dma(DmaRecord {
        time: SimTime::ZERO + SimDuration::from_us(us),
        bus,
        page,
        bytes: 8192,
        direction: DmaDirection::FromMemory,
        source: DmaSource::Network,
    })
}

/// Energy, residency, latency and the slack ledger are identical with
/// the replay on vs. off, across seeds and TA schemes — and the replay
/// provably carried requests.
#[test]
fn replay_conserves_all_observables() {
    let config = SystemConfig::default();
    for seed in [7u64, 42, 1234] {
        let trace = sparse_trace(seed);
        for scheme in [
            Scheme::baseline(),
            Scheme::dma_ta(0.1),
            Scheme::dma_ta_pl(0.3, 2),
        ] {
            let (fast, classic) = run_pair(&config, scheme, &trace);
            let label = format!("seed {seed} {}", scheme.label());
            assert_conserved(&label, &fast, &classic);
            assert!(
                fast.profile.replayed_requests > 0,
                "{label}: the replay never ran"
            );
            assert!(fast.profile.events < classic.profile.events, "{label}");
        }
    }
}

/// The run's horizon is the first event popped after the last
/// completion: a stale policy timer a few periods behind the last
/// request. Windows that ended too close to a stream's end would lose
/// those timers and move the horizon; lone and overlapping transfers
/// ending together pin it.
#[test]
fn horizon_survives_windows_ending_near_the_last_request() {
    let config = SystemConfig::default();
    let traces = [
        vec![dma_at(0, 0, 0)],
        vec![dma_at(0, 0, 0), dma_at(0, 1, 1), dma_at(0, 2, 2)],
        vec![dma_at(0, 0, 0), dma_at(3, 1, 40_000)],
    ];
    for (i, events) in traces.into_iter().enumerate() {
        let trace = Trace::from_events(events);
        for scheme in [Scheme::baseline(), Scheme::dma_ta(0.5)] {
            let (fast, classic) = run_pair(&config, scheme, &trace);
            let label = format!("trace {i} {}", scheme.label());
            assert_conserved(&label, &fast, &classic);
            assert!(fast.profile.replayed_requests > 0, "{label}");
        }
    }
}

/// No policy timer may start a sleep inside a replayed period. A
/// standby threshold below the single-stream idle gap (7.52 ns slot
/// minus 2.5 ns service) sleeps the chip in every gap, so nothing may
/// replay; one just above the gap never fires, so the train replays.
/// A static policy (threshold 0) never replays either.
#[test]
fn timers_inside_the_period_block_the_replay() {
    let trace = Trace::from_events(vec![dma_at(0, 0, 0)]);
    for (policy, replays) in [
        (PolicyKind::Dynamic { scale: 0.2 }, false), // 3.75 ns < gap
        (PolicyKind::Dynamic { scale: 0.3 }, true),  // 5.63 ns > gap
        (PolicyKind::Static(PowerMode::Nap), false),
        (PolicyKind::AlwaysActive, true),
    ] {
        let config = SystemConfig {
            policy,
            ..SystemConfig::default()
        };
        let (fast, classic) = run_pair(&config, Scheme::baseline(), &trace);
        let label = format!("{policy:?}");
        assert_conserved(&label, &fast, &classic);
        assert_eq!(fast.profile.replayed_requests > 0, replays, "{label}");
    }
}

/// Attaching an observability consumer bypasses the replay: every
/// record the consumers see comes from a dispatched event.
#[test]
fn observed_runs_dispatch_every_event() {
    let trace = sparse_trace(42);
    let sim = ServerSimulator::new(SystemConfig::default(), Scheme::dma_ta(0.1));
    let observed = sim.clone().with_observability(1 << 12).run(&trace);
    assert_eq!(observed.profile.replayed_requests, 0);
    assert_conserved(
        "observed",
        &observed,
        &sim.with_classic_event_core().run(&trace),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary seeds, workloads and schemes: the replay is exact.
    #[test]
    fn replay_is_exact_for_arbitrary_seeds(
        seed in 0u64..100_000,
        workload in 0usize..4,
        scheme in 0usize..4,
        mu in 0.0f64..2.0,
    ) {
        let w = Workload::ALL[workload];
        let trace = w.generate(SimDuration::from_ms(1), seed);
        let scheme = [
            Scheme::baseline(),
            Scheme::dma_ta(mu),
            Scheme::dma_ta_pl(mu, 2),
            Scheme::dma_ta_pl(mu, 6),
        ][scheme];
        let (fast, classic) = run_pair(&SystemConfig::default(), scheme, &trace);
        assert_conserved(&format!("{} seed {seed} {}", w.label(), scheme.label()), &fast, &classic);
    }
}
