//! Engine self-profiling: deterministic hot-path counters and optional
//! wall-clock phase timers.
//!
//! The obs/tracing stack watches the *simulated* system; this module
//! watches the *simulator*. It separates two kinds of measurement:
//!
//! * **Deterministic counters** — events dispatched, calendar heap
//!   pushes/pops, max heap depth, per-phase call counts, allocation
//!   totals. These derive purely from simulated behavior, so they are
//!   bit-identical across thread counts, seeds-replayed runs, and hosts;
//!   a perf-regression gate can fail hard on any drift.
//! * **Wall-clock timings** — per-phase elapsed nanoseconds from
//!   [`Stopwatch`]. These vary by host and load; reports may only warn
//!   on them.
//!
//! The counters are plain integer bumps on paths that already touch the
//! same cache lines, so they stay on unconditionally; only the
//! wall-clock reads are gated (branch-on-`None`) behind an explicit
//! opt-in, and engines prove neutrality with byte-identical-output
//! tests (see `dmamem/tests/prof_determinism.rs`).

use std::time::Instant;

/// Hot-path phases of one simulation run, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Plain event dispatch: traffic arrival, bus ticks, service
    /// completions, CPU-gap wakeups.
    Dispatch,
    /// Controller policy work: per-chip policy timers, epoch ticks, and
    /// layout (PL) intervals.
    Policy,
    /// Chip power-mode transition completions.
    Transition,
    /// End-of-run stat collection and result assembly.
    Stats,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; 4] = [
        Phase::Dispatch,
        Phase::Policy,
        Phase::Transition,
        Phase::Stats,
    ];

    /// Stable lowercase label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Dispatch => "dispatch",
            Phase::Policy => "policy",
            Phase::Transition => "transition",
            Phase::Stats => "stats",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Accounting for one phase: a deterministic call count plus optional
/// wall-clock nanoseconds (zero unless timing was armed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Times the phase ran (deterministic).
    pub calls: u64,
    /// Total wall-clock nanoseconds spent in the phase (host-dependent;
    /// zero when timing is disabled).
    pub ns: u64,
}

/// Per-[`Phase`] accounting for one run (or a merged aggregate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    stats: [PhaseStat; 4],
}

impl PhaseProfile {
    /// Counts one call of `phase` (deterministic side).
    pub fn note(&mut self, phase: Phase) {
        self.stats[phase.index()].calls += 1;
    }

    /// Adds wall-clock nanoseconds to `phase` (timing side).
    pub fn add_ns(&mut self, phase: Phase, ns: u64) {
        self.stats[phase.index()].ns += ns;
    }

    /// The accumulated stat for `phase`.
    pub fn get(&self, phase: Phase) -> PhaseStat {
        self.stats[phase.index()]
    }

    /// Total calls across all phases.
    pub fn total_calls(&self) -> u64 {
        self.stats.iter().map(|s| s.calls).sum()
    }

    /// Total wall-clock nanoseconds across all phases.
    pub fn total_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.ns).sum()
    }

    /// Accumulates another profile into this one.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (mine, theirs) in self.stats.iter_mut().zip(other.stats.iter()) {
            mine.calls += theirs.calls;
            mine.ns += theirs.ns;
        }
    }
}

/// A wall-clock stopwatch for phase timing — the only wall-clock read
/// in the profiling layer, so engines can keep the read behind a
/// branch-on-`None` and stay byte-identical when profiling is off.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts the stopwatch.
    pub fn start() -> Stopwatch {
        Stopwatch {
            // simlint::allow(wall-clock, "host-side profiling stopwatch: feeds only EngineProfile phase ns, which reports mark nondeterministic and gates never fail on")
            started: Instant::now(),
        }
    }

    /// Elapsed wall-clock nanoseconds since [`Stopwatch::start`].
    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }
}

/// Lifetime counters maintained by [`crate::EventQueue`] (always on —
/// they are integer bumps on lines that already touch the heap).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events scheduled over the queue's lifetime.
    pub pushes: u64,
    /// Events popped over the queue's lifetime.
    pub pops: u64,
    /// High-water mark of pending events (calendar depth).
    pub max_depth: u64,
}

/// One run's engine self-profile; also the unit of aggregation across
/// a sweep (see [`EngineProfile::merge`]).
///
/// Everything except [`phases`](Self::phases) `ns` totals and
/// [`timed`](Self::timed) is deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Events dispatched by the run loop (excludes a final popped event
    /// cut off by the horizon check — see `heap_pops` for raw pops).
    pub events: u64,
    /// Calendar heap pushes.
    pub heap_pushes: u64,
    /// Calendar heap pops.
    pub heap_pops: u64,
    /// Max calendar depth reached (max over runs when merged).
    pub max_heap_depth: u64,
    /// DMA transfers allocated.
    pub transfers: u64,
    /// Chip-level DMA-memory requests allocated.
    pub requests: u64,
    /// Requests the engine advanced by replaying a recorded steady bus
    /// period instead of dispatching their events (a subset of
    /// `requests`; zero when the replay is off).
    pub replayed_requests: u64,
    /// Whether wall-clock phase timing was armed for this run (any run,
    /// when merged).
    pub timed: bool,
    /// Per-phase call counts and (if `timed`) wall-clock ns.
    pub phases: PhaseProfile,
}

impl EngineProfile {
    /// Accumulates another run's profile into this aggregate: counters
    /// sum, `max_heap_depth` takes the max, `timed` ORs.
    pub fn merge(&mut self, other: &EngineProfile) {
        self.events += other.events;
        self.heap_pushes += other.heap_pushes;
        self.heap_pops += other.heap_pops;
        self.max_heap_depth = self.max_heap_depth.max(other.max_heap_depth);
        self.transfers += other.transfers;
        self.requests += other.requests;
        self.replayed_requests += other.replayed_requests;
        self.timed |= other.timed;
        self.phases.merge(&other.phases);
    }

    /// Dispatch throughput over a measured wall-clock interval.
    pub fn events_per_sec(&self, wall_secs: f64) -> f64 {
        if wall_secs > 0.0 {
            self.events as f64 / wall_secs
        } else {
            0.0
        }
    }

    /// True when the *deterministic* fields match — ignores wall-clock
    /// phase ns and the `timed` flag, so a profiled run compares equal
    /// to an unprofiled one.
    pub fn deterministic_eq(&self, other: &EngineProfile) -> bool {
        self.events == other.events
            && self.heap_pushes == other.heap_pushes
            && self.heap_pops == other.heap_pops
            && self.max_heap_depth == other.max_heap_depth
            && self.transfers == other.transfers
            && self.requests == other.requests
            && self.replayed_requests == other.replayed_requests
            && Phase::ALL
                .iter()
                .all(|&p| self.phases.get(p).calls == other.phases.get(p).calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_profile_counts_and_merges() {
        let mut a = PhaseProfile::default();
        a.note(Phase::Dispatch);
        a.note(Phase::Dispatch);
        a.note(Phase::Policy);
        a.add_ns(Phase::Policy, 40);
        let mut b = PhaseProfile::default();
        b.note(Phase::Policy);
        b.add_ns(Phase::Policy, 2);
        a.merge(&b);
        assert_eq!(a.get(Phase::Dispatch).calls, 2);
        assert_eq!(a.get(Phase::Policy), PhaseStat { calls: 2, ns: 42 });
        assert_eq!(a.total_calls(), 4);
        assert_eq!(a.total_ns(), 42);
    }

    #[test]
    fn phase_labels_are_stable() {
        let labels: Vec<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["dispatch", "policy", "transition", "stats"]);
    }

    #[test]
    fn stopwatch_measures_nonzero_time() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(sw.elapsed_ns() > 0);
    }

    #[test]
    fn engine_profile_merge_sums_and_maxes() {
        let mut total = EngineProfile::default();
        let a = EngineProfile {
            events: 10,
            heap_pushes: 12,
            heap_pops: 11,
            max_heap_depth: 5,
            transfers: 3,
            requests: 24,
            replayed_requests: 20,
            timed: false,
            phases: PhaseProfile::default(),
        };
        let b = EngineProfile {
            max_heap_depth: 2,
            timed: true,
            ..a
        };
        total.merge(&a);
        total.merge(&b);
        assert_eq!(total.events, 20);
        assert_eq!(total.heap_pushes, 24);
        assert_eq!(total.max_heap_depth, 5);
        assert_eq!(total.requests, 48);
        assert_eq!(total.replayed_requests, 40);
        assert!(total.timed);
    }

    #[test]
    fn deterministic_eq_ignores_wall_clock() {
        let mut a = EngineProfile {
            events: 7,
            ..EngineProfile::default()
        };
        a.phases.note(Phase::Dispatch);
        let mut b = a;
        b.timed = true;
        b.phases.add_ns(Phase::Dispatch, 999);
        assert!(a.deterministic_eq(&b));
        assert_ne!(a, b);
        b.phases.note(Phase::Dispatch);
        assert!(!a.deterministic_eq(&b));
    }

    #[test]
    fn events_per_sec_guards_zero_interval() {
        let p = EngineProfile {
            events: 500,
            ..EngineProfile::default()
        };
        assert_eq!(p.events_per_sec(0.0), 0.0);
        assert!((p.events_per_sec(0.5) - 1000.0).abs() < 1e-9);
    }
}
