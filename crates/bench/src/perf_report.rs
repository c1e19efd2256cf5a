//! Engine self-profiling report: the `BENCH_engine.json` baseline.
//!
//! An [`EngineReport`] collects the per-figure [`FigTime`] accounting of
//! a [`SweepRunner`] — deterministic engine counters (events dispatched,
//! heap ops, max calendar depth, transfers/requests allocated, memo and
//! trace-cache hits) plus the wall-clock each figure took — and renders
//! it two ways: the machine-readable `BENCH_engine.json` baseline the
//! `perf_diff` gate compares against, and the human summary behind
//! `experiments --prof-summary`.
//!
//! Field discipline mirrors [`simcore::prof`]: integer counters are
//! deterministic and a regression gate may fail on them; `wall_ms`,
//! `events_per_sec`, and phase `ns` are host-dependent and may only
//! ever warn.

use dmamem::sweep::ProfTotals;
use simcore::prof::Phase;

use crate::sweep::{FigTime, SweepRunner};

/// One figure's engine accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRow {
    /// Exhibit name (`fig5`, `groups`, ...).
    pub figure: String,
    /// Wall-clock milliseconds the figure took (host-dependent).
    pub wall_ms: f64,
    /// Deterministic engine counters accumulated during the figure
    /// (`max_heap_depth` is the per-figure window max).
    pub prof: ProfTotals,
    /// Memoized results consumed during the figure.
    pub memo_hits: u64,
    /// Simulations executed during the figure.
    pub memo_misses: u64,
    /// Traces read back from the trace cache during the figure.
    pub trace_hits: u64,
    /// Traces generated during the figure.
    pub trace_misses: u64,
}

impl EngineRow {
    /// Dispatch throughput over the figure's wall clock (host-dependent).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.prof.events as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }
}

/// The whole-matrix engine profile, rendered as `BENCH_engine.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Pop-order schema of the event queue the engine ran on
    /// ([`simcore::QUEUE_KIND`]). Queue-shape counters (heap pushes/pops,
    /// max depth) are only comparable between reports with equal kinds;
    /// `perf_diff` refuses to diff across kinds.
    pub queue_kind: String,
    /// Event model of the engine ([`dmamem::EVENT_MODEL`]): what the
    /// event counters count. `perf_diff` refuses to diff across models.
    pub event_model: String,
    /// Worker threads the sweep ran on.
    pub threads: usize,
    /// Hardware threads the host reports.
    pub cores: usize,
    /// Simulated trace length per run, milliseconds.
    pub trace_ms: f64,
    /// Workload seed.
    pub seed: u64,
    /// Per-figure rows, in run order.
    pub rows: Vec<EngineRow>,
    /// Lifetime totals across the whole matrix (includes per-phase call
    /// counts and, when profiling was armed, per-phase wall ns).
    pub totals: ProfTotals,
}

impl EngineReport {
    /// Builds the report from a runner that has executed its figures.
    pub fn from_runner(runner: &SweepRunner, trace_ms: f64, seed: u64) -> EngineReport {
        let rows = runner
            .timings()
            .iter()
            .map(|t: &FigTime| EngineRow {
                figure: t.figure.clone(),
                wall_ms: t.ms,
                prof: t.prof,
                memo_hits: t.memo_hits,
                memo_misses: t.memo_misses,
                trace_hits: t.trace_hits,
                trace_misses: t.trace_misses,
            })
            .collect();
        EngineReport {
            queue_kind: simcore::QUEUE_KIND.to_string(),
            event_model: dmamem::EVENT_MODEL.to_string(),
            threads: runner.threads(),
            cores: simcore::par::available_threads(),
            trace_ms,
            seed,
            rows,
            totals: runner.ctx().prof_totals(),
        }
    }

    /// Total wall-clock across all figures, milliseconds.
    pub fn total_wall_ms(&self) -> f64 {
        self.rows.iter().map(|r| r.wall_ms).sum()
    }

    /// Whole-matrix dispatch throughput, events per second.
    pub fn total_events_per_sec(&self) -> f64 {
        let ms = self.total_wall_ms();
        if ms > 0.0 {
            self.totals.events as f64 / (ms / 1e3)
        } else {
            0.0
        }
    }

    /// Renders the machine-readable `BENCH_engine.json` baseline.
    ///
    /// Integer fields are deterministic (the `perf_diff` gate fails on
    /// any drift); `wall_ms`, `events_per_sec`, and phase `ns` are
    /// host-dependent (warn-only).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"bench\": \"engine\",\n");
        out.push_str(&format!("  \"queue_kind\": \"{}\",\n", self.queue_kind));
        out.push_str(&format!("  \"event_model\": \"{}\",\n", self.event_model));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"cores\": {},\n", self.cores));
        out.push_str(&format!("  \"trace_ms\": {},\n", self.trace_ms));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"figures\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"figure\": \"{}\", \"events\": {}, \"heap_pushes\": {}, \
                 \"heap_pops\": {}, \"max_heap_depth\": {}, \"transfers\": {}, \
                 \"requests\": {}, \"replayed_requests\": {}, \"sims\": {}, \"memo_hits\": {}, \
                 \"memo_misses\": {}, \"trace_hits\": {}, \"trace_misses\": {}, \"wall_ms\": {:.3}, \
                 \"events_per_sec\": {:.0}}}{}\n",
                r.figure,
                r.prof.events,
                r.prof.heap_pushes,
                r.prof.heap_pops,
                r.prof.max_heap_depth,
                r.prof.transfers,
                r.prof.requests,
                r.prof.replayed_requests,
                r.prof.sims,
                r.memo_hits,
                r.memo_misses,
                r.trace_hits,
                r.trace_misses,
                r.wall_ms,
                r.events_per_sec(),
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"totals\": {{\"events\": {}, \"heap_pushes\": {}, \"heap_pops\": {}, \
             \"max_heap_depth\": {}, \"transfers\": {}, \"requests\": {}, \
             \"replayed_requests\": {}, \"sims\": {}, \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}}},\n",
            self.totals.events,
            self.totals.heap_pushes,
            self.totals.heap_pops,
            self.totals.max_heap_depth,
            self.totals.transfers,
            self.totals.requests,
            self.totals.replayed_requests,
            self.totals.sims,
            self.total_wall_ms(),
            self.total_events_per_sec()
        ));
        out.push_str("  \"phases\": [\n");
        for (i, phase) in Phase::ALL.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"phase\": \"{}\", \"calls\": {}, \"ns\": {}}}{}\n",
                phase.label(),
                self.totals.phase_calls[i],
                self.totals.phase_ns[i],
                if i + 1 < Phase::ALL.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"timed_sims\": {}\n}}\n",
            self.totals.timed_sims
        ));
        out
    }

    /// Renders the human summary behind `experiments --prof-summary`.
    pub fn summary(&self) -> String {
        let mut out = String::from(
            "| figure | events | events/sec | sims | memo (hit/miss) | heap (push/pop) | max depth | wall (ms) | replayed requests |\n",
        );
        out.push_str("|---|---:|---:|---:|---:|---:|---:|---:|---:|\n");
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {:.0} | {} | {}/{} | {}/{} | {} | {:.1} | {} |\n",
                r.figure,
                r.prof.events,
                r.events_per_sec(),
                r.prof.sims,
                r.memo_hits,
                r.memo_misses,
                r.prof.heap_pushes,
                r.prof.heap_pops,
                r.prof.max_heap_depth,
                r.wall_ms,
                r.prof.replayed_requests
            ));
        }
        out.push_str(&format!(
            "| **total** | **{}** | **{:.0}** | **{}** | | **{}/{}** | **{}** | **{:.1}** | **{}** |\n",
            self.totals.events,
            self.total_events_per_sec(),
            self.totals.sims,
            self.totals.heap_pushes,
            self.totals.heap_pops,
            self.totals.max_heap_depth,
            self.total_wall_ms(),
            self.totals.replayed_requests
        ));
        out.push('\n');
        out.push_str(&format!(
            "{} transfers and {} DMA-memory requests allocated across {} simulations\n",
            self.totals.transfers, self.totals.requests, self.totals.sims
        ));
        let replayed_pct = if self.totals.requests > 0 {
            self.totals.replayed_requests as f64 / self.totals.requests as f64 * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "{} requests ({replayed_pct:.1}%) advanced by steady-train replay (event model {})\n",
            self.totals.replayed_requests, self.event_model
        ));
        if self.totals.timed_sims > 0 {
            out.push_str("phase timing (wall-clock, host-dependent):\n");
            let total_ns: u64 = self.totals.phase_ns.iter().sum();
            for (i, phase) in Phase::ALL.iter().enumerate() {
                let ns = self.totals.phase_ns[i];
                let pct = if total_ns > 0 {
                    ns as f64 / total_ns as f64 * 100.0
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "  {:<10} {:>12} calls  {:>9.1} ms  {:>5.1}%\n",
                    phase.label(),
                    self.totals.phase_calls[i],
                    ns as f64 / 1e6,
                    pct
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(figure: &str, events: u64, wall_ms: f64) -> EngineRow {
        EngineRow {
            figure: figure.into(),
            wall_ms,
            prof: ProfTotals {
                sims: 2,
                events,
                heap_pushes: events + 5,
                heap_pops: events + 1,
                max_heap_depth: 17,
                transfers: 9,
                requests: 640,
                replayed_requests: 320,
                phase_calls: [events, 0, 0, 2],
                ..ProfTotals::default()
            },
            memo_hits: 3,
            memo_misses: 2,
            trace_hits: 1,
            trace_misses: 1,
        }
    }

    fn report() -> EngineReport {
        let mut totals = ProfTotals {
            sims: 4,
            events: 3000,
            heap_pushes: 3010,
            heap_pops: 3002,
            max_heap_depth: 17,
            transfers: 18,
            requests: 1280,
            replayed_requests: 640,
            phase_calls: [3000, 0, 0, 4],
            ..ProfTotals::default()
        };
        totals.phase_ns = [4_000_000, 0, 0, 1_000_000];
        totals.timed_sims = 4;
        EngineReport {
            queue_kind: simcore::QUEUE_KIND.to_string(),
            event_model: dmamem::EVENT_MODEL.to_string(),
            threads: 2,
            cores: 1,
            trace_ms: 2.0,
            seed: 42,
            rows: vec![row("fig5", 1000, 10.0), row("fig7", 2000, 5.0)],
            totals,
        }
    }

    #[test]
    fn json_reports_events_per_sec_for_every_figure() {
        let json = report().to_json();
        assert!(json.contains("\"bench\": \"engine\""));
        assert!(json.contains(&format!("\"queue_kind\": \"{}\"", simcore::QUEUE_KIND)));
        assert!(json.contains(&format!("\"event_model\": \"{}\"", dmamem::EVENT_MODEL)));
        assert!(json.contains("\"replayed_requests\": 320"));
        assert!(json.contains("\"replayed_requests\": 640"));
        assert!(json.contains("\"figure\": \"fig5\""));
        assert!(json.contains("\"events\": 1000"));
        // 1000 events over 10 ms = 100k events/sec; 2000 over 5 ms = 400k.
        assert!(json.contains("\"events_per_sec\": 100000"));
        assert!(json.contains("\"events_per_sec\": 400000"));
        // Totals: 3000 events over 15 ms = 200k events/sec.
        assert!(json.contains("\"events_per_sec\": 200000"));
        assert!(json.contains("\"phase\": \"dispatch\""));
        assert!(json.contains("\"timed_sims\": 4"));
        assert_eq!(
            json.matches("\"events_per_sec\"").count(),
            3,
            "one per figure row plus the totals"
        );
    }

    #[test]
    fn summary_renders_rows_phases_and_totals() {
        let s = report().summary();
        assert!(s.contains("| fig5 | 1000 | 100000 | 2 | 3/2 | 1005/1001 | 17 | 10.0 |"));
        assert!(s.contains("**3000**"));
        assert!(s.contains("phase timing"));
        assert!(s.contains("dispatch"));
        assert!(s.contains("80.0%"), "4 of 5 ms in dispatch:\n{s}");
        assert!(s.contains("1280 DMA-memory requests"));
        assert!(
            s.contains("| 10.0 | 320 |"),
            "per-figure replayed column:\n{s}"
        );
        assert!(s.contains("640 requests (50.0%) advanced by steady-train replay"));
    }

    #[test]
    fn zero_wall_clock_yields_zero_rate() {
        let r = row("table2", 0, 0.0);
        assert_eq!(r.events_per_sec(), 0.0);
    }
}
