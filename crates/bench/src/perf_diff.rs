//! Perf-regression gate over two `BENCH_engine.json` reports.
//!
//! The engine baseline carries two kinds of numbers with different
//! contracts (see [`crate::perf_report`]):
//!
//! * **Deterministic counters** — events dispatched, heap pushes/pops,
//!   max calendar depth, transfers, requests, sims, memo and trace-cache
//!   hits per figure, and per-phase call counts. These are bit-identical
//!   for a given workload seed at any thread count, so the gate demands
//!   **exact equality** and any drift is a FAIL (exit non-zero in CI).
//!   A counter that moved means the simulation did different work — a
//!   real behavioural change that must be re-recorded deliberately, not
//!   absorbed by a tolerance.
//! * **Wall-clock throughput** — `events_per_sec` per figure and in
//!   total. Host-dependent, so a regression beyond the tolerance is a
//!   WARN only; it never fails the gate.
//!
//! `threads`, `cores`, `wall_ms`, and phase `ns` are ignored entirely;
//! `trace_ms`, `seed`, `queue_kind` and `event_model` must match or the
//! reports are incomparable (error). A `queue_kind` mismatch means the
//! baseline was recorded under different event-queue pop-order
//! semantics, an `event_model` mismatch that the engine dispatches a
//! different set of events ([`dmamem::EVENT_MODEL`]) — either way the
//! remedy is a deliberate re-record, and the gate says so instead of
//! emitting a wall of counter mismatches. Reports that predate the
//! fields are treated as [`simcore::HEAP_QUEUE_KIND`] and
//! [`LEGACY_EVENT_MODEL`].

use simcore::obs::json::{parse, JsonValue};

/// The event model of reports recorded before the field existed: every
/// bus tick, service completion and timer dispatched as an event.
pub const LEGACY_EVENT_MODEL: &str = "per-event-v1";

/// Default tolerated relative `events_per_sec` regression before warning.
pub const DEFAULT_RATE_TOLERANCE: f64 = 0.30;

/// Per-figure integer fields the gate requires to match exactly.
pub const DETERMINISTIC_FIELDS: &[&str] = &[
    "events",
    "heap_pushes",
    "heap_pops",
    "max_heap_depth",
    "transfers",
    "requests",
    "replayed_requests",
    "sims",
    "memo_hits",
    "memo_misses",
    "trace_hits",
    "trace_misses",
];

/// Totals-object integer fields the gate requires to match exactly.
const TOTALS_FIELDS: &[&str] = &[
    "events",
    "heap_pushes",
    "heap_pops",
    "max_heap_depth",
    "transfers",
    "requests",
    "replayed_requests",
    "sims",
];

/// Counters added after the first baselines were recorded: a report
/// without one predates the mechanism it counts and read zero.
const LATE_FIELDS: &[&str] = &["replayed_requests"];

/// One deterministic counter compared between baseline and current.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterEntry {
    /// Row the counter belongs to (`fig5`, ..., or `totals` / `phases`).
    pub row: String,
    /// Field name within the row.
    pub field: String,
    /// Baseline value.
    pub baseline: u64,
    /// Current value.
    pub current: u64,
}

impl CounterEntry {
    /// Whether the counter moved at all (any drift is a failure).
    pub fn drifted(&self) -> bool {
        self.baseline != self.current
    }
}

/// One throughput figure compared between baseline and current.
#[derive(Debug, Clone, PartialEq)]
pub struct RateEntry {
    /// Row the rate belongs to (`fig5`, ..., or `totals`).
    pub row: String,
    /// Baseline events/sec.
    pub baseline: f64,
    /// Current events/sec.
    pub current: f64,
}

impl RateEntry {
    /// Relative slowdown versus baseline (positive = current is slower).
    pub fn regression(&self) -> f64 {
        if self.baseline > 0.0 {
            (self.baseline - self.current) / self.baseline
        } else {
            0.0
        }
    }
}

/// A full comparison of two engine reports.
#[derive(Debug, Clone)]
pub struct PerfDiffReport {
    /// Every deterministic counter compared, report order.
    pub counters: Vec<CounterEntry>,
    /// Every throughput figure compared, report order.
    pub rates: Vec<RateEntry>,
    /// Tolerated relative events/sec regression before warning.
    pub rate_tolerance: f64,
}

impl PerfDiffReport {
    /// Deterministic counters that drifted — each one fails the gate.
    pub fn failures(&self) -> Vec<&CounterEntry> {
        self.counters.iter().filter(|e| e.drifted()).collect()
    }

    /// Throughput rows that regressed beyond tolerance — warn-only.
    pub fn warnings(&self) -> Vec<&RateEntry> {
        self.rates
            .iter()
            .filter(|e| e.regression() > self.rate_tolerance)
            .collect()
    }

    /// Whether the gate passes (warnings do not fail it).
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }

    /// Human-readable rendering: one line per drifted counter, one per
    /// throughput row, and a one-line verdict for the rest.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.counters {
            if e.drifted() {
                out.push_str(&format!(
                    "FAIL  {:<10} {:<16} {:>14} -> {:>14} (deterministic counter drifted)\n",
                    e.row, e.field, e.baseline, e.current
                ));
            }
        }
        let clean = self.counters.len() - self.failures().len();
        out.push_str(&format!("  ok  {clean} deterministic counters identical\n"));
        for e in &self.rates {
            let mark = if e.regression() > self.rate_tolerance {
                "WARN"
            } else {
                "  ok"
            };
            out.push_str(&format!(
                "{mark}  {:<10} events/sec {:>12.0} -> {:>12.0} ({:+.1}%, warn beyond -{:.0}%)\n",
                e.row,
                e.baseline,
                e.current,
                -e.regression() * 100.0,
                self.rate_tolerance * 100.0
            ));
        }
        out
    }
}

struct Figure {
    name: String,
    fields: Vec<(String, u64)>,
    events_per_sec: f64,
}

struct Report {
    queue_kind: String,
    event_model: String,
    trace_ms: f64,
    seed: u64,
    figures: Vec<Figure>,
    totals: Vec<(String, u64)>,
    totals_events_per_sec: f64,
    phase_calls: Vec<(String, u64)>,
}

fn get_u64(label: &str, ctx: &str, v: &JsonValue, field: &str) -> Result<u64, String> {
    if v.get(field).is_none() && LATE_FIELDS.contains(&field) {
        return Ok(0);
    }
    v.get(field)
        .and_then(|x| x.as_f64())
        .map(|f| f as u64)
        .ok_or_else(|| format!("{label}: {ctx} missing `{field}`"))
}

fn parse_report(label: &str, text: &str) -> Result<Report, String> {
    let v = parse(text).map_err(|e| format!("{label}: {e}"))?;
    let bench = v.get("bench").and_then(|b| b.as_str());
    if bench != Some("engine") {
        return Err(format!(
            "{label}: not an engine report (`bench` != \"engine\")"
        ));
    }
    // Reports recorded before the queue-kind schema existed omit the
    // field; they were all recorded on the binary-heap queue.
    let queue_kind = v
        .get("queue_kind")
        .and_then(|q| q.as_str())
        .unwrap_or(simcore::HEAP_QUEUE_KIND)
        .to_string();
    let event_model = v
        .get("event_model")
        .and_then(|m| m.as_str())
        .unwrap_or(LEGACY_EVENT_MODEL)
        .to_string();
    let trace_ms = v
        .get("trace_ms")
        .and_then(|t| t.as_f64())
        .ok_or_else(|| format!("{label}: missing `trace_ms`"))?;
    let seed = get_u64(label, "report", &v, "seed")?;
    let figures_json = v
        .get("figures")
        .and_then(|f| f.as_array())
        .ok_or_else(|| format!("{label}: missing `figures` array"))?;
    let mut figures = Vec::new();
    for (i, fig) in figures_json.iter().enumerate() {
        let name = fig
            .get("figure")
            .and_then(|n| n.as_str())
            .ok_or_else(|| format!("{label}: figure {i} missing `figure`"))?
            .to_string();
        let mut fields = Vec::new();
        for field in DETERMINISTIC_FIELDS {
            fields.push((field.to_string(), get_u64(label, &name, fig, field)?));
        }
        let events_per_sec = fig
            .get("events_per_sec")
            .and_then(|e| e.as_f64())
            .ok_or_else(|| format!("{label}: figure `{name}` missing `events_per_sec`"))?;
        figures.push(Figure {
            name,
            fields,
            events_per_sec,
        });
    }
    let totals_json = v
        .get("totals")
        .ok_or_else(|| format!("{label}: missing `totals`"))?;
    let mut totals = Vec::new();
    for field in TOTALS_FIELDS {
        totals.push((
            field.to_string(),
            get_u64(label, "totals", totals_json, field)?,
        ));
    }
    let totals_events_per_sec = totals_json
        .get("events_per_sec")
        .and_then(|e| e.as_f64())
        .ok_or_else(|| format!("{label}: totals missing `events_per_sec`"))?;
    let phases_json = v
        .get("phases")
        .and_then(|p| p.as_array())
        .ok_or_else(|| format!("{label}: missing `phases` array"))?;
    let mut phase_calls = Vec::new();
    for (i, phase) in phases_json.iter().enumerate() {
        let name = phase
            .get("phase")
            .and_then(|n| n.as_str())
            .ok_or_else(|| format!("{label}: phase {i} missing `phase`"))?;
        phase_calls.push((name.to_string(), get_u64(label, name, phase, "calls")?));
    }
    Ok(Report {
        queue_kind,
        event_model,
        trace_ms,
        seed,
        figures,
        totals,
        totals_events_per_sec,
        phase_calls,
    })
}

/// Diffs two `BENCH_engine.json` reports. Errors on malformed input or
/// structural mismatch (different figure sets, phases, `trace_ms`,
/// `seed`, or `queue_kind` — those make the counters incomparable);
/// counter drift and throughput regressions are reported through
/// [`PerfDiffReport`].
pub fn diff(baseline: &str, current: &str, rate_tolerance: f64) -> Result<PerfDiffReport, String> {
    let base = parse_report("baseline", baseline)?;
    let cur = parse_report("current", current)?;
    // Queue semantics gate first: comparing queue-shape counters across
    // different pop-order schemas would produce a wall of spurious
    // counter FAILs, so refuse with the actual remedy instead.
    if base.queue_kind != cur.queue_kind {
        return Err(format!(
            "queue_kind mismatch: baseline `{}` vs current `{}` — baseline recorded under \
             different queue semantics; re-record it (`experiments ... --prof-out`) before diffing",
            base.queue_kind, cur.queue_kind
        ));
    }
    // Same for the event model: the event counters count different
    // things under different models.
    if base.event_model != cur.event_model {
        return Err(format!(
            "event_model mismatch: baseline `{}` vs current `{}` — baseline recorded under \
             a different event model; re-record it (`experiments ... --prof-out`) before diffing",
            base.event_model, cur.event_model
        ));
    }
    // trace_ms is a config literal, not a computed value: any difference
    // at all makes the reports incomparable, so exact comparison is right.
    if base.trace_ms != cur.trace_ms {
        return Err(format!(
            "trace_ms mismatch: baseline {} vs current {} — reports are incomparable",
            base.trace_ms, cur.trace_ms
        ));
    }
    if base.seed != cur.seed {
        return Err(format!(
            "seed mismatch: baseline {} vs current {} — reports are incomparable",
            base.seed, cur.seed
        ));
    }
    if base.figures.len() != cur.figures.len() {
        return Err(format!(
            "figure count mismatch: baseline has {}, current has {}",
            base.figures.len(),
            cur.figures.len()
        ));
    }
    let mut counters = Vec::new();
    let mut rates = Vec::new();
    for (b, c) in base.figures.iter().zip(&cur.figures) {
        if b.name != c.name {
            return Err(format!(
                "figure mismatch at position: baseline `{}` vs current `{}`",
                b.name, c.name
            ));
        }
        for ((bf, bv), (_, cv)) in b.fields.iter().zip(&c.fields) {
            counters.push(CounterEntry {
                row: b.name.clone(),
                field: bf.clone(),
                baseline: *bv,
                current: *cv,
            });
        }
        rates.push(RateEntry {
            row: b.name.clone(),
            baseline: b.events_per_sec,
            current: c.events_per_sec,
        });
    }
    for ((bf, bv), (_, cv)) in base.totals.iter().zip(&cur.totals) {
        counters.push(CounterEntry {
            row: "totals".to_string(),
            field: bf.clone(),
            baseline: *bv,
            current: *cv,
        });
    }
    rates.push(RateEntry {
        row: "totals".to_string(),
        baseline: base.totals_events_per_sec,
        current: cur.totals_events_per_sec,
    });
    if base.phase_calls.len() != cur.phase_calls.len() {
        return Err("phase set changed between reports".to_string());
    }
    for ((bn, bv), (cn, cv)) in base.phase_calls.iter().zip(&cur.phase_calls) {
        if bn != cn {
            return Err(format!("phase mismatch: baseline `{bn}` vs current `{cn}`"));
        }
        counters.push(CounterEntry {
            row: "phases".to_string(),
            field: format!("{bn}.calls"),
            baseline: *bv,
            current: *cv,
        });
    }
    Ok(PerfDiffReport {
        counters,
        rates,
        rate_tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(events: u64, eps: u64, seed: u64) -> String {
        format!(
            "{{\"bench\": \"engine\", \"threads\": 2, \"cores\": 1, \"trace_ms\": 2, \
             \"seed\": {seed},\n\"figures\": [\n  {{\"figure\": \"fig5\", \"events\": {events}, \
             \"heap_pushes\": {p}, \"heap_pops\": {events}, \"max_heap_depth\": 17, \
             \"transfers\": 9, \"requests\": 640, \"sims\": 2, \"memo_hits\": 3, \
             \"memo_misses\": 2, \"trace_hits\": 1, \"trace_misses\": 1, \"wall_ms\": 10.0, \
             \"events_per_sec\": {eps}}}\n],\n\"totals\": {{\"events\": {events}, \
             \"heap_pushes\": {p}, \"heap_pops\": {events}, \"max_heap_depth\": 17, \
             \"transfers\": 9, \"requests\": 640, \"sims\": 2, \"wall_ms\": 10.0, \
             \"events_per_sec\": {eps}}},\n\"phases\": [\n  {{\"phase\": \"dispatch\", \
             \"calls\": {events}, \"ns\": 12345}}\n],\n\"timed_sims\": 2}}",
            p = events + 5
        )
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(1000, 100_000, 42);
        let d = diff(&r, &r, DEFAULT_RATE_TOLERANCE).unwrap();
        assert!(d.passed());
        assert!(d.warnings().is_empty());
        // 12 per-figure fields + 8 totals + 1 phase (the fixture
        // predates `replayed_requests`, which reads as zero).
        assert_eq!(d.counters.len(), 21);
        assert_eq!(d.rates.len(), 2);
        assert!(d.render().contains("21 deterministic counters identical"));
    }

    #[test]
    fn counter_drift_fails_the_gate() {
        let base = report(1000, 100_000, 42);
        let cur = report(1001, 100_000, 42);
        let d = diff(&base, &cur, DEFAULT_RATE_TOLERANCE).unwrap();
        assert!(!d.passed());
        // events drifted in the figure row, totals row, and the dispatch
        // phase call count; heap_pushes/pops follow it in the fixture.
        assert!(d.failures().len() >= 3);
        assert!(d.render().contains("FAIL"));
        assert!(d.render().contains("deterministic counter drifted"));
    }

    #[test]
    fn throughput_regression_warns_but_passes() {
        let base = report(1000, 100_000, 42);
        let cur = report(1000, 50_000, 42); // 50% slower
        let d = diff(&base, &cur, 0.30).unwrap();
        assert!(d.passed(), "wall-clock regressions never fail the gate");
        assert_eq!(d.warnings().len(), 2, "figure row and totals both warn");
        assert!(d.render().contains("WARN"));
        // Same regression inside a looser tolerance does not warn.
        assert!(diff(&base, &cur, 0.60).unwrap().warnings().is_empty());
    }

    #[test]
    fn queue_kind_mismatch_is_a_clear_rerecord_error() {
        // The fixture predates the queue_kind field, so it reads as the
        // legacy heap kind; a wheel-recorded report must not diff
        // against it.
        let legacy = report(1000, 100_000, 42);
        let wheel = legacy.replace(
            "\"bench\": \"engine\"",
            &format!(
                "\"bench\": \"engine\", \"queue_kind\": \"{}\"",
                simcore::QUEUE_KIND
            ),
        );
        let err = diff(&legacy, &wheel, DEFAULT_RATE_TOLERANCE).unwrap_err();
        assert!(err.contains("queue_kind mismatch"), "{err}");
        assert!(err.contains("different queue semantics"), "{err}");
        assert!(err.contains("re-record"), "{err}");
        assert!(
            err.contains(simcore::HEAP_QUEUE_KIND) && err.contains(simcore::QUEUE_KIND),
            "error names both kinds: {err}"
        );
        // Same kind on both sides diffs normally.
        assert!(diff(&wheel, &wheel, DEFAULT_RATE_TOLERANCE)
            .unwrap()
            .passed());
    }

    #[test]
    fn event_model_mismatch_is_a_clear_rerecord_error() {
        // The fixture predates the event_model field: it reads as the
        // per-event model and must not diff against a replay baseline.
        let legacy = report(1000, 100_000, 42);
        let replay = legacy.replace(
            "\"bench\": \"engine\"",
            &format!(
                "\"bench\": \"engine\", \"event_model\": \"{}\"",
                dmamem::EVENT_MODEL
            ),
        );
        let err = diff(&legacy, &replay, DEFAULT_RATE_TOLERANCE).unwrap_err();
        assert!(err.contains("event_model mismatch"), "{err}");
        assert!(err.contains("re-record"), "{err}");
        assert!(
            err.contains(LEGACY_EVENT_MODEL) && err.contains(dmamem::EVENT_MODEL),
            "error names both models: {err}"
        );
        assert!(diff(&replay, &replay, DEFAULT_RATE_TOLERANCE)
            .unwrap()
            .passed());
    }

    #[test]
    fn replayed_request_drift_fails_the_gate() {
        let base = report(1000, 100_000, 42).replace(
            "\"requests\": 640,",
            "\"requests\": 640, \"replayed_requests\": 600,",
        );
        let cur = base.replacen(
            "\"replayed_requests\": 600",
            "\"replayed_requests\": 601",
            1,
        );
        let d = diff(&base, &cur, DEFAULT_RATE_TOLERANCE).unwrap();
        assert_eq!(d.failures().len(), 1);
        assert_eq!(d.failures()[0].field, "replayed_requests");
    }

    #[test]
    fn incomparable_reports_are_an_error() {
        let base = report(1000, 100_000, 42);
        assert!(diff(&base, &report(1000, 100_000, 43), 0.3).is_err());
        assert!(diff(&base, "not json", 0.3).is_err());
        assert!(diff(&base, "{\"bench\": \"sweep\"}", 0.3).is_err());
        let renamed = base.replace("fig5", "fig6");
        assert!(diff(&base, &renamed, 0.3).is_err());
    }
}
