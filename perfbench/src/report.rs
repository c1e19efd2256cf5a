//! Metric names, units and the result line.
//!
//! The tables here must list exactly the metrics `BENCHMARK.json`
//! declares, in the same order; `tests/smoke.rs` checks both.

use std::collections::BTreeMap;

use simcore::obs::JsonObject;

/// End-to-end metrics (printed with `--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("energy_saving_pct", "%"),
];

/// The exhibits of `experiments all --quick`, in the order it runs them.
pub const EXHIBITS: [&str; 14] = [
    "table1", "table2", "fig2a", "fig2b", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "tpch", "groups",
];

/// Per-layer metrics (printed with `--trace 1`). A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.gen_s", "s"),
    ("trace.events", "count"),
    ("engine.baseline_s", "s"),
    ("engine.run_s", "s"),
    ("engine.ns_per_req", "ns/req"),
    ("event.per_req", "ev/req"),
    ("event.queue_ops_per_req", "ops/req"),
    ("event.max_depth", "count"),
    ("iobus.requests", "count"),
    ("iobus.req_per_transfer", "req/xfer"),
    ("mempower.transitions", "count"),
    ("mempower.transitions_per_req", "1/req"),
    ("mempower.wakes", "count"),
    ("ta.delayed_firsts", "count"),
    ("ta.uf", "ratio"),
    ("ta.policy_calls_per_req", "1/req"),
    ("ta.strict_guarantee_misses", "count"),
    ("pl.page_moves", "count"),
    ("phase.dispatch_ns_per_req", "ns/req"),
    ("phase.policy_ns_per_req", "ns/req"),
    ("phase.transition_ns_per_req", "ns/req"),
    ("phase.stats_ns_per_req", "ns/req"),
    ("obs.metrics_run_s", "s"),
    ("obs.tracer_run_s", "s"),
    ("obs.export_s", "s"),
    ("obs.trace_records", "count"),
    ("obs.dropped", "count"),
    ("obs.replay_inconsistent", "count"),
    ("sweep.fig_s.table1", "s"),
    ("sweep.fig_s.table2", "s"),
    ("sweep.fig_s.fig2a", "s"),
    ("sweep.fig_s.fig2b", "s"),
    ("sweep.fig_s.fig3", "s"),
    ("sweep.fig_s.fig4", "s"),
    ("sweep.fig_s.fig5", "s"),
    ("sweep.fig_s.fig6", "s"),
    ("sweep.fig_s.fig7", "s"),
    ("sweep.fig_s.fig8", "s"),
    ("sweep.fig_s.fig9", "s"),
    ("sweep.fig_s.fig10", "s"),
    ("sweep.fig_s.tpch", "s"),
    ("sweep.fig_s.groups", "s"),
    ("sweep.sims", "count"),
    ("sweep.memo_hit_ratio", "ratio"),
    ("sweep.memo_lookups", "count"),
    ("sweep.trace_hit_ratio", "ratio"),
    ("sweep.trace_lookups", "count"),
    ("sweep.pool_busy_ratio", "ratio"),
    ("self.op_ns_per_req", "ns/req"),
    ("self.engine_ns_per_req", "ns/req"),
    ("self.export_metrics_ns_per_req", "ns/req"),
    ("self.export_chrome_ns_per_req", "ns/req"),
    ("self.export_attribution_ns_per_req", "ns/req"),
    ("self.export_replay_ns_per_req", "ns/req"),
    ("ledger.op_untraced_ns_per_req", "ns/req"),
    ("ledger.op_traced_ns_per_req", "ns/req"),
    ("ledger.self_sum_ns_per_req", "ns/req"),
    ("ledger.overhead_pct", "%"),
    ("ledger.profiler_overhead_pct", "%"),
    ("ledger.reconcile_err_pct", "%"),
    ("spread.op_iqr_pct", "%"),
    ("spread.setup_range_pct", "%"),
];

/// Metric values collected by a workload, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The final result line: `correct`, `attempted`, `failed` and every
/// metric of `table` with its unit. A name missing from `values` is a
/// layer the workload does not exercise and reports 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &Values,
) -> String {
    let mut metrics = JsonObject::new();
    for &(name, unit) in table {
        let mut m = JsonObject::new();
        m.field_f64("value", values.get(name).copied().unwrap_or(0.0))
            .field_str("unit", unit);
        metrics.field_raw(name, &m.finish());
    }
    let mut out = JsonObject::new();
    out.field_bool("correct", correct)
        .field_u64("attempted", attempted)
        .field_u64("failed", failed)
        .field_raw("metrics", &metrics.finish());
    out.finish()
}

/// Peak resident set size (`VmHWM`) in MiB from a `/proc/<pid>/status`
/// text.
pub fn parse_vmhwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then(|| kb as f64 / 1024.0)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vmhwm_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmhwm_parses_kilobytes() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   272956 kB\nVmRSS:\t 1000 kB\n";
        let mb = parse_vmhwm_mb(status).expect("parsed");
        assert!((mb - 272956.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn vmhwm_rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vmhwm_mb("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t 1000 MB\n"), None);
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("readable") > 0.0);
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut values = Values::new();
        values.insert("req_per_s", 1.5e6);
        let line = result_line(true, 3, 0, END_TO_END, &values);
        let v = simcore::obs::json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(|a| a.as_f64()), Some(3.0));
        let m = v.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let entry = m.get(name).expect("metric present");
            assert_eq!(entry.get("unit").and_then(|u| u.as_str()), Some(*unit));
        }
        let req = m.get("req_per_s").and_then(|e| e.get("value"));
        assert_eq!(req.and_then(|r| r.as_f64()), Some(1.5e6));
    }

    #[test]
    fn per_layer_names_are_unique_and_cover_every_exhibit() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        for ex in EXHIBITS {
            let key = format!("sweep.fig_s.{ex}");
            assert!(names.contains(&key.as_str()), "{key}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
