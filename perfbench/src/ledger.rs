//! The per-layer ledger of the traced run: self time per layer, and its
//! reconciliation with the untraced operation time.

use std::collections::BTreeMap;

use crate::report::Values;
use crate::spans::SpanLog;
use crate::stats::median;

/// Span name -> per-layer metric fed by that span's self time in a
/// traced operation.
const SELF_METRICS: &[(&str, &str)] = &[
    ("op", "self.op_ns_per_req"),
    ("engine.run", "self.engine_ns_per_req"),
    ("obs.run", "self.engine_ns_per_req"),
    ("export.metrics", "self.export_metrics_ns_per_req"),
    ("export.chrome", "self.export_chrome_ns_per_req"),
    ("export.attribution", "self.export_attribution_ns_per_req"),
    ("export.replay", "self.export_replay_ns_per_req"),
];

/// Per-layer metric -> span of the engine phase it measures. Phase spans
/// are children of a profiled probe run, outside the traced operations:
/// the phase timers read the clock at every phase switch, which would
/// slow a traced operation by about half.
pub const PHASE_METRICS: [(&str, &str); 4] = [
    ("phase.dispatch_ns_per_req", "phase.dispatch"),
    ("phase.policy_ns_per_req", "phase.policy"),
    ("phase.transition_ns_per_req", "phase.transition"),
    ("phase.stats_ns_per_req", "phase.stats"),
];

/// Reconciliation band: the sum of the layers' median self times may
/// differ from the median untraced operation on the same inputs by at
/// most this many percent. The difference is what the spans add, plus
/// the host's drift between the two operations of a pair.
pub const RECONCILE_BAND_PCT: f64 = 15.0;

/// Median duration in seconds of every span called `name`.
pub fn median_duration_s(log: &SpanLog, name: &str) -> f64 {
    let d: Vec<f64> = (0..log.spans().len())
        .filter(|&i| log.spans()[i].name == name)
        .map(|i| log.duration_ns(i) as f64 / 1e9)
        .collect();
    median(&d)
}

/// Median over spans called `name` of duration / requests, where each
/// span's requests are those of its root in `roots` (`(root id,
/// requests)`).
pub fn median_ns_per_req(log: &SpanLog, roots: &[(usize, u64)], name: &str) -> f64 {
    let root_of = roots_of(log);
    let req: BTreeMap<usize, u64> = roots.iter().copied().collect();
    let d: Vec<f64> = (0..log.spans().len())
        .filter(|&i| log.spans()[i].name == name)
        .filter_map(|i| {
            let r = *req.get(&root_of[i])?;
            Some(log.duration_ns(i) as f64 / r.max(1) as f64)
        })
        .collect();
    median(&d)
}

/// Index of each span's root (parents always precede children).
fn roots_of(log: &SpanLog) -> Vec<usize> {
    let mut root = Vec::with_capacity(log.spans().len());
    for (i, s) in log.spans().iter().enumerate() {
        root.push(s.parent.map_or(i, |p| root[p]));
    }
    root
}

/// Fills the self-time and ledger metrics from the traced operations
/// `ops` (`(root span id, requests)`) and the untraced operation that ran
/// just before each on the same input (`untraced_ns_per_req[k]` pairs with
/// `ops[k]`). Returns a one-line summary and whether the sum of the
/// layers' self times reconciles with the untraced time within
/// [`RECONCILE_BAND_PCT`].
pub fn op_ledger(
    log: &SpanLog,
    ops: &[(usize, u64)],
    untraced_ns_per_req: &[f64],
    out: &mut Values,
) -> (String, bool) {
    let self_ns = log.self_times_ns();
    let root_of = roots_of(log);
    let op_index: BTreeMap<usize, usize> = ops
        .iter()
        .enumerate()
        .map(|(k, &(root, _))| (root, k))
        .collect();
    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (i, s) in log.spans().iter().enumerate() {
        if let Some(&k) = op_index.get(&root_of[i]) {
            let row = per_name
                .entry(s.name)
                .or_insert_with(|| vec![0.0; ops.len()]);
            row[k] += self_ns[i] as f64 / ops[k].1.max(1) as f64;
        }
    }
    let mut self_sum = 0.0;
    for (name, samples) in &per_name {
        let m = median(samples);
        self_sum += m;
        if let Some(&(_, metric)) = SELF_METRICS.iter().find(|(n, _)| n == name) {
            *out.entry(metric).or_insert(0.0) += m;
        }
    }
    let traced: Vec<f64> = ops
        .iter()
        .map(|&(root, req)| log.duration_ns(root) as f64 / req.max(1) as f64)
        .collect();
    let ratios: Vec<f64> = traced
        .iter()
        .zip(untraced_ns_per_req)
        .map(|(t, u)| t / u)
        .collect();
    let op_untraced = median(untraced_ns_per_req);
    let overhead_pct = (median(&ratios) - 1.0) * 100.0;
    let err_pct = (self_sum / op_untraced - 1.0).abs() * 100.0;
    let reconciled = err_pct <= RECONCILE_BAND_PCT;
    out.insert("ledger.op_untraced_ns_per_req", op_untraced);
    out.insert("ledger.op_traced_ns_per_req", median(&traced));
    out.insert("ledger.self_sum_ns_per_req", self_sum);
    out.insert("ledger.overhead_pct", overhead_pct);
    out.insert("ledger.reconcile_err_pct", err_pct);
    let layers: Vec<String> = per_name
        .iter()
        .map(|(n, s)| format!("{n} {:.2}", median(s)))
        .collect();
    let line = format!(
        "ledger (ns/req, medians over {} traced ops): {}; sum of self {self_sum:.2} vs untraced op {op_untraced:.2}: err {err_pct:.2}% ({} the {RECONCILE_BAND_PCT}% band); tracing overhead {overhead_pct:+.1}% (median traced / untraced over the pairs)",
        ops.len(),
        layers.join(", "),
        if reconciled { "within" } else { "OUTSIDE" },
    );
    (line, reconciled)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three traced ops of 100 requests, each 800 ns long, nested as
    /// op > (obs.run, obs.export > export.chrome).
    fn nested_ops() -> (SpanLog, Vec<(usize, u64)>) {
        let mut log = SpanLog::default();
        let mut ops = Vec::new();
        for k in 0..3u64 {
            let t = k * 1_000;
            let root = log.add("op", None, t, t + 800);
            log.add("obs.run", Some(root), t + 100, t + 500);
            let export = log.add("obs.export", Some(root), t + 500, t + 700);
            log.add("export.chrome", Some(export), t + 500, t + 600);
            ops.push((root, 100));
        }
        (log, ops)
    }

    #[test]
    fn layers_reconcile_with_a_close_untraced_time() {
        let (log, ops) = nested_ops();
        let mut out = Values::new();
        let (line, ok) = op_ledger(&log, &ops, &[7.0, 7.5, 8.0], &mut out);
        assert!(ok, "{line}");
        assert_eq!(out["ledger.op_traced_ns_per_req"], 8.0);
        assert_eq!(out["ledger.self_sum_ns_per_req"], 8.0);
        assert_eq!(out["ledger.op_untraced_ns_per_req"], 7.5);
        assert!((out["ledger.reconcile_err_pct"] - 100.0 / 15.0).abs() < 1e-9);
        // Median of 8/7, 8/7.5 and 8/8.
        assert!((out["ledger.overhead_pct"] - 100.0 / 15.0).abs() < 1e-9);
        assert_eq!(out["self.engine_ns_per_req"], 4.0);
        assert_eq!(out["self.export_chrome_ns_per_req"], 1.0);
        assert_eq!(out["self.op_ns_per_req"], 2.0);
    }

    #[test]
    fn a_far_untraced_time_does_not_reconcile() {
        // The traced ops take twice the untraced time: the 100% gap is
        // outside the band, however well the spans nest.
        let (log, ops) = nested_ops();
        let mut out = Values::new();
        let (line, ok) = op_ledger(&log, &ops, &[4.0, 4.0, 4.0], &mut out);
        assert!(!ok, "{line}");
        assert!(line.contains("OUTSIDE"));
        assert_eq!(out["ledger.reconcile_err_pct"], 100.0);
        assert_eq!(out["ledger.overhead_pct"], 100.0);
    }

    #[test]
    fn spans_outside_ops_are_not_in_the_ledger() {
        let mut log = SpanLog::default();
        let root = log.add("op", None, 0, 100);
        log.add("engine.run", None, 200, 260);
        let mut out = Values::new();
        op_ledger(&log, &[(root, 10)], &[10.0], &mut out);
        assert_eq!(out["ledger.self_sum_ns_per_req"], 10.0);
        assert_eq!(median_duration_s(&log, "engine.run"), 60e-9);
        assert_eq!(median_ns_per_req(&log, &[(1, 6)], "engine.run"), 10.0);
    }
}
