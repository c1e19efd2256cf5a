//! The `sweep` workload: the exhibit matrix of `experiments all --quick`
//! through one `SweepCtx` on two worker threads.
//!
//! Set-up is a fresh `SweepCtx` plus warming its shared-trace cache with
//! the four workload traces. The timed operation runs every exhibit in
//! the order the CLI does. The memo makes a second pass over one context
//! nearly free, so every operation gets a freshly set-up context.

use std::hint::black_box;
use std::time::Instant;

use bench::{ALL_WORKLOADS, BUS_RATE_SWEEP, CP_SWEEP, INTENSITY_SWEEP, PROC_SWEEP};
use dmamem::experiments::{self as ex, ExpConfig, Fig5Row, Workload};
use dmamem::sweep::SweepCtx;
use simcore::SimDuration;

use crate::guard::Guard;
use crate::ledger::{median_duration_s, op_ledger, PHASE_METRICS};
use crate::report::{Values, EXHIBITS, PER_LAYER};
use crate::single::MIN_REPS;
use crate::spans::{Recorder, SpanLog};
use crate::stats::{iqr_share, median, range_share, trimmed_mean};
use crate::{Args, Outcome};

/// Worker threads: `nproc` of the 2-vCPU machine the bounds were set on,
/// so the pool never oversubscribes it.
const THREADS: usize = 2;
/// Default trace length: the `--quick` scale.
const DEFAULT_MS: u64 = 2;
/// Set-up is timed in batches lasting at least this long.
const SETUP_BATCH_S: f64 = 0.25;
/// Batches per run; `setup_s` is the median batch's mean.
const SETUP_BATCHES: usize = 3;
/// The CP-Limit the single-point exhibits use.
const CP: f64 = 0.10;
/// Scheme whose Figure-5 rows give `energy_saving_pct`.
const ENERGY_SCHEME: &str = "DMA-TA-PL(2)";

/// A fresh context with the four workload traces cached; also returns
/// their total event count and the workloads whose trace has no DMA.
fn set_up(exp: ExpConfig, profiled: bool) -> (SweepCtx, usize, Vec<&'static str>) {
    let ctx = SweepCtx::new(THREADS).with_profiling(profiled);
    let mut events = 0;
    let mut no_dma = Vec::new();
    for w in Workload::ALL {
        let shared = w.shared_trace(&ctx, exp);
        events += shared.trace().len();
        if !shared.trace().iter().any(|e| e.is_dma()) {
            no_dma.push(w.label());
        }
    }
    (ctx, events, no_dma)
}

/// The per-layer metric of an exhibit, `sweep.fig_s.<exhibit>`; its
/// span in the traced run has the same name.
fn exhibit_metric(exhibit: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| n.strip_prefix("sweep.fig_s.") == Some(exhibit))
        .expect("a metric per exhibit")
        .0
}

/// Runs the whole matrix; returns Figure 5's rows (for the checks and
/// the energy metric).
fn run_matrix(
    ctx: &SweepCtx,
    exp: ExpConfig,
    rec: &mut Recorder<'_>,
) -> (Vec<Fig5Row>, Option<usize>) {
    let root = rec.begin("op", None);
    let mut fig5 = Vec::new();
    for exhibit in EXHIBITS {
        let span = rec.begin(exhibit_metric(exhibit), root);
        match exhibit {
            "table1" => drop(black_box(ex::table1_text())),
            "table2" => drop(black_box(ex::table2_ctx(ctx, exp))),
            "fig2a" => drop(black_box((ex::fig2a(), ex::fig2a_timeline()))),
            "fig2b" => drop(black_box(ex::fig2b_ctx(ctx, exp))),
            "fig3" => drop(black_box((ex::fig3(), ex::fig3_timeline()))),
            "fig4" => drop(black_box(ex::fig4(exp, 10))),
            "fig5" => fig5 = ex::fig5_ctx(ctx, exp, &ALL_WORKLOADS, &CP_SWEEP),
            "fig6" => drop(black_box(ex::fig6_ctx(ctx, exp, CP))),
            "fig7" => drop(black_box(ex::fig7_ctx(ctx, exp, &CP_SWEEP))),
            "fig8" => drop(black_box(ex::fig8_ctx(ctx, exp, &INTENSITY_SWEEP, CP))),
            "fig9" => drop(black_box(ex::fig9_ctx(ctx, exp, &PROC_SWEEP, CP))),
            "fig10" => drop(black_box(ex::fig10_ctx(ctx, exp, &BUS_RATE_SWEEP, CP))),
            "tpch" => drop(black_box(ex::tpch_ctx(ctx, exp, CP))),
            "groups" => drop(black_box(ex::group_ablation_ctx(ctx, exp, CP))),
            other => unreachable!("unknown exhibit {other}"),
        }
        rec.end(span);
    }
    rec.end(root);
    (fig5, root)
}

/// Every deterministic quantity of one sweep: engine counters, memo and
/// trace-cache traffic, and Figure 5's savings.
fn fingerprint(ctx: &SweepCtx, fig5: &[Fig5Row]) -> Vec<u64> {
    let p = ctx.prof_totals();
    let m = ctx.memo_stats();
    let mut v = vec![
        p.sims,
        p.events,
        p.heap_pushes,
        p.heap_pops,
        p.max_heap_depth,
        p.transfers,
        p.requests,
        m.hits,
        m.misses,
        m.trace_hits,
        m.trace_misses,
    ];
    v.extend(p.phase_calls);
    v.extend(fig5.iter().map(|r| r.savings.to_bits()));
    v
}

fn check(fig5: &[Fig5Row]) -> Result<(), String> {
    if fig5.is_empty() {
        return Err("Figure 5 produced no rows".into());
    }
    match fig5.iter().find(|r| !r.within_limit) {
        Some(r) => Err(format!(
            "Figure 5 {} {} at CP-Limit {}: degradation {} outside its limit",
            r.workload, r.scheme, r.cp_limit, r.degradation
        )),
        None => Ok(()),
    }
}

fn energy_saving_pct(fig5: &[Fig5Row]) -> f64 {
    let rows: Vec<f64> = fig5
        .iter()
        .filter(|r| r.scheme == ENERGY_SCHEME)
        .map(|r| r.savings * 100.0)
        .collect();
    rows.iter().sum::<f64>() / rows.len().max(1) as f64
}

/// Runs the sweep workload for at least `args.seconds` and
/// [`MIN_REPS`] sweeps.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let exp = ExpConfig {
        duration: SimDuration::from_ms(args.ms.unwrap_or(DEFAULT_MS)),
        seed: args.seed,
    };
    let mut report = vec![format!(
        "workload sweep: `experiments all --quick` matrix at {:?}, seed {}, {THREADS} threads",
        exp.duration, exp.seed
    )];

    // Input guard: fig5 calibrates `mu` on each workload's baseline, which
    // needs DMA traffic in every workload trace.
    let (_, trace_events, no_dma) = set_up(exp, false);
    if !no_dma.is_empty() {
        return Err(format!(
            "{} trace(s) of {:?} at seed {} have no DMA transfers; use a longer --ms",
            no_dma.join(", "),
            exp.duration,
            exp.seed
        ));
    }
    // Set-up is milliseconds at the quick scale, so it is timed in
    // batches long enough to read steadily: one batch before each
    // untraced sweep (whose last context runs the sweep), and more after
    // the loop if fewer than SETUP_BATCHES ran.
    let t = Instant::now();
    drop(set_up(exp, false));
    let per = t.elapsed().as_secs_f64();
    let batch = ((SETUP_BATCH_S / per.max(1e-6)).ceil() as usize).clamp(1, 1000);
    let mut setup_means = Vec::new();
    let timed_batch = |means: &mut Vec<f64>| {
        let t = Instant::now();
        let mut ctx = None;
        for _ in 0..batch {
            ctx = Some(set_up(exp, false).0);
        }
        means.push(t.elapsed().as_secs_f64() / batch as f64);
        ctx.expect("a batch holds at least one set-up")
    };

    let mut log = SpanLog::default();
    let mut errors = Vec::new();
    let mut guard = Guard::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut sweep_secs = Vec::new();
    let mut requests = 0;
    let mut paired_ns_per_req = Vec::new();
    let mut traced_ops: Vec<(usize, u64)> = Vec::new();
    let mut busy = Vec::new();
    let mut profiler_ratio = Vec::new();
    let mut phase_ns_per_req: [Vec<f64>; 4] = Default::default();
    let mut values = Values::new();
    let start = Instant::now();
    while sweep_secs.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let c = timed_batch(&mut setup_means);
        let t = Instant::now();
        let (fig5, _) = run_matrix(&c, exp, &mut Recorder(None));
        let secs = t.elapsed().as_secs_f64();
        attempted += 1;
        if let Err(e) = check(&fig5) {
            failed += 1;
            errors.push(e);
        }
        let p = c.prof_totals();
        sweep_secs.push(secs);
        requests = p.requests;
        if args.trace {
            paired_ns_per_req.push(secs * 1e9 / p.requests.max(1) as f64);
        }
        if let Err(e) = guard.check(0, "sweep", fingerprint(&c, &fig5)) {
            errors.push(e);
        }
        if attempted == 1 {
            let m = c.memo_stats();
            let req = p.requests.max(1) as f64;
            let lookups = m.hits + m.misses;
            let trace_lookups = m.trace_hits + m.trace_misses;
            values.insert("energy_saving_pct", energy_saving_pct(&fig5));
            values.insert("trace.events", trace_events as f64);
            values.insert("event.per_req", p.events as f64 / req);
            values.insert(
                "event.queue_ops_per_req",
                (p.heap_pushes + p.heap_pops) as f64 / req,
            );
            values.insert("event.max_depth", p.max_heap_depth as f64);
            values.insert("iobus.requests", p.requests as f64);
            values.insert(
                "iobus.req_per_transfer",
                p.requests as f64 / p.transfers.max(1) as f64,
            );
            values.insert("mempower.transitions", p.phase_calls[2] as f64);
            values.insert(
                "mempower.transitions_per_req",
                p.phase_calls[2] as f64 / req,
            );
            values.insert("ta.policy_calls_per_req", p.phase_calls[1] as f64 / req);
            values.insert("sweep.sims", p.sims as f64);
            values.insert("sweep.memo_lookups", lookups as f64);
            values.insert(
                "sweep.memo_hit_ratio",
                m.hits as f64 / lookups.max(1) as f64,
            );
            values.insert("sweep.trace_lookups", trace_lookups as f64);
            values.insert(
                "sweep.trace_hit_ratio",
                m.trace_hits as f64 / trace_lookups.max(1) as f64,
            );
        }

        if args.trace {
            // The traced sweep: a span around each exhibit call, with the
            // phase timers off so it costs what the untraced one does.
            let c = set_up(exp, false).0;
            let (fig5, root) = run_matrix(&c, exp, &mut Recorder(Some(&mut log)));
            attempted += 1;
            if let Err(e) = check(&fig5) {
                failed += 1;
                errors.push(e);
            }
            if let Err(e) = guard.check(0, "sweep", fingerprint(&c, &fig5)) {
                errors.push(e);
            }
            traced_ops.push((root.expect("recording"), c.prof_totals().requests));

            // A profiled sweep: the engine's phase split and the pool's
            // busy share, and what the phase timers cost.
            let c = set_up(exp, true).0;
            let t = Instant::now();
            let (fig5, _) = run_matrix(&c, exp, &mut Recorder(None));
            let profiled_secs = t.elapsed().as_secs_f64();
            attempted += 1;
            if let Err(e) = check(&fig5) {
                failed += 1;
                errors.push(e);
            }
            if let Err(e) = guard.check(0, "sweep", fingerprint(&c, &fig5)) {
                errors.push(e);
            }
            let p = c.prof_totals();
            profiler_ratio.push(profiled_secs / secs);
            busy.push(
                p.phase_ns.iter().sum::<u64>() as f64 / 1e9 / (THREADS as f64 * profiled_secs),
            );
            for (acc, ns) in phase_ns_per_req.iter_mut().zip(p.phase_ns) {
                acc.push(ns as f64 / p.requests.max(1) as f64);
            }
        }
    }

    while setup_means.len() < SETUP_BATCHES {
        drop(timed_batch(&mut setup_means));
    }
    let setup_s = median(&setup_means);
    let setup_range = range_share(&setup_means);
    report.push(format!(
        "set-up: median {setup_s:.6} s per set-up over {} batches of {batch} ({setup_means:.6?}), range {:.1}%",
        setup_means.len(),
        setup_range * 100.0
    ));
    let req_per_s = requests as f64 / trimmed_mean(&sweep_secs);
    values.insert("req_per_s", req_per_s);
    values.insert("setup_s", setup_s);
    values.insert("trace.gen_s", setup_s);
    let spread = iqr_share(&sweep_secs).map(|s| s * 100.0);
    if let Some(w) = spread {
        values.insert("spread.op_iqr_pct", w);
    }
    values.insert("spread.setup_range_pct", setup_range * 100.0);
    report.push(format!(
        "req/s {req_per_s:.0}: {requests} requests at the trimmed-mean sweep time {:.3} s of {} untraced sweeps {sweep_secs:.3?}; IQR {} of the median",
        trimmed_mean(&sweep_secs),
        sweep_secs.len(),
        spread.map_or("undefined (fewer than 2 sweeps)".to_string(), |w| format!("{w:.1}%")),
    ));
    report.push(format!(
        "energy saving (mean of Figure 5 {ENERGY_SCHEME} rows): {:.4}%",
        values["energy_saving_pct"]
    ));
    if args.trace {
        for ex in EXHIBITS {
            let metric = exhibit_metric(ex);
            values.insert(metric, median_duration_s(&log, metric));
        }
        values.insert("sweep.pool_busy_ratio", median(&busy));
        values.insert(
            "ledger.profiler_overhead_pct",
            (median(&profiler_ratio) - 1.0) * 100.0,
        );
        for ((metric, _), samples) in PHASE_METRICS.iter().zip(&phase_ns_per_req) {
            values.insert(metric, median(samples));
        }
        let (line, reconciled) = op_ledger(&log, &traced_ops, &paired_ns_per_req, &mut values);
        report.push(line);
        attempted += 1;
        if !reconciled {
            failed += 1;
            errors.push("the per-layer ledger does not reconcile with the untraced time".into());
        }
    }

    Ok(Outcome {
        correct: errors.is_empty() && failed == 0,
        attempted,
        failed,
        values,
        report,
        errors,
        spans: args.trace.then_some(log),
    })
}
