//! The single-run workloads: `storage`, `database` and `observed`.
//!
//! Each drives the paper system (32 RDRAM chips, 3 PCI-X buses) through
//! the public API. Set-up generates the workload's traces, runs the
//! baseline calibration on each and derives `mu` for CP-Limit 10%. The
//! timed operation is one `ServerSimulator::run` of DMA-TA-PL(2) over one
//! trace (cycling through the traces), plus, on `observed`, the exports
//! an observed run is for.

use std::hint::black_box;
use std::time::Instant;

use dma_trace::Trace;
use dmamem::experiments::{client_degradation, mu_from_baseline, paper_system, Workload};
use dmamem::{
    replay_slack, RunAttribution, Scheme, ServerSimulator, SimResult, SlackReplay, SystemConfig,
};
use simcore::prof::Phase;
use simcore::SimDuration;

use crate::guard::Guard;
use crate::ledger::{median_duration_s, median_ns_per_req, op_ledger, PHASE_METRICS};
use crate::report::Values;
use crate::spans::{Recorder, SpanLog};
use crate::stats::{median, median_iqr_share, pooled_rate, range_share, tail_percentile};
use crate::{Args, Outcome};

/// The client-perceived degradation limit every scheme run is held to.
const CP_LIMIT: f64 = 0.10;
/// PL group count of the timed scheme, DMA-TA-PL(2).
const PL_GROUPS: usize = 2;
/// Event-ring capacity of the observed run: holds the whole stream of a
/// 20 ms OLTP-St run (about 2.8 M events), so `replay_slack` sees every
/// ledger entry. Grows on demand; nothing is preallocated.
const EVENT_CAPACITY: usize = 1 << 23;
/// Span-ring capacity of the observed run's tracer (oldest records drop;
/// the drop count is reported).
const TRACE_CAPACITY: usize = 1 << 18;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest untraced operations per trace, and traced pairs with
/// `--trace 1`, so each median and spread rests on several samples.
pub const MIN_REPS: usize = 3;

/// Which single-run workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// OLTP-St, plain run.
    Storage,
    /// OLTP-Db, plain run.
    Database,
    /// OLTP-St with observability and tracing armed, plus exports.
    Observed,
}

impl Kind {
    fn workload(self) -> Workload {
        match self {
            Kind::Database => Workload::OltpDb,
            Kind::Storage | Kind::Observed => Workload::OltpSt,
        }
    }

    /// Default trace length in ms and number of traces. A short trace's
    /// energy saving depends strongly on its seed: across seeds, one
    /// 20 ms OLTP-St trace has an interquartile range of ~33% of the
    /// median, three pooled ~16%, one 120 ms trace ~11%. So `storage` and
    /// `database` run one long trace. `observed` keeps its whole event
    /// stream in memory (~300 MB at 20 ms), which caps its traces at
    /// 20 ms; it pools four, few enough that each gets [`MIN_REPS`]
    /// operations in a run.
    fn default_size(self) -> (u64, usize) {
        match self {
            Kind::Storage => (160, 1),
            Kind::Database => (60, 1),
            Kind::Observed => (20, 4),
        }
    }
}

/// Seed of trace `i` of a run with `seed` and `k` traces.
fn trace_seed(seed: u64, k: usize, i: usize) -> u64 {
    seed.wrapping_mul(k as u64).wrapping_add(i as u64)
}

/// One input trace with its baseline calibration.
struct Input {
    trace: Trace,
    baseline: SimResult,
    mu: f64,
}

/// What one set-up produced and cost.
struct Setup {
    inputs: Vec<Input>,
    secs: f64,
    gen_secs: f64,
    baseline_secs: f64,
}

fn set_up(
    kind: Kind,
    config: &SystemConfig,
    duration: SimDuration,
    k: usize,
    seed: u64,
    rec: &mut Recorder<'_>,
) -> Result<Setup, String> {
    let start = Instant::now();
    let root = rec.begin("setup", None);
    let (mut gen_secs, mut baseline_secs) = (0.0, 0.0);
    let extra = kind.workload().client_extra_latency();
    let mut inputs = Vec::with_capacity(k);
    for i in 0..k {
        let t = Instant::now();
        let span = rec.begin("trace.generate", root);
        let trace = kind.workload().generate(duration, trace_seed(seed, k, i));
        rec.end(span);
        gen_secs += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let span = rec.begin("engine.baseline", root);
        let baseline = ServerSimulator::new(config.clone(), Scheme::baseline()).run(&trace);
        rec.end(span);
        baseline_secs += t.elapsed().as_secs_f64();

        // `mu_from_baseline` asserts on an empty baseline; reject the
        // input here instead.
        if baseline.transfers == 0 {
            return Err(format!(
                "trace {i} ({} ms, seed {}) completes no DMA transfers in the baseline run; \
                 use a longer --ms",
                duration.as_secs_f64() * 1e3,
                trace_seed(seed, k, i)
            ));
        }
        let span = rec.begin("calibrate.mu", root);
        let mu = mu_from_baseline(config, &baseline, CP_LIMIT, extra);
        rec.end(span);
        inputs.push(Input {
            trace,
            baseline,
            mu,
        });
    }
    rec.end(root);
    Ok(Setup {
        inputs,
        secs: start.elapsed().as_secs_f64(),
        gen_secs,
        baseline_secs,
    })
}

/// Host times of the set-up repetitions.
#[derive(Default)]
struct SetupTimes {
    secs: Vec<f64>,
    gen: Vec<f64>,
    baseline: Vec<f64>,
}

impl SetupTimes {
    /// Records one set-up and checks that its baselines repeat those of
    /// the earlier ones.
    fn record(&mut self, s: &Setup, guard: &mut Guard, errors: &mut Vec<String>) {
        self.secs.push(s.secs);
        self.gen.push(s.gen_secs);
        self.baseline.push(s.baseline_secs);
        for (i, input) in s.inputs.iter().enumerate() {
            if let Err(e) = guard.check(i, "baseline", fingerprint(&input.baseline)) {
                errors.push(e);
            }
        }
    }
}

/// The exports an observed operation builds.
struct Exports {
    replay: SlackReplay,
    attribution: RunAttribution,
}

/// One timed operation's outcome.
struct OpOut {
    result: SimResult,
    secs: f64,
    root: Option<usize>,
    exports: Option<Exports>,
}

/// The scheme simulator every operation runs; `observe` arms the
/// recording side.
fn scheme_sim(config: &SystemConfig, mu: f64, observe: bool, profiled: bool) -> ServerSimulator {
    let mut sim = ServerSimulator::new(config.clone(), Scheme::dma_ta_pl(mu, PL_GROUPS));
    if observe {
        sim = sim
            .with_observability(EVENT_CAPACITY)
            .with_tracing(TRACE_CAPACITY);
    }
    if profiled {
        sim = sim.with_profiling();
    }
    sim
}

/// Runs `sim` inside span `name`, with the engine's phase timers (when
/// armed) laid out as child spans.
fn run_engine(
    sim: &ServerSimulator,
    trace: &Trace,
    name: &'static str,
    parent: Option<usize>,
    rec: &mut Recorder<'_>,
) -> (SimResult, Option<usize>) {
    let span = rec.begin(name, parent);
    let result = sim.run(trace);
    rec.end(span);
    if result.profile.timed {
        let phases: Vec<(&'static str, u64)> = Phase::ALL
            .iter()
            .map(|&p| (phase_span(p), result.profile.phases.get(p).ns))
            .collect();
        rec.children(span, &phases);
    }
    (result, span)
}

fn phase_span(p: Phase) -> &'static str {
    match p {
        Phase::Dispatch => PHASE_METRICS[0].1,
        Phase::Policy => PHASE_METRICS[1].1,
        Phase::Transition => PHASE_METRICS[2].1,
        Phase::Stats => PHASE_METRICS[3].1,
    }
}

/// One timed operation; with a recording `rec` it is a traced one, whose
/// spans cost a few clock reads per operation.
fn run_op(kind: Kind, config: &SystemConfig, input: &Input, rec: &mut Recorder<'_>) -> OpOut {
    let start = Instant::now();
    let root = rec.begin("op", None);
    let observe = kind == Kind::Observed;
    let sim = scheme_sim(config, input.mu, observe, false);
    let name = if observe { "obs.run" } else { "engine.run" };
    let (result, _) = run_engine(&sim, &input.trace, name, root, rec);
    let exports = observe.then(|| export(kind, &result, root, rec));
    rec.end(root);
    OpOut {
        result,
        secs: start.elapsed().as_secs_f64(),
        root,
        exports,
    }
}

/// Builds what an observed run is for: the metrics snapshot, the
/// Perfetto trace, the waste attribution and the slack replay.
fn export(kind: Kind, r: &SimResult, parent: Option<usize>, rec: &mut Recorder<'_>) -> Exports {
    let root = rec.begin("obs.export", parent);
    let obs = r.obs.as_ref().expect("observability armed on this run");
    let span = rec.begin("export.metrics", root);
    black_box(obs.metrics.to_json());
    rec.end(span);
    let span = rec.begin("export.chrome", root);
    black_box(r.trace.as_ref().expect("tracing armed").to_chrome_json());
    rec.end(span);
    let span = rec.begin("export.attribution", root);
    let attribution = RunAttribution::from_result(kind.workload().label(), r);
    rec.end(span);
    let span = rec.begin("export.replay", root);
    let replay = replay_slack(obs.events.iter());
    rec.end(span);
    rec.end(root);
    Exports {
        replay,
        attribution,
    }
}

/// The correctness checks on one operation's result.
fn check(kind: Kind, config: &SystemConfig, input: &Input, op: &OpOut) -> Result<(), String> {
    let r = &op.result;
    let base = &input.baseline;
    let degradation = client_degradation(r, base, kind.workload().client_extra_latency());
    if degradation > CP_LIMIT {
        return Err(format!(
            "client degradation {degradation} exceeds CP-Limit {CP_LIMIT}"
        ));
    }
    if !soft_guarantee_met(r, config.t_request()) {
        return Err(format!(
            "mean request service {} ns exceeds the soft guarantee bound",
            r.request_service.mean_ns()
        ));
    }
    if r.dma_requests != base.dma_requests {
        return Err(format!(
            "scheme served {} DMA requests, baseline {}",
            r.dma_requests, base.dma_requests
        ));
    }
    let total = r.energy.total_mj();
    let chips: f64 = r.per_chip_mj.iter().sum();
    if (chips - total).abs() > 1e-9 * total.abs().max(1.0) {
        return Err(format!(
            "per-chip energies sum to {chips} mJ, total {total} mJ"
        ));
    }
    let owned;
    let attribution = match &op.exports {
        Some(e) => &e.attribution,
        None => {
            owned = RunAttribution::from_result(kind.workload().label(), r);
            &owned
        }
    };
    let err = attribution.checksum_rel_err();
    if err > 1e-9 {
        return Err(format!("attribution checksum rel err {err:e} > 1e-9"));
    }
    if let Some(e) = &op.exports {
        check_replay(r, &e.replay, config.t_request())?;
    }
    Ok(())
}

/// The per-request guarantee as the repository states it: DMA-TA's slack
/// account is soft (debits land after the delay they pay for, and epochs
/// are 1 us granular), so the mean service time may overrun `(1 + mu) *
/// T` by the bounded slop `tests/properties.rs::slack_guarantee_holds`
/// pins: 15% plus 25 ns. Runs over the strict bound
/// ([`SimResult::guarantee_met`]) are counted separately as
/// `ta.strict_guarantee_misses`.
fn soft_guarantee_met(r: &SimResult, t_ref: SimDuration) -> bool {
    r.request_service.mean_ns() <= (1.0 + r.mu) * t_ref.as_ns_f64() * 1.15 + 25.0
}

/// `replay_slack` over the event stream must agree with the engine's own
/// slack account: same credited requests, `mu` and guarantee verdict,
/// and the same final balance up to float summation error (relative to
/// the ledger's total volume, at the 1e-9 the attribution check uses).
///
/// Replay's own per-entry `ledger_consistent` flag is not part of this
/// check: its tolerance is relative to the running balance, so on long
/// streams f64 drift trips it whenever the balance passes near zero.
/// Those runs are counted as `obs.replay_inconsistent`.
fn check_replay(r: &SimResult, replay: &SlackReplay, t_ref: SimDuration) -> Result<(), String> {
    let obs = r.obs.as_ref().expect("observability armed on this run");
    if obs.events.dropped() > 0 {
        return Err(format!(
            "event ring dropped {} events; replay incomplete",
            obs.events.dropped()
        ));
    }
    if !replay.closed {
        return Err("slack replay saw no slack_close event".into());
    }
    let slack = r.slack.ok_or("scheme run has no slack account")?;
    let volume = (replay.credit_ps + replay.debit_ps).max(1.0);
    let balance_ok = (replay.balance_ps - slack.final_ps).abs() <= 1e-9 * volume;
    if replay.credited != slack.credited || !balance_ok || replay.mu != r.mu {
        return Err(format!(
            "slack replay (credited {}, balance {} ps, mu {}) disagrees with the engine (credited {}, final {} ps, mu {})",
            replay.credited, replay.balance_ps, replay.mu, slack.credited, slack.final_ps, r.mu
        ));
    }
    if replay.guarantee_met(t_ref) != r.guarantee_met(t_ref) {
        return Err("replayed guarantee verdict disagrees with the engine".into());
    }
    Ok(())
}

/// Every deterministic quantity the benchmark reports about a run.
fn fingerprint(r: &SimResult) -> Vec<u64> {
    let p = &r.profile;
    let mut v = vec![
        p.events,
        p.heap_pushes,
        p.heap_pops,
        p.max_heap_depth,
        p.transfers,
        p.requests,
        r.dma_requests,
        r.transfers,
        r.proc_accesses,
        r.wakes,
        r.delayed_firsts,
        r.page_moves,
        r.horizon.as_ps(),
        r.dma_serving.as_ps(),
        r.energy.total_mj().to_bits(),
    ];
    v.extend(Phase::ALL.iter().map(|&ph| p.phases.get(ph).calls));
    if let Some(tb) = &r.trace {
        v.extend([tb.len() as u64, tb.dropped()]);
    }
    if let Some(obs) = &r.obs {
        v.extend([obs.events.len() as u64, obs.events.dropped()]);
    }
    v
}

/// Per-layer counts summed over one pass of scheme runs (one per trace).
#[derive(Default)]
struct Counts {
    runs: u64,
    events: u64,
    queue_ops: u64,
    max_depth: u64,
    requests: u64,
    transfers: u64,
    transitions: u64,
    policy_calls: u64,
    wakes: u64,
    delayed_firsts: u64,
    page_moves: u64,
    uf_sum: f64,
    strict_misses: u64,
    replay_inconsistent: u64,
    trace_records: u64,
    dropped: u64,
    energy_base_mj: f64,
    energy_scheme_mj: f64,
}

impl Counts {
    fn add(&mut self, op: &OpOut, baseline: &SimResult, t_ref: SimDuration) {
        let r = &op.result;
        let p = &r.profile;
        self.runs += 1;
        self.events += p.events;
        self.queue_ops += p.heap_pushes + p.heap_pops;
        self.max_depth = self.max_depth.max(p.max_heap_depth);
        self.requests += r.dma_requests;
        self.transfers += r.transfers;
        self.transitions += p.phases.get(Phase::Transition).calls;
        self.policy_calls += p.phases.get(Phase::Policy).calls;
        self.wakes += r.wakes;
        self.delayed_firsts += r.delayed_firsts;
        self.page_moves += r.page_moves;
        self.uf_sum += r.utilization_factor();
        self.strict_misses += u64::from(!r.guarantee_met(t_ref));
        if let Some(tb) = &r.trace {
            self.trace_records += tb.len() as u64;
            self.dropped += tb.dropped();
        }
        if let Some(obs) = &r.obs {
            self.dropped += obs.events.dropped();
        }
        if let Some(e) = &op.exports {
            self.replay_inconsistent += u64::from(!e.replay.ledger_consistent);
        }
        // Both runs extended to the later horizon, as `savings_vs` does.
        let h = r.horizon.max(baseline.horizon);
        self.energy_base_mj += baseline.energy_mj_at(h);
        self.energy_scheme_mj += r.energy_mj_at(h);
    }

    fn into_values(self, out: &mut Values) {
        let req = self.requests.max(1) as f64;
        out.insert(
            "energy_saving_pct",
            (self.energy_base_mj - self.energy_scheme_mj) / self.energy_base_mj * 100.0,
        );
        out.insert("event.per_req", self.events as f64 / req);
        out.insert("event.queue_ops_per_req", self.queue_ops as f64 / req);
        out.insert("event.max_depth", self.max_depth as f64);
        out.insert("iobus.requests", self.requests as f64);
        out.insert(
            "iobus.req_per_transfer",
            self.requests as f64 / self.transfers.max(1) as f64,
        );
        out.insert("mempower.transitions", self.transitions as f64);
        out.insert(
            "mempower.transitions_per_req",
            self.transitions as f64 / req,
        );
        out.insert("mempower.wakes", self.wakes as f64);
        out.insert("ta.delayed_firsts", self.delayed_firsts as f64);
        out.insert("ta.uf", self.uf_sum / self.runs.max(1) as f64);
        out.insert("ta.policy_calls_per_req", self.policy_calls as f64 / req);
        out.insert("ta.strict_guarantee_misses", self.strict_misses as f64);
        out.insert("pl.page_moves", self.page_moves as f64);
        out.insert("obs.trace_records", self.trace_records as f64);
        out.insert("obs.dropped", self.dropped as f64);
        out.insert("obs.replay_inconsistent", self.replay_inconsistent as f64);
    }
}

/// Runs one single-run workload for at least `args.seconds`, and until
/// every trace has [`MIN_REPS`] untraced operations (and, with
/// `--trace 1`, there are [`MIN_REPS`] traced ones).
pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let (default_ms, k) = kind.default_size();
    let ms = args.ms.unwrap_or(default_ms);
    let duration = SimDuration::from_ms(ms);
    let config = paper_system();
    let t_ref = config.t_request();
    let mut log = SpanLog::default();
    let mut guard = Guard::default();
    let mut errors: Vec<String> = Vec::new();
    let mut report = vec![format!(
        "workload {}: {k} x {ms} ms {} trace(s) from seed {}, DMA-TA-PL({PL_GROUPS}) at CP-Limit {}%",
        args.workload,
        kind.workload().label(),
        args.seed,
        CP_LIMIT * 100.0
    )];

    // Set-up runs SETUP_REPS times: once before the timed loop and the
    // rest after it, so the median samples the host at different times.
    // Every repetition must calibrate identically.
    let set_up_once = |log: &mut SpanLog| {
        let mut rec = Recorder(args.trace.then_some(log));
        set_up(kind, &config, duration, k, args.seed, &mut rec)
    };
    let mut times = SetupTimes::default();
    let first = set_up_once(&mut log)?;
    times.record(&first, &mut guard, &mut errors);
    let inputs = first.inputs;

    // The timed loop: one untraced pass over every trace (the counts and
    // the energy saving come from it), then more until the time is up.
    // With --trace 1 each untraced operation after the first pass is
    // followed by a traced one on the same input; the ledger compares
    // those pairs, so both sides see the same trace and the same host.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut op_secs = Vec::new();
    let mut secs_by_trace: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut requests_by_trace = vec![0u64; k];
    let mut paired_ns_per_req = Vec::new();
    let mut traced_ops: Vec<(usize, u64)> = Vec::new();
    let mut probes: Vec<(usize, u64)> = Vec::new();
    let mut counts = Counts::default();
    let start = Instant::now();
    let mut n = 0usize;
    loop {
        let enough = secs_by_trace.iter().all(|s| s.len() >= MIN_REPS)
            && (!args.trace || traced_ops.len() >= MIN_REPS);
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let idx = n % k;
        let input = &inputs[idx];
        let op = run_op(kind, &config, input, &mut Recorder(None));
        attempted += 1;
        let r = &op.result;
        let verdict = check(kind, &config, input, &op).and(guard.check(idx, "op", fingerprint(r)));
        if let Err(e) = verdict {
            failed += 1;
            errors.push(format!("op {n} (trace {idx}): {e}"));
        }
        op_secs.push(op.secs);
        secs_by_trace[idx].push(op.secs);
        requests_by_trace[idx] = r.dma_requests;
        let paired = args.trace && n >= k;
        if paired {
            paired_ns_per_req.push(op.secs * 1e9 / r.dma_requests.max(1) as f64);
        }
        if n < k {
            counts.add(&op, &input.baseline, t_ref);
        }
        // An observed result holds its whole event stream; keep one alive.
        drop(op);

        if paired {
            let op = run_op(kind, &config, input, &mut Recorder(Some(&mut log)));
            attempted += 1;
            let verdict = check(kind, &config, input, &op).and(guard.check(
                idx,
                "op",
                fingerprint(&op.result),
            ));
            if let Err(e) = verdict {
                failed += 1;
                errors.push(format!("traced op {n} (trace {idx}): {e}"));
            }
            let root = op.root.expect("traced op has a root span");
            traced_ops.push((root, op.result.dma_requests));
            drop(op);
            if traced_ops.len() <= MIN_REPS {
                // Probes outside the operation tree, on the same input: a
                // run with the engine's phase timers armed (the phase
                // split), and on `observed` the run with neither consumer
                // and with each alone (the consumers' costs).
                let mut rec = Recorder(Some(&mut log));
                let mut sims = vec![(
                    "engine.profiled",
                    scheme_sim(&config, input.mu, false, true),
                )];
                if kind == Kind::Observed {
                    let plain = || scheme_sim(&config, input.mu, false, false);
                    sims.extend([
                        ("engine.run", plain()),
                        (
                            "obs.metrics_run",
                            plain().with_observability(EVENT_CAPACITY),
                        ),
                        ("obs.tracer_run", plain().with_tracing(TRACE_CAPACITY)),
                    ]);
                }
                for (name, sim) in sims {
                    let (r, span) = run_engine(&sim, &input.trace, name, None, &mut rec);
                    if let Err(e) = guard.check(idx, name, fingerprint(&r)) {
                        errors.push(e);
                    }
                    probes.push((span.expect("recording"), r.dma_requests));
                }
            }
        }
        n += 1;
    }

    let trace_events: usize = inputs.iter().map(|i| i.trace.len()).sum();
    drop(inputs);
    for _ in 1..SETUP_REPS {
        let again = set_up_once(&mut log)?;
        times.record(&again, &mut guard, &mut errors);
    }
    let setup_s = median(&times.secs);
    let setup_range = range_share(&times.secs);
    report.push(format!(
        "set-up: median {setup_s:.4} s over {SETUP_REPS}, one before the timed loop and the rest after ({:?} s), range {:.1}%",
        times.secs,
        setup_range * 100.0
    ));

    let mut values = Values::new();
    let req_per_s = pooled_rate(&requests_by_trace, &secs_by_trace);
    values.insert("req_per_s", req_per_s);
    values.insert("setup_s", setup_s);
    let strict_misses = counts.strict_misses;
    counts.into_values(&mut values);
    let per_trace: Vec<usize> = secs_by_trace.iter().map(Vec::len).collect();
    let within = median_iqr_share(&secs_by_trace).map(|s| s * 100.0);
    report.push(format!(
        "req/s {req_per_s:.0}: one pass over the {k} trace(s) at each trace's trimmed-mean op time, from {per_trace:?} untraced ops per trace; op time IQR within a trace {} of its median (median over traces)",
        within.map_or("undefined (fewer than 2 ops per trace)".to_string(), |w| format!("{w:.1}%")),
    ));
    report.push(match tail_percentile(&op_secs) {
        Some((p, v)) => format!(
            "op time: median {:.4} s, p{p} {v:.4} s (n = {})",
            median(&op_secs),
            op_secs.len()
        ),
        None => format!(
            "op time: median {:.4} s (n = {}; too few for a tail percentile)",
            median(&op_secs),
            op_secs.len()
        ),
    });
    report.push(format!(
        "energy saving vs baseline over {k} trace(s): {:.4}%; {strict_misses} of {k} scheme runs over the strict (1 + mu) * T bound, all within the soft bound",
        values["energy_saving_pct"]
    ));

    // Per-layer numbers.
    values.insert("trace.gen_s", median(&times.gen));
    values.insert("engine.baseline_s", median(&times.baseline));
    values.insert("trace.events", trace_events as f64);
    if let Some(w) = within {
        values.insert("spread.op_iqr_pct", w);
    }
    values.insert("spread.setup_range_pct", setup_range * 100.0);
    if args.trace {
        let all: Vec<(usize, u64)> = traced_ops.iter().chain(&probes).copied().collect();
        let engine_ns = median_ns_per_req(&log, &all, "engine.run");
        let profiled_ns = median_ns_per_req(&log, &all, "engine.profiled");
        values.insert("engine.run_s", median_duration_s(&log, "engine.run"));
        values.insert("engine.ns_per_req", engine_ns);
        values.insert(
            "ledger.profiler_overhead_pct",
            (profiled_ns / engine_ns - 1.0) * 100.0,
        );
        for (metric, span) in PHASE_METRICS {
            values.insert(metric, median_ns_per_req(&log, &all, span));
        }
        if kind == Kind::Observed {
            values.insert(
                "obs.metrics_run_s",
                median_duration_s(&log, "obs.metrics_run"),
            );
            values.insert(
                "obs.tracer_run_s",
                median_duration_s(&log, "obs.tracer_run"),
            );
            values.insert("obs.export_s", median_duration_s(&log, "obs.export"));
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
