//! In-memory span log for the traced run.
//!
//! The benchmark records one span around each call it makes into a layer
//! of the simulator (plus synthetic child spans for the engine's phase
//! timers). Spans stay in memory while the run measures and are written
//! out once at the end, so recording costs two clock reads per span.

use std::time::Instant;

use simcore::obs::JsonObject;

/// One recorded interval, in nanoseconds since the log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `engine.run`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin (equal to start while open).
    pub end_ns: u64,
}

/// An append-only span log.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now and returns its index.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.add(name, parent, now, now)
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Records an already-measured interval (synthetic children such as
    /// the engine's phase totals).
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// All spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` in ns.
    pub fn duration_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns)
    }

    /// Each span's self time: its duration minus the part of it that its
    /// children cover (overlapping children are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                let (a, b) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
                if a < b {
                    children[p].push((a, b));
                }
            }
        }
        children
            .iter_mut()
            .enumerate()
            .map(|(i, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = 0;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                self.duration_ns(i).saturating_sub(covered)
            })
            .collect()
    }

    /// The log as Chrome trace-event JSON (complete `X` events on one
    /// track; open it in Perfetto or `chrome://tracing`).
    pub fn to_chrome_json(&self) -> String {
        let self_ns = self.self_times_ns();
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = JsonObject::new();
                args.field_u64("id", i as u64);
                if let Some(p) = s.parent {
                    args.field_u64("parent", p as u64);
                }
                args.field_u64("self_ns", self_ns[i]);
                let mut ev = JsonObject::new();
                ev.field_str("name", s.name)
                    .field_str("ph", "X")
                    .field_f64("ts", s.start_ns as f64 / 1e3)
                    .field_f64("dur", self.duration_ns(i) as f64 / 1e3)
                    .field_u64("pid", 1)
                    .field_u64("tid", 1)
                    .field_raw("args", &args.finish());
                ev.finish()
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}\n", events.join(",\n"))
    }
}

/// Span recording for one operation: a no-op on untraced operations, so
/// the same code path serves both.
pub struct Recorder<'a>(pub Option<&'a mut SpanLog>);

impl Recorder<'_> {
    /// Opens a span when recording.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        self.0.as_mut().map(|log| log.begin(name, parent))
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&mut self, id: Option<usize>) {
        if let (Some(log), Some(id)) = (self.0.as_mut(), id) {
            log.end(id);
        }
    }

    /// Lays `(name, ns)` totals out as consecutive child spans from the
    /// start of `parent` (the engine's phase timers give totals, not
    /// intervals).
    pub fn children(&mut self, parent: Option<usize>, parts: &[(&'static str, u64)]) {
        if let (Some(log), Some(p)) = (self.0.as_mut(), parent) {
            let mut at = log.spans()[p].start_ns;
            for &(name, ns) in parts {
                log.add(name, Some(p), at, at + ns);
                at += ns;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root [0, 100) with children [10, 40) and [30, 60) (overlapping)
    /// and [90, 120) (clipped to the root); the first child has a
    /// grandchild [15, 25).
    fn synthetic() -> SpanLog {
        let mut log = SpanLog::default();
        let root = log.add("op", None, 0, 100);
        let a = log.add("a", Some(root), 10, 40);
        log.add("b", Some(root), 30, 60);
        log.add("c", Some(root), 90, 120);
        log.add("a.child", Some(a), 15, 25);
        log
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let self_ns = synthetic().self_times_ns();
        // root: 100 - |[10,60) ∪ [90,100)| = 100 - 60
        assert_eq!(self_ns, vec![40, 20, 30, 30, 10]);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root_when_children_nest() {
        let mut log = SpanLog::default();
        let root = log.add("op", None, 0, 1_000);
        let run = log.add("engine.run", Some(root), 100, 900);
        log.add("phase.dispatch", Some(run), 100, 600);
        log.add("phase.policy", Some(run), 600, 700);
        log.add("check", Some(root), 900, 950);
        let total: u64 = log.self_times_ns().iter().sum();
        assert_eq!(total, log.duration_ns(root));
    }

    #[test]
    fn begin_end_records_a_nonnegative_interval() {
        let mut log = SpanLog::default();
        let id = log.begin("x", None);
        std::hint::black_box((0..1000).sum::<u64>());
        log.end(id);
        let s = &log.spans()[id];
        assert!(s.end_ns >= s.start_ns);
    }

    #[test]
    fn recorder_is_inert_without_a_log() {
        let mut rec = Recorder(None);
        let id = rec.begin("op", None);
        rec.children(id, &[("phase.dispatch", 5)]);
        rec.end(id);
        assert_eq!(id, None);
    }

    #[test]
    fn recorder_lays_phase_totals_inside_the_parent() {
        let mut log = SpanLog::default();
        let mut rec = Recorder(Some(&mut log));
        let run = rec.begin("engine.run", None);
        rec.children(run, &[("phase.dispatch", 7), ("phase.policy", 3)]);
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].start_ns - spans[1].start_ns, 7);
        assert_eq!(spans[2].parent, Some(0));
    }

    #[test]
    fn chrome_export_parses() {
        let json = synthetic().to_chrome_json();
        let v = simcore::obs::json::parse(&json).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("array");
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].get("name").and_then(|n| n.as_str()), Some("op"));
    }
}
