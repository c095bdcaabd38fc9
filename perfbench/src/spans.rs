//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. A span holds its name, start, end, parent span, and the
//! workload's request or instance id. Spans stay in memory and are written
//! out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    id: u64,
    parent: Option<SpanId>,
    start: Duration,
    end: Option<Duration>,
}

/// A thread-safe in-memory span log. A disabled recorder records nothing
/// and costs one branch per call, so timed runs carry no tracing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Recorder {
        Recorder { enabled, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // Every update pushes or closes one span, so the log stays
        // consistent even if a recording thread panicked.
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span starting now.
    pub fn open(&self, name: &'static str, id: u64, parent: Option<SpanId>) -> Option<SpanId> {
        self.open_at(name, id, parent, Instant::now())
    }

    /// Opens a span that started at `start` (e.g. a request's due time).
    pub fn open_at(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        start: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start = start.saturating_duration_since(self.epoch);
        let mut spans = self.lock();
        spans.push(Span { name, id, parent, start, end: None });
        Some(spans.len() - 1)
    }

    /// Closes a span now.
    pub fn close(&self, span: Option<SpanId>) {
        if let Some(i) = span {
            let end = self.epoch.elapsed();
            if let Some(s) = self.lock().get_mut(i) {
                s.end = Some(end);
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, id, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Per-name self time (span duration minus the part of it covered by
    /// its children), total duration, and count, sorted by self time; plus
    /// the wall time of the log and the time covered by any span other
    /// than the roots.
    pub fn self_times(&self) -> SelfTimes {
        let spans = self.lock().clone();
        let end_of = |s: &Span| s.end.unwrap_or(s.start);
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                if let Some(list) = children.get_mut(p) {
                    list.push((s.start, end_of(s)));
                }
            }
        }
        let mut rows: Vec<SelfTimeRow> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let total = end_of(s).saturating_sub(s.start);
            let covered = union_within(&children[i], s.start, end_of(s));
            let row = match rows.iter_mut().find(|r| r.name == s.name) {
                Some(row) => row,
                None => {
                    rows.push(SelfTimeRow { name: s.name, ..SelfTimeRow::default() });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.total += total;
            row.self_time += total.saturating_sub(covered);
        }
        rows.sort_by_key(|r| std::cmp::Reverse(r.self_time));
        let roots: Vec<&Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
        let wall = roots
            .iter()
            .map(|s| end_of(s))
            .max()
            .unwrap_or_default()
            .saturating_sub(roots.iter().map(|s| s.start).min().unwrap_or_default());
        let non_root: Vec<(Duration, Duration)> =
            spans.iter().filter(|s| s.parent.is_some()).map(|s| (s.start, end_of(s))).collect();
        let covered = union_within(&non_root, Duration::ZERO, Duration::MAX);
        SelfTimes { rows, wall, covered }
    }

    /// The span log as JSON lines (`name`, `id`, `parent`, `start_us`,
    /// `end_us`), one span per line in open order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let end = s.end.map_or("null".to_owned(), |e| format!("{:.3}", e.as_secs_f64() * 1e6));
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_us\":{:.3},\
                 \"end_us\":{end}}}",
                s.name,
                s.id,
                s.start.as_secs_f64() * 1e6
            );
        }
        out
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, Default)]
pub struct SelfTimeRow {
    /// Span name (the layer call it wraps).
    pub name: &'static str,
    /// Spans with this name.
    pub count: u64,
    /// Summed span durations.
    pub total: Duration,
    /// Summed self times.
    pub self_time: Duration,
}

/// Self-time attribution of a span log.
#[derive(Debug, Clone)]
pub struct SelfTimes {
    /// Per-name rows, largest self time first.
    pub rows: Vec<SelfTimeRow>,
    /// First root start to last root end.
    pub wall: Duration,
    /// Wall time covered by at least one non-root span.
    pub covered: Duration,
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &[(Duration, Duration)], lo: Duration, hi: Duration) -> Duration {
    let mut v: Vec<(Duration, Duration)> =
        intervals.iter().map(|&(s, e)| (s.max(lo), e.min(hi))).filter(|(s, e)| e > s).collect();
    v.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Duration, Duration)> = None;
    for (s, e) in v {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        let ms = Duration::from_millis;
        let v = [(ms(0), ms(10)), (ms(5), ms(15)), (ms(20), ms(30))];
        assert_eq!(union_within(&v, ms(0), ms(100)), ms(25));
        assert_eq!(union_within(&v, ms(8), ms(22)), ms(9));
    }

    #[test]
    fn self_time_subtracts_children() {
        let rec = Recorder::new(true);
        let root = rec.open("root", 0, None);
        rec.time("child", 1, root, || std::thread::sleep(Duration::from_millis(20)));
        rec.close(root);
        let times = rec.self_times();
        let child = times.rows.iter().find(|r| r.name == "child").expect("child row");
        let root_row = times.rows.iter().find(|r| r.name == "root").expect("root row");
        assert!(child.self_time >= Duration::from_millis(20));
        assert!(root_row.self_time < root_row.total);
        assert!(times.covered <= times.wall);
        assert!(!Recorder::new(false).enabled());
    }
}
