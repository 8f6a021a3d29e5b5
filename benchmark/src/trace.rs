//! Outside-in tracing: the harness wraps each call it makes into a layer
//! of the program in a span (name, start, end, parent span, request id),
//! keeps the spans in memory, and writes them out when the run ends.
//! Nothing here reaches inside the program — in-program spans are the
//! later obs-spine issue's job.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifies a span; `ROOT` means "no parent".
pub type SpanId = u64;
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// Spans of one request share this; 0 for work outside any request.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    // Relaxed everywhere: the flag and the id counter publish no other
    // data; the span list itself is behind the mutex.
    enabled: AtomicBool,
    next_id: AtomicU64,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            next_id: AtomicU64::new(1),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Runs `f`, always timing it, and records a span when tracing is on.
    /// `f` receives the span's id so calls it makes can name their parent.
    pub fn timed<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, Duration) {
        let id = if self.enabled() {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            ROOT
        };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if id != ROOT {
            self.push(id, name, parent, request, start, end);
        }
        (out, end - start)
    }

    /// Records a span whose endpoints were taken by the caller (an
    /// open-loop request is timed from its due time, not from a call).
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled() {
            return ROOT;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, name, parent, request, start, end);
        id
    }

    fn push(
        &self,
        id: SpanId,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a thread panicked while recording a span"),
        )
    }
}

/// Per span name: how many, their total duration, and their self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time is its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_time_ns(span: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = span.start_ns;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(span.end_ns);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    let mut none = Vec::new();
    for s in spans {
        let kids = children.get_mut(&s.id).unwrap_or(&mut none);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_time_ns(s, kids);
    }
    out
}

pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            span(1, ROOT, "request", 0, 100),
            span(2, 1, "parse", 10, 30),
            span(3, 1, "search", 25, 60), // overlaps parse by 5
            span(4, 1, "write", 90, 120), // runs past the parent: clipped
            span(5, 3, "q2", 30, 40),
        ];
        let t = totals_by_name(&spans);
        // Covered: [10,60) = 50 and [90,100) = 10.
        assert_eq!(t["request"].self_ns, 40);
        assert_eq!(t["request"].total_ns, 100);
        assert_eq!(t["search"].self_ns, 25);
        assert_eq!(t["parse"].self_ns, 20);
        assert_eq!(
            t["q2"],
            NameTotals {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let tracer = Tracer::new(false);
        let (v, d) = tracer.timed("x", ROOT, 0, |id| {
            assert_eq!(id, ROOT);
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert!(d >= Duration::from_millis(2));
        assert!(tracer.take_spans().is_empty());

        tracer.set_enabled(true);
        let ((), _) = tracer.timed("outer", ROOT, 9, |outer| {
            tracer.timed("inner", outer, 9, |_| ());
        });
        let spans = tracer.take_spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!((inner.request, outer.request), (9, 9));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
