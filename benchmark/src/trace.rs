//! Spans recorded by the benchmark around its calls into the program: kept
//! in a preallocated buffer while a traced run measures, analysed and
//! written out when it ends.

use std::io::Write;
use std::sync::Mutex;

/// `parent` of a span nothing else caused.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span was recorded at, e.g. `"backend"`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in recording order) of the span that caused this one.
    pub parent: u32,
    /// What the spans of one request share: the window's id bits, or the
    /// burst's sequence number.
    pub request: u64,
}

/// A fixed-capacity, thread-safe span buffer. Recording never allocates;
/// spans beyond the capacity are counted and dropped.
pub struct SpanLog {
    inner: Mutex<(Vec<Span>, u64)>,
}

impl SpanLog {
    pub fn new(capacity: usize) -> Self {
        SpanLog {
            inner: Mutex::new((Vec::with_capacity(capacity), 0)),
        }
    }

    /// Records one span and returns its index, for use as a `parent`.
    pub fn record(&self, span: Span) -> u32 {
        let mut guard = self.inner.lock().expect("a recording thread panicked");
        let (spans, dropped) = &mut *guard;
        if spans.len() == spans.capacity() {
            *dropped += 1;
            return NO_PARENT;
        }
        spans.push(span);
        (spans.len() - 1) as u32
    }

    /// Records a parent span and, caused by it, one child per request id
    /// covering the same interval (a batch and the windows that rode in it).
    pub fn record_batch(&self, parent: Span, child: &'static str, ids: impl Iterator<Item = u64>) {
        let at = self.record(parent);
        for request in ids {
            self.record(Span {
                name: child,
                parent: at,
                request,
                ..parent
            });
        }
    }

    /// Takes the recorded spans and the number dropped for lack of room.
    pub fn take(&self) -> (Vec<Span>, u64) {
        let mut guard = self.inner.lock().expect("a recording thread panicked");
        let dropped = std::mem::take(&mut guard.1);
        (std::mem::take(&mut guard.0), dropped)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent as usize) {
            let p = &spans[s.parent as usize];
            let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if start < end {
                list.push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, list)| {
            list.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in list.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Writes the spans as one JSON array, a span per line.
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = match s.parent {
            NO_PARENT => "null".to_string(),
            p => p.to_string(),
        };
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(0, 100, NO_PARENT), // 0: children cover 10..40 and 30..60 → 50
            span(10, 40, 0),         // 1: leaf
            span(30, 60, 0),         // 2: child 50..70 clipped to 50..60
            span(50, 70, 2),         // 3: leaf, sticks out of its parent
            span(90, 120, 0),        // 4: clipped to 90..100 inside 0
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30, 20, 20, 30]);
    }

    #[test]
    fn identical_children_of_a_batch_count_once() {
        let log = SpanLog::new(8);
        log.record_batch(span(0, 50, NO_PARENT), "w", [7, 8, 9].into_iter());
        let (spans, dropped) = log.take();
        assert_eq!((spans.len(), dropped), (4, 0));
        assert!(spans[1..].iter().all(|s| s.parent == 0 && s.name == "w"));
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn a_full_log_drops_and_counts() {
        let log = SpanLog::new(1);
        assert_eq!(log.record(span(0, 1, NO_PARENT)), 0);
        assert_eq!(log.record(span(1, 2, NO_PARENT)), NO_PARENT);
        assert_eq!(log.take().1, 1);
    }
}
