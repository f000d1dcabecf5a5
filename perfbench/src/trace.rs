//! In-memory spans recorded around calls into the program's public API:
//! name, start, end, parent and the trace (batch or request) they belong
//! to. Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A recorded interval; times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One thread's span log. A disabled log records nothing and costs one
/// branch per call.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Handle of an open span (a placeholder when the log is disabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Open(usize);

impl SpanLog {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        SpanLog {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; its id is returned by [`SpanLog::id`] for children.
    pub fn open(&mut self, name: &'static str, parent: Option<Open>, trace: u64) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let parent = parent.map_or(0, |p| self.id(p));
        let start = self.now();
        self.spans.push(Span {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            trace,
            name,
            start,
            end: start,
        });
        Open(self.spans.len() - 1)
    }

    pub fn close(&mut self, open: Open) {
        if self.enabled {
            let end = self.now();
            self.spans[open.0].end = end;
        }
    }

    pub fn id(&self, open: Open) -> u64 {
        self.spans.get(open.0).map_or(0, |s| s.id)
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<Open>,
        trace: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, parent, trace);
        let out = f();
        self.close(open);
        out
    }

    /// An empty log with the same epoch and setting.
    pub fn empty_like(&self) -> SpanLog {
        SpanLog::new(self.epoch, self.enabled)
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span durations in nanoseconds, grouped by name.
    pub fn by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for span in &self.spans {
            out.entry(span.name).or_default().push(span.ns());
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"trace":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.trace, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut log = SpanLog::new(Instant::now(), true);
        let outer = log.open("outer", None, 7);
        log.time("inner", Some(outer), 7, || std::hint::black_box(1 + 1));
        log.close(outer);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].ns() >= spans[1].ns());
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), false);
        let open = log.open("x", None, 0);
        log.close(open);
        assert!(log.spans().is_empty());
        assert_eq!(log.id(open), 0);
    }
}
