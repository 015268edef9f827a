//! In-memory spans recorded around the calls the benchmark makes into
//! each layer. Nothing inside the program is instrumented: a span covers
//! one public call (or a loop of them) as seen from the benchmark.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Cell id of spans that belong to no cell (the serial set-up phase).
pub const NO_CELL: u32 = u32::MAX;
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub worker: u32,
    pub cell: u32,
    /// Index of the enclosing span in the same worker's log.
    parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single worker's span log. Not `Sync`: each worker thread owns one
/// and hands its spans back when it ends.
pub struct SpanLog {
    origin: Instant,
    worker: u32,
    inner: RefCell<(Vec<Span>, Vec<u32>)>,
}

impl SpanLog {
    pub fn new(origin: Instant, worker: u32) -> Self {
        Self {
            origin,
            worker,
            inner: RefCell::new((Vec::new(), Vec::new())),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f`
    /// become its children.
    pub fn span<T>(&self, name: &'static str, cell: u32, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut guard = self.inner.borrow_mut();
            let (spans, stack) = &mut *guard;
            let index = spans.len() as u32;
            spans.push(Span {
                name,
                worker: self.worker,
                cell,
                parent: stack.last().copied().unwrap_or(NO_PARENT),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            stack.push(index);
            index
        };
        let out = f();
        let end = self.now_ns();
        let mut guard = self.inner.borrow_mut();
        let (spans, stack) = &mut *guard;
        stack.pop();
        spans[index as usize].end_ns = end;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().0
    }
}

/// Inclusive and self time per span name, in nanoseconds.
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub total_ns: BTreeMap<&'static str, u64>,
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl LayerTimes {
    /// Self time of a span is its duration minus the durations of its
    /// direct children. `logs` holds one span list per worker.
    pub fn from_logs(logs: &[Vec<Span>]) -> Self {
        let mut times = LayerTimes::default();
        for spans in logs {
            let mut child_ns = vec![0u64; spans.len()];
            for span in spans {
                if span.parent != NO_PARENT {
                    child_ns[span.parent as usize] += span.dur_ns();
                }
            }
            for (span, children) in spans.iter().zip(child_ns) {
                *times.total_ns.entry(span.name).or_default() += span.dur_ns();
                *times.self_ns.entry(span.name).or_default() +=
                    span.dur_ns().saturating_sub(children);
            }
        }
        times
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Summed self time of every layer span, i.e. everything except the
    /// per-cell root spans, in seconds.
    pub fn layer_self_s(&self) -> f64 {
        self.self_ns
            .iter()
            .filter(|(name, _)| **name != CELL)
            .map(|(_, ns)| *ns)
            .sum::<u64>() as f64
            / 1e9
    }
}

/// Name of the root span of one cell; its self time is benchmark
/// bookkeeping, not a layer.
pub const CELL: &str = "cell";

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &Path, logs: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in logs.iter().flatten() {
        let cell = if span.cell == NO_CELL {
            "null".to_owned()
        } else {
            span.cell.to_string()
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"worker\":{},\"cell\":{},\"start_ns\":{},\"end_ns\":{}}}",
            span.name, span.worker, cell, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let log = SpanLog::new(Instant::now(), 0);
        log.span(CELL, 0, || {
            log.span("outer", 0, || {
                log.span("inner", 0, || {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                })
            })
        });
        let times = LayerTimes::from_logs(&[log.into_spans()]);
        assert!(times.total_ns["inner"] >= 5_000_000);
        assert!(times.self_ns["outer"] < times.total_ns["inner"]);
        assert_eq!(
            times.total_ns["outer"],
            times.self_ns["outer"] + times.total_ns["inner"]
        );
    }
}
