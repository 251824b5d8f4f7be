//! In-memory span recording for the traced run, and the timing
//! [`ExecBackend`] wrapper that gives the replay span.
//!
//! Everything here sits in the benchmark: spans are taken around calls
//! into the layers' public functions, and the program itself is not
//! changed. Spans are kept in memory and written out once, at the end of
//! the run.

use std::cell::Cell;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tamp_runtime::{ExecBackend, ExecError, ExecJob, ExecOutcome};
use tamp_simulator::Placement;
use tamp_topology::Tree;

/// One timed interval of one request. `parent` is the index of the
/// enclosing span in the same log, if any.
#[derive(Clone, Debug)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// Spans of one client thread, with times relative to the run's epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Record `[start, end)` and return its index for children.
    pub fn push(
        &mut self,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            request,
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
        });
        self.spans.len() - 1
    }

    /// Merge another thread's log (same epoch), re-basing its parents.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Where spans are written: the build directory the benchmark runs
/// from (`CARGO_TARGET_DIR`, else `.bench_build`), so a run writes
/// nothing outside its checkout.
pub fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    dir.join("perfbench")
        .join(format!("spans-{workload}-seed{seed}.tsv"))
}

/// Write the spans as TSV: `id parent request name start_ns end_ns`.
pub fn write_spans(path: &Path, log: &SpanLog) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for (i, s) in log.spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.request,
            s.name,
            s.start.as_nanos(),
            s.end.as_nanos()
        );
    }
    std::fs::write(path, out)
}

/// What the timing wrapper saw of the latest `execute` on this thread.
#[derive(Clone, Copy, Debug)]
pub struct Replay {
    pub start: Instant,
    pub end: Instant,
    pub rounds: usize,
    pub supersteps: usize,
}

thread_local! {
    static LAST_REPLAY: Cell<Option<Replay>> = const { Cell::new(None) };
}

/// Take (and clear) the replay the calling thread last ran through a
/// [`TimedBackend`]. Backends execute on the caller's thread, so a
/// client reads back the replay of its own request.
pub fn take_replay() -> Option<Replay> {
    LAST_REPLAY.with(Cell::take)
}

/// An [`ExecBackend`] that forwards to the real backend and times the
/// call: the replay span of the traced run.
pub struct TimedBackend {
    inner: Arc<dyn ExecBackend + Send + Sync>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn ExecBackend + Send + Sync>) -> Self {
        TimedBackend { inner }
    }
}

impl ExecBackend for TimedBackend {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn execute(
        &self,
        tree: &Tree,
        placement: &Placement,
        job: &dyn ExecJob,
    ) -> Result<ExecOutcome, ExecError> {
        let start = Instant::now();
        let outcome = self.inner.execute(tree, placement, job);
        let end = Instant::now();
        if let Ok(o) = &outcome {
            LAST_REPLAY.with(|c| {
                c.set(Some(Replay {
                    start,
                    end,
                    rounds: o.rounds,
                    supersteps: o.supersteps,
                }))
            });
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        a.push(0, "serve", epoch, epoch, None);
        let mut b = SpanLog::new(epoch);
        let root = b.push(1, "serve", epoch, epoch, None);
        b.push(1, "plan", epoch, epoch, Some(root));
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[2].request, 1);
    }
}
