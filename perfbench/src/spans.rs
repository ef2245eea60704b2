//! The benchmark's own span recorder (traced runs only).
//!
//! Spans are recorded around calls into each layer's public functions,
//! from the benchmark's side of the call. Each caller thread buffers its
//! spans locally and hands them over once, when it finishes, so the
//! recorder adds no shared state to the measured path. The spans stay in
//! memory until the run ends and are then written out as TSV.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use uuidp_core::clock;

/// Spans kept per name; later ones are counted but dropped, so a long
/// traced run cannot grow without bound. The cap is per name, so one
/// layer's spans never crowd out another's, and a run that drops any
/// span fails rather than report a truncated sample.
const MAX_SPANS_PER_NAME: usize = 1 << 20;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within the run (never 0).
    pub id: u64,
    /// The enclosing span, or 0 for a root.
    pub parent: u64,
    /// The layer call, e.g. `client.lease`.
    pub name: &'static str,
    /// Index of the request in the workload sequence (0 for roots).
    pub req: u64,
    /// [`clock::monotonic_ns`] at entry.
    pub start_ns: u64,
    /// [`clock::monotonic_ns`] at exit.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The run-wide span store.
#[derive(Debug, Default)]
pub struct Tracer {
    next_id: AtomicU64,
    spans: Mutex<Store>,
    dropped: AtomicU64,
}

/// The kept spans and how many each name has.
#[derive(Debug, Default)]
struct Store {
    spans: Vec<Span>,
    per_name: HashMap<&'static str, usize>,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Opens a root span for one probe or loop; close it with
    /// [`Tracer::close`].
    pub fn open(&self, name: &'static str) -> Span {
        Span {
            id: self.id(),
            parent: 0,
            name,
            req: 0,
            start_ns: clock::monotonic_ns(),
            end_ns: 0,
        }
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&self, mut span: Span) {
        span.end_ns = clock::monotonic_ns();
        self.absorb(vec![span]);
    }

    /// A thread-local buffer whose spans are children of `parent`.
    pub fn local(&self, parent: u64) -> LocalSpans<'_> {
        LocalSpans {
            tracer: self,
            parent,
            spans: Vec::new(),
        }
    }

    /// Appends `spans`, keeping at most `MAX_SPANS_PER_NAME` of each
    /// name. Never panics: it also runs from `LocalSpans::drop`.
    fn absorb(&self, spans: Vec<Span>) {
        self.absorb_capped(spans, MAX_SPANS_PER_NAME);
    }

    fn absorb_capped(&self, spans: Vec<Span>, cap: usize) {
        let Ok(mut store) = self.spans.lock() else {
            return;
        };
        let mut dropped = 0;
        for span in spans {
            let n = store.per_name.entry(span.name).or_insert(0);
            if *n < cap {
                *n += 1;
                store.spans.push(span);
            } else {
                dropped += 1;
            }
        }
        self.dropped.fetch_add(dropped, Ordering::Relaxed);
    }

    /// Durations of every kept span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let store = self.spans.lock().expect("span store lock");
        store
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Spans kept and spans dropped.
    pub fn counts(&self) -> (usize, u64) {
        let kept = self.spans.lock().expect("span store lock").spans.len();
        (kept, self.dropped.load(Ordering::Relaxed))
    }

    /// Writes every kept span as TSV under a `#`-prefixed header line.
    pub fn write_tsv(&self, path: &Path, header: &str) -> io::Result<()> {
        let all = self.spans.lock().expect("span store lock").spans.clone();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {header}")?;
        writeln!(out, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
        for s in all.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A caller thread's span buffer; hands its spans to the tracer on drop.
pub struct LocalSpans<'a> {
    tracer: &'a Tracer,
    parent: u64,
    spans: Vec<Span>,
}

impl LocalSpans<'_> {
    /// Records one finished child span.
    pub fn record(&mut self, name: &'static str, req: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            id: self.tracer.id(),
            parent: self.parent,
            name,
            req,
            start_ns,
            end_ns,
        });
    }
}

impl Drop for LocalSpans<'_> {
    fn drop(&mut self) {
        self.tracer.absorb(std::mem::take(&mut self.spans));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_spans_land_under_their_parent() {
        let t = Tracer::new();
        let root = t.open("probe");
        {
            let mut local = t.local(root.id);
            local.record("layer.call", 3, 10, 25);
            local.record("layer.call", 4, 30, 31);
        }
        t.close(root);
        assert_eq!(t.durations("layer.call"), vec![15, 1]);
        assert_eq!(t.counts(), (3, 0));
    }

    #[test]
    fn the_cap_is_per_name() {
        let t = Tracer::new();
        let span = |name| Span {
            id: t.id(),
            parent: 0,
            name,
            req: 0,
            start_ns: 0,
            end_ns: 1,
        };
        t.absorb_capped((0..5).map(|_| span("busy")).collect(), 3);
        t.absorb_capped(vec![span("late")], 3);
        assert_eq!(t.durations("busy").len(), 3);
        assert_eq!(t.durations("late").len(), 1);
        assert_eq!(t.counts(), (4, 2));
    }
}
