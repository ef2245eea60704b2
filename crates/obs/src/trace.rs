//! Corr-id trace spans: a per-thread ring-buffer recorder for lease
//! lifecycle events, keyed by the v2 wire correlation id.
//!
//! Every layer stamps the stages it owns — client send, netchaos proxy
//! connection, server demux, worker persist/emit, reply sent, audit
//! record, client receive — and [`TraceRecorder::timeline`] reassembles
//! one correlation id's events into a printable causal timeline.
//! Recording is a shard lock (per-thread, so uncontended in steady
//! state) and a ring write; details are `&'static str` so the hot path
//! never allocates. Timestamps are **caller-supplied** (`at_ns`,
//! typically `uuidp_core::clock::monotonic_ns()`): the recorder itself
//! never reads a clock, which keeps this crate dependency-free and
//! lets tests pin exact timelines.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A lease lifecycle stage, in causal order along the happy path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Client encoded and wrote the request frame.
    ClientSend,
    /// A netchaos proxy accepted the carrying connection.
    ProxyConn,
    /// A server reactor decoded the frame and began serving it.
    ServerDemux,
    /// The serving thread persisted the write-ahead record (pre-reply
    /// durability).
    WorkerPersist,
    /// The serving thread emitted the lease arcs.
    WorkerEmit,
    /// The server queued the reply frame on its connection.
    ReplySent,
    /// An audit thread recorded the emission, which the serving thread
    /// tees to it after queueing the reply.
    AuditRecord,
    /// Client matched the reply to its pending request.
    ClientRecv,
    /// A burn-rate alert rule changed state (corr 0, run-level) —
    /// stamped so flight-recorder dumps carry alert history.
    Alert,
}

impl Stage {
    /// Stable wire/log name for the stage.
    pub fn name(self) -> &'static str {
        match self {
            Stage::ClientSend => "client-send",
            Stage::ProxyConn => "proxy-conn",
            Stage::ServerDemux => "server-demux",
            Stage::WorkerPersist => "worker-persist",
            Stage::WorkerEmit => "worker-emit",
            Stage::ReplySent => "reply-sent",
            Stage::AuditRecord => "audit-record",
            Stage::ClientRecv => "client-recv",
            Stage::Alert => "alert",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global record order (monotone across all shards).
    pub seq: u64,
    /// v2 correlation id (0 for connection-level events).
    pub corr: u64,
    /// Tenant the event concerns (0 when not applicable).
    pub tenant: u64,
    /// Lifecycle stage.
    pub stage: Stage,
    /// Free-form static detail (`"lease"`, `"halt"`, …).
    pub detail: &'static str,
    /// Caller-supplied monotonic timestamp in nanoseconds.
    pub at_ns: u64,
}

/// Fixed-capacity event ring (one per shard).
#[derive(Debug, Default)]
struct Ring {
    events: Vec<TraceEvent>,
    head: usize,
}

impl Ring {
    fn push(&mut self, capacity: usize, ev: TraceEvent) {
        if self.events.len() < capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % capacity;
        }
    }
}

/// The per-thread ring-buffer recorder.
///
/// Shards are selected by hashing the recording thread's id, so
/// steady-state recording never contends. A `sample_mask` thins
/// recording by correlation id: corr ids with any masked bit set are
/// skipped (mask 0 records everything), keeping span assembly cheap on
/// hot runs while every sampled corr id gets its *complete* span —
/// sampling whole spans, not random events.
#[derive(Debug)]
pub struct TraceRecorder {
    shards: Vec<Mutex<Ring>>,
    per_shard: usize,
    seq: AtomicU64,
    sample_mask: u64,
}

impl TraceRecorder {
    /// A recorder holding up to ~`capacity` events across 8 shards,
    /// recording every correlation id.
    pub fn new(capacity: usize) -> TraceRecorder {
        TraceRecorder::with_sampling(capacity, 0)
    }

    /// [`TraceRecorder::new`] with span sampling: corr ids where
    /// `corr & sample_mask != 0` are not recorded. Connection-level
    /// events (corr 0) always record.
    pub fn with_sampling(capacity: usize, sample_mask: u64) -> TraceRecorder {
        let shards = 8.min(capacity.max(1));
        let per_shard = capacity.div_ceil(shards).max(1);
        TraceRecorder {
            shards: (0..shards).map(|_| Mutex::new(Ring::default())).collect(),
            per_shard,
            seq: AtomicU64::new(0),
            sample_mask,
        }
    }

    /// A disabled recorder: zero capacity, every record is a no-op.
    /// For measuring compiled-in-but-idle overhead.
    pub fn off() -> TraceRecorder {
        TraceRecorder {
            shards: Vec::new(),
            per_shard: 0,
            seq: AtomicU64::new(0),
            sample_mask: 0,
        }
    }

    /// Whether `corr` passes the sampling mask.
    pub fn sampled(&self, corr: u64) -> bool {
        !self.shards.is_empty() && corr & self.sample_mask == 0
    }

    /// Records one event (no-op when disabled or `corr` unsampled).
    pub fn record(&self, corr: u64, tenant: u64, stage: Stage, detail: &'static str, at_ns: u64) {
        if !self.sampled(corr) {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        // The recording thread's shard draw is a pure function of its
        // thread id — hash it once per thread, not once per event.
        thread_local! {
            static SHARD_DRAW: u64 = {
                let mut hasher = DefaultHasher::new();
                std::thread::current().id().hash(&mut hasher);
                hasher.finish()
            };
        }
        let shard = (SHARD_DRAW.with(|draw| *draw) % self.shards.len() as u64) as usize;
        let ev = TraceEvent {
            seq,
            corr,
            tenant,
            stage,
            detail,
            at_ns,
        };
        self.shards[shard]
            .lock()
            .expect("trace shard lock")
            .push(self.per_shard, ev);
    }

    /// Every retained event, in global `seq` order.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().expect("trace shard lock").events.clone())
            .collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    /// The last `n` retained events, in `seq` order.
    pub fn last_events(&self, n: usize) -> Vec<TraceEvent> {
        let mut all = self.events();
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }

    /// Assembles the retained span for one correlation id: its events
    /// in record order, rendered as a causal timeline. Empty string if
    /// nothing was retained for `corr`.
    pub fn timeline(&self, corr: u64) -> String {
        let events: Vec<TraceEvent> = self
            .events()
            .into_iter()
            .filter(|e| e.corr == corr)
            .collect();
        if events.is_empty() {
            return String::new();
        }
        let t0 = events.iter().map(|e| e.at_ns).min().unwrap_or(0);
        let mut out = format!("span corr={corr}\n");
        for e in &events {
            let _ = writeln!(
                out,
                "  +{:>9}ns {:<14} tenant={} {}",
                e.at_ns.saturating_sub(t0),
                e.stage.name(),
                e.tenant,
                e.detail,
            );
        }
        out
    }

    /// The correlation id of the most recent retained event with
    /// `corr != 0` — the natural focus for a crash-time flight dump.
    pub fn last_corr(&self) -> Option<u64> {
        self.events()
            .into_iter()
            .rev()
            .find(|e| e.corr != 0)
            .map(|e| e.corr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_keep_global_order_and_assemble_timelines() {
        let t = TraceRecorder::new(64);
        t.record(1, 7, Stage::ClientSend, "lease", 100);
        t.record(2, 8, Stage::ClientSend, "lease", 110);
        t.record(1, 7, Stage::ServerDemux, "lease", 200);
        t.record(1, 7, Stage::WorkerPersist, "wa", 300);
        t.record(1, 7, Stage::ReplySent, "lease", 400);
        let evs = t.events();
        assert_eq!(evs.len(), 5);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        let line = t.timeline(1);
        assert!(line.contains("span corr=1"), "{line}");
        assert!(line.contains("client-send"), "{line}");
        assert!(line.contains("worker-persist"), "{line}");
        assert!(line.contains("0ns client-send"), "{line}");
        assert!(line.contains("200ns worker-persist"), "{line}");
        assert!(!line.contains("tenant=8"), "{line}");
        assert_eq!(t.last_corr(), Some(1));
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        // One thread lands on one shard, which retains capacity/8
        // events — the tail of what was recorded.
        let t = TraceRecorder::new(64);
        for i in 0..1000u64 {
            t.record(i + 1, 0, Stage::ClientSend, "x", i);
        }
        let evs = t.events();
        assert!(evs.len() <= 64, "ring overflowed: {}", evs.len());
        assert!(!evs.is_empty());
        assert!(evs.iter().all(|e| e.seq >= 1000 - 64), "old events leaked");
        assert_eq!(t.last_events(3).len(), 3);
    }

    #[test]
    fn sampling_thins_by_corr_and_off_is_a_noop() {
        let t = TraceRecorder::with_sampling(64, 0b11);
        assert!(t.sampled(4) && t.sampled(0) && !t.sampled(5));
        t.record(4, 0, Stage::ClientSend, "kept", 1);
        t.record(5, 0, Stage::ClientSend, "thinned", 2);
        assert_eq!(t.events().len(), 1);
        let off = TraceRecorder::off();
        off.record(4, 0, Stage::ClientSend, "dropped", 1);
        assert!(off.events().is_empty());
        assert!(!off.sampled(0));
        assert_eq!(off.timeline(4), "");
    }
}
