//! # uuidp-obs — the observability core
//!
//! A zero-dependency (std-only) telemetry subsystem shared by every
//! layer of the uuidp stack: client retries, netchaos injections,
//! server demux, worker persistence, audit recording, fleet routing.
//! Three pieces, one discipline:
//!
//! * **[`Registry`]** — named metric handles (monotonic [`Counter`]s,
//!   [`Gauge`]s, streaming [`AtomicHistogram`]s). Handles are
//!   `Arc`-shared atomics: registration takes a lock once, the hot
//!   path never does. Everything is constant-memory and merges with
//!   **interleaving-invariant totals** — the same commutative-add
//!   discipline as `LeaseAudit`, so same-seed twin runs produce
//!   bit-identical counter values no matter how threads interleave.
//! * **[`TraceRecorder`]** — per-thread ring buffers of
//!   [`TraceEvent`]s keyed by the v2 wire correlation id. Sampled
//!   spans assemble into a printable causal timeline
//!   (client send → proxy → demux → persist → emit → audit → reply).
//! * **[`flight::dump_flight`]** — the crash flight recorder: on a
//!   twin-validation failure, audit duplicate, or node crash, the
//!   last-N events plus a registry snapshot land in the node's state
//!   dir as `flight-<reason>-<n>.log` for postmortems.
//!
//! PR 9 grows the snapshot layer into a monitoring system:
//!
//! * **[`TimeSeries`]** — a constant-memory ring of [`Window`]s, one
//!   per caller-supplied window index, fed from registry snapshots:
//!   per-window counter deltas (with counter-reset detection, so
//!   restarts dip rather than go negative), gauge last-values, and
//!   delta histograms, all merging order-invariantly into cluster
//!   series.
//! * **[`BurnRateAlerts`]** — deterministic multi-window burn-rate
//!   evaluation ([`AlertRule`] fast/slow lookback pairs) whose
//!   [`AlertTransition`]s export as a metric family and stamp into
//!   the trace ring ([`Stage::Alert`]).
//! * **[`TailSampler`]** — bounded worst-K lease sampling whose
//!   retained corr ids get full timelines fetched over the wire, printed
//!   by [`render_slow_leases`].
//!
//! Export surface: [`Snapshot::render_prometheus`] (text exposition,
//! served by the v2 metrics frame and the `uuidp serve` stdin REPL).
//! [`Snapshot::parse_prometheus`] is the one reader of a scrape: it
//! rebuilds a *typed* snapshot (histogram buckets included), which
//! [`families::missing`] checks for the required families and a
//! [`TimeSeries`] ingests — `uuidp top`, the stress scrape sidecar and
//! the fleet runner all read scrapes this way, and the series' reset
//! count is their monotonicity check.
//!
//! Determinism note: nothing in this crate reads a clock. Histogram
//! *values* are timing and therefore vary run-to-run, but every
//! counter/gauge and every bucket-merge is a pure fold of what callers
//! fed in — trace timestamps are caller-supplied (`at_ns`), so tests
//! can pin exact timelines.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alert;
pub mod families;
pub mod flight;
pub mod registry;
pub mod tail;
pub mod timeseries;
pub mod trace;

pub use alert::{AlertRule, AlertState, AlertTransition, BurnRateAlerts};
pub use flight::dump_flight;
pub use registry::{AtomicHistogram, Counter, Gauge, Histogram, MetricValue, Registry, Snapshot};
pub use tail::{render_slow_leases, SlowLease, TailSampler};
pub use timeseries::{TimeSeries, Window};
pub use trace::{Stage, TraceEvent, TraceRecorder};
