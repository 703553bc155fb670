//! Unified telemetry for the AQUA simulator workspace.
//!
//! One crate provides every observability primitive the simulator layers
//! share:
//!
//! * [`Counter`] / [`Gauge`] handles backed by a named registry inside
//!   [`Telemetry`]: shared atomics on a live hub, inert on a disabled one.
//! * [`HistogramData`] — log-bucketed (power-of-two) latency histograms with
//!   p50/p95/p99/max summaries, plus the [`Histogram`] recording handle.
//! * [`RingBuffer`] + [`EventKind`] — a bounded event trace of typed
//!   simulator events (activations, quarantine moves, swaps, cache misses,
//!   epoch rollovers, throttle stalls, threshold crossings).
//! * [`EpochSeries`] — a per-epoch time-series recorder (migrations, RQA
//!   occupancy, FPT-cache hit rate, channel busy fractions, ...).
//! * [`Span`] + [`ActiveSpan`] — causal begin/end spans over simulated
//!   time with parent links and per-name duration histograms, covering the
//!   full migration lifecycle (quarantine decision → channel blocking →
//!   table update) plus the intervals where demand traffic pays for it.
//! * [`wallclock`] + [`PhaseGuard`] — scoped *host-time* phase timers over
//!   `std::time::Instant` with a nesting stack, self/child accounting, and
//!   folded-stacks export; the throughput instrument behind the hot-loop
//!   speed campaign. A disabled hub reads no clock.
//! * [`export`] — JSONL and Chrome `about:tracing` writers for all of the
//!   above, over [`json`], the workspace's one hand-rolled JSON emitter and
//!   parser (no serialization dependency is required).
//! * [`Snapshot`] / [`SnapshotTracker`] — read-only, point-in-time views
//!   of a live hub with per-counter deltas; [`MetricsPlane`] — the opt-in
//!   live scrape endpoint (`/metrics` Prometheus text + `/healthz` JSON,
//!   hand-rolled over `std::net::TcpListener`); [`AlertEngine`] — a small
//!   declarative threshold-rule engine over snapshots that fires typed
//!   [`EventKind::AlertFired`] events.
//! * [`stat_struct!`] — the declarative macro behind the workspace's plain
//!   `u64` stats structs (`Default + AddAssign + aggregate + diff` and
//!   field iteration from a single field list).
//!
//! Observability has one off-switch: attach no hub, or attach
//! [`Telemetry::disabled`]. A detached handle costs one inlined branch per
//! instrumented call (see [`hub`]).

pub mod alerts;
pub mod epoch;
pub mod event;
pub mod export;
pub mod expose;
pub mod hist;
pub mod hub;
pub mod json;
pub mod ring;
pub mod snapshot;
pub mod span;
mod stats;
pub mod summary;
pub mod wallclock;

pub use alerts::{AlertCmp, AlertEngine, AlertFiring, AlertInput, AlertRule};
pub use expose::{AlertNotice, CellHealth, MetricsPlane};
pub use snapshot::{Snapshot, SnapshotTracker};

pub use epoch::{EpochRecord, EpochSeries};
pub use event::{Event, EventKind};
pub use hist::{HistogramData, HistogramSummary};
pub use hub::{
    ActiveSpan, Counter, Gauge, Histogram, PhaseGuard, SpeculativeSpan, Telemetry, TelemetryConfig,
};
pub use ring::RingBuffer;
pub use span::Span;
pub use summary::TelemetrySummary;
pub use wallclock::{PhaseStats, WallProfile, WallclockSummary};
