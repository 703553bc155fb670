//! The shared telemetry hub and its metric handles.
//!
//! [`Telemetry`] is the cheap-to-clone handle every simulator layer holds.
//! A live hub ([`Telemetry::new`]) feeds shared atomics, the bounded ring
//! trace, histograms, the span stack, and the epoch series.
//!
//! There is one off-switch: attach no hub, or attach
//! [`Telemetry::disabled`] (also the `Default`). A detached handle holds no
//! hub, and every hot-path entry point — [`Telemetry::record`], the span
//! openers, [`Telemetry::phase`], and the guards' closers — is an inlined
//! "is there a hub?" test in front of an out-of-line body, so an
//! instrumented call site on a detached handle costs one predictable
//! branch: no call, no lock, no clock read.

use crate::epoch::{EpochRecord, EpochSeries};
use crate::event::{Event, EventKind};
use crate::hist::HistogramData;
use crate::ring::RingBuffer;
use crate::span::Span;
use crate::summary::TelemetrySummary;
use crate::wallclock::{WallProfile, WallclockSummary};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Construction-time options for a telemetry hub.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Maximum events retained by the ring trace (oldest dropped first).
    pub trace_capacity: usize,
    /// Whether high-volume `Activate` events enter the trace at all.
    pub trace_activates: bool,
    /// Maximum completed spans retained (oldest dropped first).
    pub span_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            trace_capacity: 65_536,
            trace_activates: false,
            span_capacity: 65_536,
        }
    }
}

struct Inner {
    cfg: TelemetryConfig,
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Mutex<HistogramData>>>>,
    trace: Mutex<RingBuffer<Event>>,
    epochs: Mutex<EpochSeries>,
    spans: Mutex<SpanTrack>,
    wall: Mutex<WallTrack>,
    /// Token of the armed speculative span (0 = none). One slot per hub:
    /// arming is three relaxed atomic ops, so the quiet path of a
    /// speculative root costs no lock at all (see
    /// [`Telemetry::span_speculate`]).
    spec_token: AtomicU64,
    /// Open-span id of the armed speculative span once a child span
    /// materialized it (0 = still unmaterialized).
    spec_id: AtomicU64,
    /// Token source for speculative spans.
    spec_next: AtomicU64,
}

impl Inner {
    /// Materializes the armed speculative span, if any, under the spans
    /// lock the caller already holds: assigns it the next span id *before*
    /// the caller takes one (preserving the parent-before-child id order an
    /// eager `span_start` would have produced) and pushes it as the
    /// innermost open span, so the caller's span nests under it.
    fn materialize_speculative(&self, sp: &mut SpanTrack) {
        if self.spec_token.load(Ordering::Relaxed) == 0 || self.spec_id.load(Ordering::Relaxed) != 0
        {
            return;
        }
        let (id, parent) = sp.next_child();
        sp.stack.push(OpenSpan {
            id,
            parent,
            used: false,
        });
        self.spec_id.store(id, Ordering::Relaxed);
    }

    // The live-hub halves of the hot-path entry points. Each is kept out of
    // line so that the inlined wrapper a detached handle runs is only the
    // `inner.is_some()` test.

    #[inline(never)]
    fn record(&self, ts_ps: u64, kind: EventKind) {
        if matches!(kind, EventKind::Activate { .. }) && !self.cfg.trace_activates {
            return;
        }
        self.trace.lock().unwrap().push(Event { ts_ps, kind });
    }

    #[inline(never)]
    fn span_start(this: &Arc<Inner>, name: &'static str, start_ps: u64) -> ActiveSpan {
        let mut sp = this.spans.lock().unwrap();
        this.materialize_speculative(&mut sp);
        let (id, parent) = sp.next_child();
        sp.stack.push(OpenSpan {
            id,
            parent,
            used: false,
        });
        ActiveSpan {
            inner: Some(Arc::clone(this)),
            id,
            name,
            start_ps,
        }
    }

    #[inline(never)]
    fn span_speculate(this: &Arc<Inner>, name: &'static str, start_ps: u64) -> SpeculativeSpan {
        let token = this.spec_next.fetch_add(1, Ordering::Relaxed);
        let stale = this.spec_id.swap(0, Ordering::Relaxed);
        if stale != 0 {
            // The previously armed speculative span materialized but was
            // never closed. Drop it from the causal stack now so it cannot
            // corrupt the parentage of everything opened after it.
            this.spans.lock().unwrap().remove_open(stale);
        }
        this.spec_token.store(token, Ordering::Relaxed);
        SpeculativeSpan {
            inner: Some(Arc::clone(this)),
            token,
            name,
            start_ps,
        }
    }

    #[inline(never)]
    fn span_record(&self, name: &'static str, start_ps: u64, end_ps: u64) {
        let mut sp = self.spans.lock().unwrap();
        self.materialize_speculative(&mut sp);
        let (id, parent) = sp.next_child();
        sp.commit(id, parent, name, start_ps, end_ps);
    }

    #[inline(never)]
    fn phase(this: &Arc<Inner>, name: &'static str) -> PhaseGuard {
        let mut w = this.wall.lock().unwrap();
        let token = w.next_token;
        w.next_token += 1;
        w.stack.push(OpenPhase {
            token,
            name,
            start: std::time::Instant::now(),
            child_ns: 0,
        });
        PhaseGuard {
            inner: Some(Arc::clone(this)),
            token,
        }
    }

    /// Closes the [`ActiveSpan`] `id`, committing it when `end_ps` is given
    /// (and, under `require_used`, only if a child attached).
    #[inline(never)]
    fn close_span(
        this: Arc<Inner>,
        id: u64,
        name: &'static str,
        start_ps: u64,
        end_ps: Option<u64>,
        require_used: bool,
    ) {
        let mut sp = this.spans.lock().unwrap();
        let Some(open) = sp.remove_open(id) else {
            return;
        };
        let Some(end_ps) = end_ps else {
            return;
        };
        if require_used && !open.used {
            return;
        }
        sp.commit(id, open.parent, name, start_ps, end_ps);
    }

    /// Closes the [`SpeculativeSpan`] armed with `token`, with the same
    /// commit rules as [`Inner::close_span`].
    #[inline(never)]
    fn close_speculative(
        this: Arc<Inner>,
        token: u64,
        name: &'static str,
        start_ps: u64,
        end_ps: Option<u64>,
        require_used: bool,
    ) {
        // Disarm the slot — but only if it is still ours. A later
        // span_speculate supersedes this guard (and already cleaned up any
        // materialized residue), so a failed exchange means no-op.
        if this
            .spec_token
            .compare_exchange(token, 0, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let id = this.spec_id.swap(0, Ordering::Relaxed);
        if id == 0 {
            // Never materialized: nothing is on the stack. A conditional
            // close or a cancel discards for free; an unconditional end
            // commits as a leaf now (equivalent to span_record).
            if let (Some(end_ps), false) = (end_ps, require_used) {
                this.span_record(name, start_ps, end_ps);
            }
            return;
        }
        // Materialized, which implies a child attached ("used"), so both
        // end() and end_if_used() commit; only cancel discards.
        let mut sp = this.spans.lock().unwrap();
        let Some(open) = sp.remove_open(id) else {
            return;
        };
        if let Some(end_ps) = end_ps {
            sp.commit(id, open.parent, name, start_ps, end_ps);
        }
    }

    #[inline(never)]
    fn close_phase(this: Arc<Inner>, token: u64) {
        this.wall.lock().unwrap().close(token);
    }
}

/// Where [`Telemetry::merge_impl`] puts the other hub's wallclock phases.
#[derive(Clone, Copy)]
enum WallMerge<'a> {
    /// At the root, beside this hub's own roots.
    Flat,
    /// Under a synthetic phase at this path, credited to the open phase.
    Prefixed(&'a str),
    /// Under this already-closed phase, credited to it.
    Under(&'a str),
}

/// A wallclock phase currently open on the hub's phase stack.
struct OpenPhase {
    token: u64,
    name: &'static str,
    start: std::time::Instant,
    /// Host time already attributed to child phases closed under this one.
    child_ns: u64,
}

/// All mutable wallclock-profiling state, behind one lock so open/close
/// stay atomic. Unlike [`SpanTrack`] this measures *host* nanoseconds via
/// `Instant`, not simulated picoseconds.
struct WallTrack {
    profile: WallProfile,
    stack: Vec<OpenPhase>,
    next_token: u64,
}

impl WallTrack {
    fn new() -> Self {
        WallTrack {
            profile: WallProfile::new(),
            stack: Vec::new(),
            next_token: 1,
        }
    }

    /// Closes the open phase identified by `token`: measures its elapsed
    /// host time, attributes it to the parent's child time, and records it
    /// under its `;`-joined stack path. Phases normally close LIFO;
    /// searching from the top tolerates out-of-order drops.
    fn close(&mut self, token: u64) {
        let Some(idx) = self.stack.iter().rposition(|o| o.token == token) else {
            return;
        };
        let elapsed = self.stack[idx].start.elapsed().as_nanos() as u64;
        let mut path = String::new();
        for (k, open) in self.stack[..=idx].iter().enumerate() {
            if k > 0 {
                path.push(';');
            }
            path.push_str(open.name);
        }
        let child_ns = self.stack[idx].child_ns;
        if idx > 0 {
            self.stack[idx - 1].child_ns += elapsed;
        }
        self.stack.remove(idx);
        self.profile.record(&path, elapsed, child_ns);
    }
}

/// A span currently open on the hub's causal stack.
struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    /// Whether any child span started while this one was innermost — the
    /// signal [`ActiveSpan::end_if_used`] keys on, letting the simulator
    /// open a speculative root around every mitigation consultation and
    /// commit it only when the engine actually did something.
    used: bool,
}

/// All mutable span state, behind one lock so begin/end stay atomic.
struct SpanTrack {
    ring: RingBuffer<Span>,
    stack: Vec<OpenSpan>,
    next_id: u64,
    /// Per-name duration histograms over committed spans.
    stats: BTreeMap<&'static str, HistogramData>,
}

impl SpanTrack {
    fn new(capacity: usize) -> Self {
        SpanTrack {
            ring: RingBuffer::new(capacity),
            stack: Vec::new(),
            next_id: 1,
            stats: BTreeMap::new(),
        }
    }

    /// Removes the innermost open entry with `id` (spans normally close
    /// LIFO; searching from the top tolerates out-of-order ends).
    /// Takes the next span id for a child of the innermost open span, and
    /// marks that span used.
    fn next_child(&mut self) -> (u64, Option<u64>) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map(|o| o.id);
        if let Some(top) = self.stack.last_mut() {
            top.used = true;
        }
        (id, parent)
    }

    fn remove_open(&mut self, id: u64) -> Option<OpenSpan> {
        let idx = self.stack.iter().rposition(|o| o.id == id)?;
        Some(self.stack.remove(idx))
    }

    /// Records a completed span (its end clamped to its start) in the ring
    /// and its name's duration histogram.
    fn commit(
        &mut self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start_ps: u64,
        end_ps: u64,
    ) {
        let span = Span {
            id,
            parent,
            name,
            start_ps,
            end_ps: end_ps.max(start_ps),
        };
        self.stats
            .entry(name)
            .or_default()
            .record(span.duration_ps());
        self.ring.push(span);
    }
}

/// Cheap-to-clone handle to the telemetry hub, or to nothing when
/// constructed via [`Telemetry::disabled`] (the `Default`).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Telemetry {
    /// Creates an active hub.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                cfg,
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                trace: Mutex::new(RingBuffer::new(cfg.trace_capacity)),
                epochs: Mutex::new(EpochSeries::new()),
                spans: Mutex::new(SpanTrack::new(cfg.span_capacity)),
                wall: Mutex::new(WallTrack::new()),
                spec_token: AtomicU64::new(0),
                spec_id: AtomicU64::new(0),
                spec_next: AtomicU64::new(1),
            })),
        }
    }

    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A fresh, empty hub with this hub's configuration (disabled handles
    /// fork into disabled handles). The parallel experiment runner gives
    /// each job a fork of the caller's hub so that concurrently running
    /// simulations never interleave writes, then [`Telemetry::merge_from`]s
    /// the forks back in deterministic job order.
    pub fn fork(&self) -> Telemetry {
        match &self.inner {
            Some(i) => Telemetry::new(i.cfg),
            None => Telemetry::disabled(),
        }
    }

    /// Absorbs everything `other` recorded into this hub.
    ///
    /// Counters add, gauges take `other`'s value, histograms merge
    /// bucket-wise, the epoch series appends `other`'s records after this
    /// hub's own, and `other`'s retained trace events are replayed into this
    /// hub's ring (events `other` already dropped stay counted as dropped).
    /// Merging per-job hubs in job-index order therefore yields the same
    /// aggregate regardless of how the jobs were scheduled across threads.
    ///
    /// A no-op when either handle is disabled or both refer to the same hub.
    pub fn merge_from(&self, other: &Telemetry) {
        self.merge_impl(other, WallMerge::Flat);
    }

    /// Like [`Telemetry::merge_from`], but parks `other`'s completed
    /// wallclock phases *under* `wall_prefix` instead of merging them at the
    /// root.
    ///
    /// Each of `other`'s paths lands at `{wall_prefix};{path}`, a synthetic
    /// all-child occurrence is recorded at `wall_prefix` itself, and the
    /// absorbed root total is credited as child time to the phase currently
    /// innermost on this hub's stack. The sharded simulation runner merges
    /// shard hubs with prefix `sim.sharded;shard{i}` while its own
    /// `sim.sharded` phase is open, so per-shard host time nests under the
    /// coordinator instead of inflating the root wallclock — on a parallel
    /// host the coordinator's real elapsed time is then *less* than the sum
    /// of its children, which is exactly the speedup signal.
    pub fn merge_from_prefixed(&self, other: &Telemetry, wall_prefix: &str) {
        self.merge_impl(other, WallMerge::Prefixed(wall_prefix));
    }

    /// Like [`Telemetry::merge_from`], but parks `other`'s completed
    /// wallclock phases under `wall_path`, the full path of a phase this hub
    /// has already closed (see [`WallProfile::merge_under`]): the absorbed
    /// root total becomes that phase's child time, not the currently open
    /// phase's.
    ///
    /// The matrix runner merges each job hub under the root `bench.run`
    /// phase the job ran inside, so `host_wallclock_ns` stays the
    /// coordinator's elapsed time instead of adding every job's `sim.run`
    /// to it.
    pub fn merge_from_under(&self, other: &Telemetry, wall_path: &str) {
        self.merge_impl(other, WallMerge::Under(wall_path));
    }

    fn merge_impl(&self, other: &Telemetry, wall: WallMerge<'_>) {
        let (Some(a), Some(b)) = (&self.inner, &other.inner) else {
            return;
        };
        if Arc::ptr_eq(a, b) {
            return;
        }
        for (&name, c) in b.counters.lock().unwrap().iter() {
            self.counter(name).add(c.load(Ordering::Relaxed));
        }
        for (&name, g) in b.gauges.lock().unwrap().iter() {
            self.gauge(name)
                .set(f64::from_bits(g.load(Ordering::Relaxed)));
        }
        for (&name, h) in b.histograms.lock().unwrap().iter() {
            let data = h.lock().unwrap().clone();
            if let Some(mine) = self.histogram(name).0 {
                mine.lock().unwrap().merge(&data);
            }
        }
        a.epochs
            .lock()
            .unwrap()
            .merge_from(&b.epochs.lock().unwrap());
        a.trace.lock().unwrap().merge_from(&b.trace.lock().unwrap());
        let mut mine = a.spans.lock().unwrap();
        let theirs = b.spans.lock().unwrap();
        // Offset the other hub's span ids past every id this hub has ever
        // issued, so ids (and parent links) stay unique after the merge and
        // the result depends only on merge order, never on scheduling.
        let base = mine.next_id;
        mine.ring.merge_from_with(&theirs.ring, |s| Span {
            id: base + s.id,
            parent: s.parent.map(|p| base + p),
            ..*s
        });
        mine.next_id = base + theirs.next_id;
        for (&name, data) in theirs.stats.iter() {
            mine.stats.entry(name).or_default().merge(data);
        }
        drop(mine);
        drop(theirs);
        // Completed wallclock phases merge path-wise (counts add
        // deterministically); phases still open on either stack are not
        // transferred.
        let theirs_wall = b.wall.lock().unwrap();
        let mut w = a.wall.lock().unwrap();
        match wall {
            WallMerge::Flat | WallMerge::Prefixed("") => w.profile.merge(&theirs_wall.profile),
            WallMerge::Prefixed(prefix) => {
                let root_total = w.profile.merge_nested(prefix, &theirs_wall.profile);
                if let Some(top) = w.stack.last_mut() {
                    top.child_ns += root_total;
                }
            }
            WallMerge::Under(path) => w.profile.merge_under(path, &theirs_wall.profile),
        }
    }

    /// Whether this handle feeds a live hub.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or re-fetches) a named counter.
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter(self.inner.as_ref().map(|i| {
            Arc::clone(
                i.counters
                    .lock()
                    .unwrap()
                    .entry(name)
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        }))
    }

    /// Registers (or re-fetches) a named gauge.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| {
            Arc::clone(
                i.gauges
                    .lock()
                    .unwrap()
                    .entry(name)
                    .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits()))),
            )
        }))
    }

    /// Registers (or re-fetches) a named histogram.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        Histogram(self.inner.as_ref().map(|i| {
            Arc::clone(
                i.histograms
                    .lock()
                    .unwrap()
                    .entry(name)
                    .or_insert_with(|| Arc::new(Mutex::new(HistogramData::new()))),
            )
        }))
    }

    /// Pushes a typed event into the ring trace.
    ///
    /// `Activate` events are filtered out unless
    /// [`TelemetryConfig::trace_activates`] was set.
    #[inline]
    pub fn record(&self, ts_ps: u64, kind: EventKind) {
        if let Some(i) = &self.inner {
            i.record(ts_ps, kind);
        }
    }

    /// Opens a span named `name` starting at simulated time `start_ps`.
    ///
    /// The span's parent is whatever span is innermost on this hub's causal
    /// stack at call time; the returned guard closes it via
    /// [`ActiveSpan::end`] (commit), [`ActiveSpan::cancel`] (discard), or
    /// [`ActiveSpan::end_if_used`] (commit only if a child attached).
    /// Dropping the guard without ending it cancels the span, so early
    /// returns never wedge the stack.
    #[inline]
    pub fn span_start(&self, name: &'static str, start_ps: u64) -> ActiveSpan {
        match &self.inner {
            Some(i) => Inner::span_start(i, name, start_ps),
            None => ActiveSpan {
                inner: None,
                id: 0,
                name,
                start_ps,
            },
        }
    }

    /// Opens a *speculative* span: three relaxed atomic stores, no lock.
    ///
    /// The span stays virtual until a child span attaches (via
    /// [`Telemetry::span_start`] or [`Telemetry::span_record`]), at which
    /// point it materializes on the causal stack — with its id assigned
    /// before the child's, exactly as if it had been opened eagerly. If no
    /// child ever attaches, [`SpeculativeSpan::end_if_used`] discards it
    /// without ever touching the spans lock, which is why the simulator
    /// wraps every mitigation consultation in one of these: the common
    /// quiet path (engine returns no actions) pays no synchronization.
    ///
    /// Only one speculative span can be armed per hub at a time; opening a
    /// second before closing the first discards the first (closing a
    /// superseded guard is a no-op). This mirrors the hub's single causal
    /// stack: speculative spans are for serial hot loops, not concurrency.
    #[inline]
    pub fn span_speculate(&self, name: &'static str, start_ps: u64) -> SpeculativeSpan {
        match &self.inner {
            Some(i) => Inner::span_speculate(i, name, start_ps),
            None => SpeculativeSpan {
                inner: None,
                token: 0,
                name,
                start_ps,
            },
        }
    }

    /// Records an already-finished leaf span in a single lock acquisition.
    ///
    /// Equivalent to `span_start(name, start_ps).end(end_ps)` for spans
    /// that never take children: the recorded span's parent is the innermost
    /// open span and the enclosing span is marked used. Hot paths that
    /// bracket an interval already known to be over (queue waits, bank
    /// blocks, per-action migration windows) use this to halve their lock
    /// traffic versus the open/close guard pair.
    #[inline]
    pub fn span_record(&self, name: &'static str, start_ps: u64, end_ps: u64) {
        if let Some(i) = &self.inner {
            i.span_record(name, start_ps, end_ps);
        }
    }

    /// Opens a host-wallclock phase named `name` and returns the guard that
    /// closes it (on drop or via [`PhaseGuard::finish`]).
    ///
    /// Phases nest on a per-hub stack: time measured for a phase is
    /// attributed to the enclosing phase's child time, and the completed
    /// occurrence is recorded under its `;`-joined stack path. Phases are
    /// meant for *coarse* units of work (an epoch, a refresh drain, a bench
    /// job batch) — each open/close takes a lock and reads `Instant`, so
    /// never put one on a per-access path. On a disabled handle this reads
    /// no clock and takes no lock.
    #[inline]
    pub fn phase(&self, name: &'static str) -> PhaseGuard {
        match &self.inner {
            Some(i) => Inner::phase(i, name),
            None => PhaseGuard {
                inner: None,
                token: 0,
            },
        }
    }

    /// Clones the retained completed spans, oldest first (empty when
    /// disabled).
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map(|i| i.spans.lock().unwrap().ring.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Appends one epoch sample to the time series.
    pub fn push_epoch(&self, record: EpochRecord) {
        if let Some(i) = &self.inner {
            i.epochs.lock().unwrap().push(record);
        }
    }

    /// Clones the recorded epoch series (empty when disabled).
    pub fn epochs(&self) -> EpochSeries {
        self.inner
            .as_ref()
            .map(|i| i.epochs.lock().unwrap().clone())
            .unwrap_or_default()
    }

    /// Clones the retained trace events, oldest first (empty when disabled).
    pub fn trace_events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map(|i| i.trace.lock().unwrap().iter().copied().collect())
            .unwrap_or_default()
    }

    /// Condenses everything recorded so far (None when disabled).
    pub fn summary(&self) -> Option<TelemetrySummary> {
        let i = self.inner.as_ref()?;
        let counters: Vec<(String, u64)> = i
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(n, c)| (n.to_string(), c.load(Ordering::Relaxed)))
            .collect();
        let gauges = i
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(n, g)| (n.to_string(), f64::from_bits(g.load(Ordering::Relaxed))))
            .collect();
        // Span duration stats fold in as `span.<name>` histograms so every
        // consumer (reports, JSONL, the regression gate) reads one table.
        let mut hists: BTreeMap<String, crate::hist::HistogramSummary> = i
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(n, h)| (n.to_string(), h.lock().unwrap().summary()))
            .collect();
        let sp = i.spans.lock().unwrap();
        for (name, data) in sp.stats.iter() {
            hists.insert(format!("span.{name}"), data.summary());
        }
        let wall = i.wall.lock().unwrap();
        let wallclock = if wall.profile.is_empty() {
            None
        } else {
            let accesses = counters
                .iter()
                .find(|entry: &&(String, u64)| entry.0 == "sim.requests")
                .map(|entry| entry.1)
                .unwrap_or(0);
            Some(WallclockSummary::from_profile(&wall.profile, accesses))
        };
        let trace = i.trace.lock().unwrap();
        Some(TelemetrySummary {
            counters,
            gauges,
            histograms: hists.into_iter().collect(),
            events_recorded: trace.offered(),
            events_dropped: trace.dropped(),
            epochs_recorded: i.epochs.lock().unwrap().len() as u64,
            spans_recorded: sp.ring.offered(),
            spans_dropped: sp.ring.dropped(),
            wallclock,
        })
    }

    /// Full bucket data of every registered histogram, sorted by name
    /// (empty when disabled). Each entry is copied through the shared
    /// [`Histogram::snapshot`] helper, one registry lock per histogram.
    pub fn histogram_snapshots(&self) -> Vec<(String, HistogramData)> {
        let Some(i) = self.inner.as_ref() else {
            return Vec::new();
        };
        i.histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(n, h)| (n.to_string(), Histogram(Some(Arc::clone(h))).snapshot()))
            .collect()
    }
}

/// Monotone counter handle (shared atomic when live).
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for detached handles).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// Last-value gauge handle (shared atomic `f64` bits when live).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Overwrites the gauge value.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0 for detached handles).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map(|g| f64::from_bits(g.load(Ordering::Relaxed)))
            .unwrap_or(0.0)
    }
}

/// Histogram recording handle (shared when live).
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<Mutex<HistogramData>>>);

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.lock().unwrap().record(v);
        }
    }

    /// Merges a locally accumulated batch in one lock acquisition.
    ///
    /// Hot loops record into a private [`HistogramData`] and flush it here
    /// at coarse boundaries (epoch end), keeping the per-sample path free of
    /// synchronization.
    pub fn merge(&self, batch: &HistogramData) {
        if batch.count() == 0 {
            return;
        }
        if let Some(h) = &self.0 {
            h.lock().unwrap().merge(batch);
        }
    }

    /// The `q`-quantile of recorded samples (0 for detached handles).
    pub fn percentile(&self, q: f64) -> f64 {
        self.0
            .as_ref()
            .map(|h| h.lock().unwrap().percentile(q))
            .unwrap_or(0.0)
    }

    /// Median shorthand for [`Histogram::percentile`]`(0.50)`.
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// 99th-percentile shorthand for [`Histogram::percentile`]`(0.99)`.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// Snapshot of the underlying data (empty for detached handles).
    pub fn snapshot(&self) -> HistogramData {
        self.0
            .as_ref()
            .map(|h| h.lock().unwrap().clone())
            .unwrap_or_default()
    }
}

/// Guard for a span opened with [`Telemetry::span_start`].
///
/// Exactly one of [`ActiveSpan::end`], [`ActiveSpan::end_if_used`], or
/// [`ActiveSpan::cancel`] should close it; dropping the guard unclosed is
/// equivalent to `cancel` (nothing is recorded).
#[must_use = "bind the span and close it with end()/end_if_used()/cancel()"]
pub struct ActiveSpan {
    inner: Option<Arc<Inner>>,
    id: u64,
    name: &'static str,
    start_ps: u64,
}

impl std::fmt::Debug for ActiveSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveSpan")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("start_ps", &self.start_ps)
            .finish()
    }
}

impl ActiveSpan {
    /// Hub-unique id of this span (0 when the hub is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Commits the span, ending at `end_ps` (clamped to the start time).
    #[inline]
    pub fn end(mut self, end_ps: u64) {
        self.close(Some(end_ps), false);
    }

    /// Commits the span only if a child span attached while it was open;
    /// discards it otherwise.
    #[inline]
    pub fn end_if_used(mut self, end_ps: u64) {
        self.close(Some(end_ps), true);
    }

    /// Discards the span without recording anything.
    #[inline]
    pub fn cancel(mut self) {
        self.close(None, false);
    }

    #[inline]
    fn close(&mut self, end_ps: Option<u64>, require_used: bool) {
        if let Some(i) = self.inner.take() {
            Inner::close_span(i, self.id, self.name, self.start_ps, end_ps, require_used);
        }
    }
}

impl Drop for ActiveSpan {
    #[inline]
    fn drop(&mut self) {
        self.close(None, false);
    }
}

/// Guard for a span opened with [`Telemetry::span_speculate`].
///
/// Closing mirrors [`ActiveSpan`]: [`SpeculativeSpan::end`] commits,
/// [`SpeculativeSpan::end_if_used`] commits only if a child attached (and
/// for a span that never materialized this touches no lock at all),
/// [`SpeculativeSpan::cancel`] and dropping the guard discard it.
#[must_use = "bind the span and close it with end()/end_if_used()/cancel()"]
pub struct SpeculativeSpan {
    inner: Option<Arc<Inner>>,
    token: u64,
    name: &'static str,
    start_ps: u64,
}

impl std::fmt::Debug for SpeculativeSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpeculativeSpan")
            .field("token", &self.token)
            .field("name", &self.name)
            .field("start_ps", &self.start_ps)
            .finish()
    }
}

impl SpeculativeSpan {
    /// Commits the span, ending at `end_ps` (clamped to the start time).
    /// If it never materialized it commits as a leaf, taking the lock once.
    #[inline]
    pub fn end(mut self, end_ps: u64) {
        self.close(Some(end_ps), false);
    }

    /// Commits the span only if a child span attached while it was armed;
    /// discards it otherwise — without locking, which makes this the
    /// free-when-quiet closer hot loops pair with
    /// [`Telemetry::span_speculate`].
    #[inline]
    pub fn end_if_used(mut self, end_ps: u64) {
        self.close(Some(end_ps), true);
    }

    /// Discards the span without recording anything.
    #[inline]
    pub fn cancel(mut self) {
        self.close(None, false);
    }

    #[inline]
    fn close(&mut self, end_ps: Option<u64>, require_used: bool) {
        if let Some(i) = self.inner.take() {
            Inner::close_speculative(
                i,
                self.token,
                self.name,
                self.start_ps,
                end_ps,
                require_used,
            );
        }
    }
}

impl Drop for SpeculativeSpan {
    #[inline]
    fn drop(&mut self) {
        self.close(None, false);
    }
}

/// Guard for a host-wallclock phase opened with [`Telemetry::phase`].
///
/// Dropping the guard closes the phase and records its elapsed host time;
/// [`PhaseGuard::finish`] is the explicit-close spelling for call sites
/// that reopen a phase in a loop. For a disabled handle the guard holds
/// nothing and closing it is a no-op.
#[must_use = "bind the guard; the phase is timed until it drops"]
pub struct PhaseGuard {
    inner: Option<Arc<Inner>>,
    token: u64,
}

impl std::fmt::Debug for PhaseGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhaseGuard")
            .field("enabled", &self.inner.is_some())
            .field("token", &self.token)
            .finish()
    }
}

impl PhaseGuard {
    /// Closes the phase now (equivalent to dropping the guard).
    #[inline]
    pub fn finish(self) {}
}

impl Drop for PhaseGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(i) = self.inner.take() {
            Inner::close_phase(i, self.token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn counters_count_in_both_modes() {
        let t = Telemetry::new(TelemetryConfig::default());
        let c = t.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauges_hold_last_value() {
        let t = Telemetry::new(TelemetryConfig::default());
        let g = t.gauge("g");
        g.set(0.5);
        g.set(0.75);
        assert_eq!(g.get(), 0.75);
    }

    #[test]
    fn named_handles_share_state() {
        let t = Telemetry::new(TelemetryConfig::default());
        let a = t.counter("shared");
        let b = t.counter("shared");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let s = t.summary().unwrap();
        assert_eq!(s.counter("shared"), Some(2));
    }

    #[test]
    fn activates_are_filtered_by_default() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.record(10, EventKind::Activate { bank: 0, row: 1 });
        t.record(20, EventKind::EpochRollover { epoch: 0 });
        assert_eq!(t.trace_events().len(), 1);

        let t2 = Telemetry::new(TelemetryConfig {
            trace_activates: true,
            ..Default::default()
        });
        t2.record(10, EventKind::Activate { bank: 0, row: 1 });
        assert_eq!(t2.trace_events().len(), 1);
    }

    #[test]
    fn merge_aggregates_every_metric_kind() {
        use crate::epoch::EpochRecord;

        let parent = Telemetry::new(TelemetryConfig::default());
        parent.counter("c").add(3);
        parent.gauge("g").set(0.25);
        parent.histogram("h").record(10);
        parent.push_epoch(EpochRecord {
            epoch: 0,
            ..Default::default()
        });
        parent.record(1, EventKind::EpochRollover { epoch: 0 });

        let job = parent.fork();
        assert!(job.is_enabled());
        job.counter("c").add(4);
        job.counter("job_only").inc();
        job.gauge("g").set(0.75);
        job.histogram("h").record(20);
        job.push_epoch(EpochRecord {
            epoch: 1,
            ..Default::default()
        });
        job.record(2, EventKind::EpochRollover { epoch: 1 });

        parent.merge_from(&job);
        let s = parent.summary().unwrap();
        assert_eq!(s.counter("c"), Some(7));
        assert_eq!(s.counter("job_only"), Some(1));
        assert_eq!(s.gauge("g"), Some(0.75));
        let h = s.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 20);
        assert_eq!(s.epochs_recorded, 2);
        assert_eq!(s.events_recorded, 2);
        let epochs: Vec<u64> = parent.epochs().records().iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![0, 1]);
    }

    #[test]
    fn spans_nest_and_record_duration_stats() {
        let t = Telemetry::new(TelemetryConfig::default());
        let root = t.span_start("root", 100);
        let child = t.span_start("child", 120);
        child.end(150);
        root.end(200);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        // Children commit before their parent (end order), parent links hold.
        assert_eq!(spans[0].name, "child");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].name, "root");
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[0].duration_ps(), 30);
        let s = t.summary().unwrap();
        assert_eq!(s.spans_recorded, 2);
        assert_eq!(s.histogram("span.root").unwrap().count, 1);
        assert_eq!(s.histogram("span.child").unwrap().max, 30);
    }

    #[test]
    fn end_if_used_commits_only_with_children() {
        let t = Telemetry::new(TelemetryConfig::default());
        let unused = t.span_start("speculative", 0);
        unused.end_if_used(10);
        assert!(t.spans().is_empty());

        let used = t.span_start("speculative", 20);
        let child = t.span_start("work", 21);
        child.end(25);
        used.end_if_used(30);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "speculative");
    }

    #[test]
    fn cancel_and_drop_record_nothing() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.span_start("a", 0).cancel();
        {
            let _dropped = t.span_start("b", 0);
        }
        assert!(t.spans().is_empty());
        // The stack is clean: a new root has no parent.
        let root = t.span_start("c", 5);
        root.end(9);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.summary().unwrap().spans_recorded, 1);
    }

    #[test]
    fn end_clamps_backwards_time() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.span_start("x", 100).end(40);
        let s = t.spans()[0];
        assert_eq!((s.start_ps, s.end_ps), (100, 100));
    }

    #[test]
    fn merge_remaps_span_ids_and_parents() {
        let parent = Telemetry::new(TelemetryConfig::default());
        let r = parent.span_start("r", 0);
        r.end(1);
        let job = parent.fork();
        let root = job.span_start("jr", 10);
        let child = job.span_start("jc", 11);
        child.end(12);
        root.end(20);
        parent.merge_from(&job);
        let spans = parent.spans();
        assert_eq!(spans.len(), 3);
        let mut ids = std::collections::BTreeSet::new();
        for s in &spans {
            assert!(ids.insert(s.id), "duplicate span id after merge");
        }
        let jc = spans.iter().find(|s| s.name == "jc").unwrap();
        let jr = spans.iter().find(|s| s.name == "jr").unwrap();
        assert_eq!(jc.parent, Some(jr.id));
        let s = parent.summary().unwrap();
        assert_eq!(s.spans_recorded, 3);
        assert_eq!(s.histogram("span.jc").unwrap().count, 1);
        // A span opened after the merge still gets a fresh id.
        let post = parent.span_start("post", 30);
        let post_id = post.id();
        post.end(31);
        assert!(!ids.contains(&post_id));
    }

    #[test]
    fn zero_capacity_span_ring_never_panics() {
        let t = Telemetry::new(TelemetryConfig {
            span_capacity: 0,
            ..Default::default()
        });
        let a = t.span_start("a", 0);
        let b = t.span_start("b", 1);
        b.end(2);
        a.end(3);
        assert!(t.spans().is_empty());
        let s = t.summary().unwrap();
        assert_eq!(s.spans_recorded, 2);
        assert_eq!(s.spans_dropped, 2);
        // Duration stats still accumulate even when the ring retains nothing.
        assert_eq!(s.histogram("span.a").unwrap().count, 1);
    }

    #[test]
    fn merge_with_disabled_or_self_is_a_no_op() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.counter("c").inc();
        t.merge_from(&t.clone()); // same hub: must not deadlock or double
        t.merge_from(&Telemetry::disabled());
        Telemetry::disabled().merge_from(&t);
        assert_eq!(t.summary().unwrap().counter("c"), Some(1));
    }

    #[test]
    fn fork_inherits_config_but_not_state() {
        let t = Telemetry::new(TelemetryConfig {
            trace_activates: true,
            ..Default::default()
        });
        t.counter("c").inc();
        let f = t.fork();
        assert_eq!(f.summary().unwrap().counter("c"), None);
        // The fork inherits `trace_activates`.
        f.record(1, EventKind::Activate { bank: 0, row: 1 });
        assert_eq!(f.trace_events().len(), 1);
        assert!(!Telemetry::disabled().fork().is_enabled());
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        t.record(1, EventKind::EpochRollover { epoch: 0 });
        assert!(t.summary().is_none());
        assert!(t.trace_events().is_empty());
        let c = t.counter("x");
        c.inc();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn phases_nest_and_account_self_vs_child() {
        let t = Telemetry::new(TelemetryConfig::default());
        {
            let _outer = t.phase("outer");
            {
                let _inner = t.phase("inner");
            }
            {
                let _inner = t.phase("inner");
            }
        }
        let w = t.summary().unwrap().wallclock.unwrap();
        let outer = w.phase("outer").unwrap();
        let inner = w.phase("inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        // The two inner occurrences landed on the nested path and their
        // time was attributed to outer's child time.
        assert_eq!(w.path("outer;inner").unwrap().count, 2);
        assert!(w.path("inner").is_none());
        assert!(outer.child_ns >= inner.total_ns);
        assert!(outer.total_ns >= outer.child_ns);
        assert_eq!(outer.self_ns(), outer.total_ns - outer.child_ns);
        // Root totals define the profiled wallclock.
        assert_eq!(w.host_wallclock_ns, outer.total_ns);
    }

    #[test]
    fn phase_finish_closes_early_and_loops_reopen() {
        let t = Telemetry::new(TelemetryConfig::default());
        let run = t.phase("run");
        let mut epoch = t.phase("epoch");
        for _ in 0..3 {
            epoch.finish();
            epoch = t.phase("epoch");
        }
        epoch.finish();
        run.finish();
        let w = t.summary().unwrap().wallclock.unwrap();
        assert_eq!(w.phase("epoch").unwrap().count, 4);
        assert_eq!(w.path("run;epoch").unwrap().count, 4);
        assert_eq!(w.phase("run").unwrap().count, 1);
    }

    #[test]
    fn open_phases_do_not_leak_into_summary_or_merge() {
        let t = Telemetry::new(TelemetryConfig::default());
        let _open = t.phase("still_open");
        assert!(t.summary().unwrap().wallclock.is_none());

        let job = t.fork();
        let done = job.phase("job_work");
        done.finish();
        let _job_open = job.phase("job_open");
        t.merge_from(&job);
        let w = t.summary().unwrap().wallclock.unwrap();
        assert_eq!(w.phase("job_work").unwrap().count, 1);
        assert!(w.phase("job_open").is_none());
        // The parent's own open phase is still unrecorded.
        assert!(w.phase("still_open").is_none());
    }

    #[test]
    fn phase_counts_merge_deterministically_across_forks() {
        fn exercise(hub: &Telemetry) {
            let r = hub.phase("r");
            hub.phase("c").finish();
            hub.phase("c").finish();
            r.finish();
        }
        let whole = Telemetry::new(TelemetryConfig::default());
        exercise(&whole);
        let job = whole.fork();
        exercise(&job);
        whole.merge_from(&job);
        let w = whole.summary().unwrap().wallclock.unwrap();
        assert_eq!(w.phase("r").unwrap().count, 2);
        assert_eq!(w.path("r;c").unwrap().count, 4);
    }

    #[test]
    fn disabled_handle_phase_is_inert() {
        let t = Telemetry::disabled();
        let g = t.phase("x");
        g.finish();
        assert!(t.summary().is_none());
    }

    #[test]
    fn speculative_quiet_path_records_nothing_and_burns_no_id() {
        let t = Telemetry::new(TelemetryConfig::default());
        let sp = t.span_speculate("quiet", 0);
        sp.end_if_used(10);
        assert!(t.spans().is_empty());
        assert!(t.summary().unwrap().histogram("span.quiet").is_none());
        // No span id was consumed: the next eager span gets id 1.
        let root = t.span_start("after", 20);
        assert_eq!(root.id(), 1);
        root.end(21);
    }

    #[test]
    fn speculative_materializes_via_child_span_start() {
        let t = Telemetry::new(TelemetryConfig::default());
        let sp = t.span_speculate("mitigation", 100);
        let child = t.span_start("migration", 110);
        child.end(150);
        sp.end_if_used(200);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "migration").unwrap();
        let root = spans.iter().find(|s| s.name == "mitigation").unwrap();
        assert_eq!(child.parent, Some(root.id));
        // Parent materialized before the child took an id, exactly as an
        // eager span_start would have ordered them.
        assert!(root.id < child.id);
        assert_eq!((root.start_ps, root.end_ps), (100, 200));
        assert_eq!(root.parent, None);
    }

    #[test]
    fn speculative_materializes_via_span_record() {
        let t = Telemetry::new(TelemetryConfig::default());
        let sp = t.span_speculate("drain", 10);
        t.span_record("refresh", 11, 15);
        sp.end_if_used(20);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let leaf = spans.iter().find(|s| s.name == "refresh").unwrap();
        let root = spans.iter().find(|s| s.name == "drain").unwrap();
        assert_eq!(leaf.parent, Some(root.id));
    }

    #[test]
    fn speculative_unconditional_end_commits_as_leaf() {
        let t = Telemetry::new(TelemetryConfig::default());
        let sp = t.span_speculate("solo", 5);
        sp.end(9);
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].name, spans[0].parent), ("solo", None));
        assert_eq!(spans[0].duration_ps(), 4);
    }

    #[test]
    fn speculative_nests_under_open_parent_only_when_used() {
        let t = Telemetry::new(TelemetryConfig::default());
        // Quiet speculative span inside a conditional root: the root stays
        // unused and is discarded by its own end_if_used.
        let outer = t.span_start("outer", 0);
        let quiet = t.span_speculate("quiet", 1);
        quiet.end_if_used(2);
        outer.end_if_used(3);
        assert!(t.spans().is_empty());

        // A used speculative span nests under the open parent and marks it
        // used.
        let outer = t.span_start("outer", 10);
        let sp = t.span_speculate("mid", 11);
        let leaf = t.span_start("leaf", 12);
        leaf.end(13);
        sp.end_if_used(14);
        outer.end_if_used(15);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let mid = spans.iter().find(|s| s.name == "mid").unwrap();
        let leaf = spans.iter().find(|s| s.name == "leaf").unwrap();
        assert_eq!(mid.parent, Some(outer.id));
        assert_eq!(leaf.parent, Some(mid.id));
    }

    #[test]
    fn speculative_cancel_and_drop_discard_even_when_materialized() {
        let t = Telemetry::new(TelemetryConfig::default());
        let sp = t.span_speculate("a", 0);
        t.span_record("child", 1, 2);
        sp.cancel();
        {
            let _dropped = t.span_speculate("b", 10);
            t.span_record("child", 11, 12);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.name == "child"));
        // The stack is clean: a new root has no parent.
        let root = t.span_start("c", 20);
        root.end(21);
        assert_eq!(t.spans().last().unwrap().parent, None);
    }

    #[test]
    fn superseded_speculative_span_is_discarded_and_stack_stays_clean() {
        let t = Telemetry::new(TelemetryConfig::default());
        let first = t.span_speculate("first", 0);
        t.span_record("c1", 1, 2); // materializes `first`
        let second = t.span_speculate("second", 10); // supersedes `first`
        t.span_record("c2", 11, 12); // materializes `second`
        second.end_if_used(20);
        first.end(30); // superseded: must be a no-op
        let spans = t.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["c1", "c2", "second"]);
        let c2 = spans.iter().find(|s| s.name == "c2").unwrap();
        let second = spans.iter().find(|s| s.name == "second").unwrap();
        assert_eq!(c2.parent, Some(second.id));
        // `first`'s materialized residue was removed at supersede time:
        // `second` is a root, and so is a fresh eager span.
        assert_eq!(second.parent, None);
        let root = t.span_start("after", 40);
        root.end(41);
        assert_eq!(t.spans().last().unwrap().parent, None);
    }

    #[test]
    fn merge_from_prefixed_nests_wall_phases_and_credits_child_time() {
        let t = Telemetry::new(TelemetryConfig::default());
        let shard = t.fork();
        {
            let run = shard.phase("sim.run");
            shard.phase("sim.epoch").finish();
            run.finish();
        }
        let shard_total = shard
            .summary()
            .unwrap()
            .wallclock
            .unwrap()
            .phase("sim.run")
            .unwrap()
            .total_ns;
        let coord = t.phase("sim.sharded");
        t.merge_from_prefixed(&shard, "sim.sharded;shard0");
        coord.finish();
        let w = t.summary().unwrap().wallclock.unwrap();
        // Shard rows nest under the coordinator instead of the root.
        assert_eq!(w.path("sim.sharded;shard0;sim.run").unwrap().count, 1);
        assert!(w.path("sim.run").is_none());
        let root = w.phase("sim.sharded").unwrap();
        // The absorbed shard total was credited as the coordinator's child
        // time, and only the coordinator's real elapsed time is the root.
        assert!(root.child_ns >= shard_total);
        assert_eq!(w.host_wallclock_ns, root.total_ns);
    }

    #[test]
    fn merge_from_prefixed_with_empty_prefix_is_flat() {
        let t = Telemetry::new(TelemetryConfig::default());
        let job = t.fork();
        job.phase("work").finish();
        job.counter("c").inc();
        t.merge_from_prefixed(&job, "");
        let w = t.summary().unwrap().wallclock.unwrap();
        assert_eq!(w.phase("work").unwrap().count, 1);
        assert_eq!(t.summary().unwrap().counter("c"), Some(1));
    }

    #[test]
    fn disabled_handle_guards_close_with_no_effect() {
        let t = Telemetry::disabled();
        let span = t.span_start("a", 0);
        assert_eq!(span.id(), 0);
        span.end(1);
        t.span_start("b", 0).end_if_used(1);
        t.span_start("c", 0).cancel();
        drop(t.span_start("d", 0));
        t.span_speculate("e", 0).end(1);
        t.span_speculate("f", 0).end_if_used(1);
        t.span_speculate("g", 0).cancel();
        drop(t.span_speculate("h", 0));
        t.span_record("i", 0, 1);
        t.phase("j").finish();
        drop(t.phase("k"));
        t.record(1, EventKind::EpochRollover { epoch: 0 });
        t.push_epoch(EpochRecord::default());
        let h = t.histogram("h");
        h.record(10);
        assert_eq!(h.snapshot().count(), 0);
        t.gauge("g").set(1.0);
        assert_eq!(t.gauge("g").get(), 0.0);
        assert!(t.spans().is_empty());
        assert!(t.epochs().is_empty());
        assert!(t.trace_events().is_empty());
        assert!(t.histogram_snapshots().is_empty());
        assert!(t.summary().is_none());
        // Forks stay detached, and prefixed merges are no-ops both ways.
        let fork = t.fork();
        assert!(!fork.is_enabled());
        let live = Telemetry::new(TelemetryConfig::default());
        live.phase("p").finish();
        t.merge_from_prefixed(&live, "shard0");
        assert!(t.summary().is_none());
        live.merge_from_prefixed(&fork, "shard0");
        let wall = live.summary().unwrap().wallclock.unwrap();
        assert!(wall.path("shard0").is_none());
    }
}
