//! The system simulator: cores + channel + banks + mitigation + oracle.

use crate::{ActivationOracle, CoreState, CostAblation, RunReport, ShadowMemory};
use aqua_dram::mitigation::{
    DegradedMode, MigrationKind, Mitigation, MitigationAction, MitigationStats,
};
use aqua_dram::{
    Bank, BaselineConfig, Channel, ChannelStats, DramError, Duration, GlobalRowId,
    RefreshScheduler, Time,
};
use aqua_faults::{
    FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultReport, FaultSpec, InjectOutcome,
};
use aqua_telemetry::{
    AlertEngine, AlertNotice, Counter, EpochRecord, EventKind, Histogram, HistogramData,
    MetricsPlane, SnapshotTracker, Telemetry,
};
use aqua_workload::RequestGenerator;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// The baseline system (geometry, timing, cores, MLP, epoch length).
    pub base: BaselineConfig,
    /// Number of epochs (refresh windows) to simulate.
    pub epochs: u64,
    /// Rowhammer threshold the oracle checks against.
    pub t_rh: u64,
    /// Seeded fault-injection campaign (`None` disables injection).
    pub faults: Option<FaultSpec>,
    /// Wall-clock budget for the whole run. When exceeded, the run panics
    /// with [`DramError::WatchdogExpired`]'s message; the bench worker pool
    /// catches the unwind and converts the hung cell into a failed cell
    /// instead of stalling the campaign.
    pub watchdog: Option<std::time::Duration>,
    /// Soft wall-clock deadline: the escalation step before the hard
    /// `watchdog`. A run that exceeds it keeps going, but emits one
    /// straggler report to stderr (epoch progress, requests served so far),
    /// bumps the `sim.straggler_reports` counter, and records a
    /// `StragglerReport` trace event — so a long campaign names its slow
    /// cells while they are still running instead of only after the hard
    /// watchdog kills them.
    pub soft_watchdog: Option<std::time::Duration>,
    /// Which mitigation costs to pretend are free (slowdown attribution's
    /// what-if runs; [`CostAblation::NONE`] is the normal simulation).
    pub ablate: CostAblation,
}

impl SimConfig {
    /// Creates a configuration with the paper defaults (2 epochs, `T_RH` 1K).
    pub fn new(base: BaselineConfig) -> Self {
        SimConfig {
            base,
            epochs: 2,
            t_rh: 1000,
            faults: None,
            watchdog: None,
            soft_watchdog: None,
            ablate: CostAblation::NONE,
        }
    }

    /// Sets the number of simulated epochs.
    pub fn epochs(mut self, epochs: u64) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// Sets the oracle's Rowhammer threshold.
    pub fn t_rh(mut self, t_rh: u64) -> Self {
        self.t_rh = t_rh;
        self
    }

    /// Enables the seeded fault campaign described by `spec`.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Sets the per-run wall-clock watchdog budget.
    pub fn watchdog(mut self, budget: std::time::Duration) -> Self {
        self.watchdog = Some(budget);
        self
    }

    /// Sets the soft deadline that triggers a straggler report before the
    /// hard watchdog fires.
    pub fn soft_watchdog(mut self, deadline: std::time::Duration) -> Self {
        self.soft_watchdog = Some(deadline);
        self
    }

    /// Marks mitigation costs as free for a what-if attribution run.
    pub fn ablate(mut self, ablate: CostAblation) -> Self {
        self.ablate = ablate;
        self
    }
}

/// Counters sampled at the previous epoch boundary, for per-epoch deltas.
#[derive(Debug, Default, Clone, Copy)]
struct EpochBaseline {
    requests: u64,
    mitigation: MitigationStats,
    channel: ChannelStats,
}

/// One simulation run binding a mitigation scheme to a set of core streams.
pub struct Simulation<M: Mitigation> {
    cfg: SimConfig,
    banks: Vec<Bank>,
    channel: Channel,
    refresh: RefreshScheduler,
    mitigation: M,
    oracle: ActivationOracle,
    shadow: ShadowMemory,
    cores: Vec<CoreState>,
    burst: Duration,
    telemetry: Telemetry,
    /// Per-access memory latency (request issue to data completion), ps.
    access_hist: Histogram,
    /// Channel-blocking stall of each row migration, ps.
    migration_hist: Histogram,
    /// Mapping-table lookup latency on the access critical path, ps.
    lookup_hist: Histogram,
    /// Local batches for the three hot histograms above. The serve path
    /// records into these lock-free accumulators; [`Self::flush_histograms`]
    /// merges them into the shared handles at epoch boundaries.
    access_local: HistogramData,
    migration_local: HistogramData,
    lookup_local: HistogramData,
    /// Reusable buffer for mitigation actions: the per-access and
    /// refresh-tick paths borrow it via `mem::take`, so consultations that
    /// return nothing (the overwhelmingly common case) never allocate.
    action_scratch: Vec<MitigationAction>,
    activations: Counter,
    /// Requests served, feeding the wallclock layer's accesses/sec metric.
    requests: Counter,
    /// Replay cursor over the generated fault plan (`None`: no campaign).
    injector: Option<FaultInjector>,
    /// Rows whose translation an injected fault corrupted, pending
    /// end-of-run accounting.
    watch: BTreeSet<u64>,
    /// Watched rows whose corruption surfaced as a counted shadow violation.
    escaped: BTreeSet<u64>,
    /// Pending DRAM command faults: each suppresses the mitigation
    /// notification of one activation (the tracker's blind spot).
    suppress_notifications: u64,
    /// Plan-level fault accounting accumulated during the run.
    freport: FaultReport,
    faults_injected: Counter,
    integrity_escapes: Counter,
    degraded_epochs: Counter,
    straggler_reports: Counter,
    alerts_fired: Counter,
    /// Deterministic alert rules, evaluated at every epoch boundary over
    /// this run's own snapshot. Present whenever an enabled hub is
    /// attached — independent of the metrics plane, so the event ring is
    /// byte-identical with the plane on or off.
    alerts: Option<AlertEngine>,
    /// Per-run snapshot history (feeds alert deltas and the plane).
    snapshots: SnapshotTracker,
    /// Live metrics plane and this run's source label (`scheme/wl;chN`).
    /// Strictly an observer: published snapshots are copies, and nothing
    /// simulated ever reads back from it.
    plane: Option<(Arc<MetricsPlane>, String)>,
}

impl<M: Mitigation> Simulation<M> {
    /// Builds a simulation. Each generator drives one core (1 to 4 streams).
    ///
    /// # Panics
    ///
    /// Panics if no generators are supplied or more than `cfg.base.cores`.
    pub fn new(
        cfg: SimConfig,
        mitigation: M,
        generators: impl IntoIterator<Item = Box<dyn RequestGenerator>>,
    ) -> Self {
        let cores: Vec<CoreState> = generators
            .into_iter()
            .map(|g| CoreState::new(g, cfg.base.mlp))
            .collect();
        assert!(
            !cores.is_empty() && cores.len() <= cfg.base.cores as usize,
            "between 1 and {} generators required",
            cfg.base.cores
        );
        let mut shadow = ShadowMemory::new(&cfg.base.geometry);
        for row in mitigation.reserved_rows() {
            shadow.vacate(row);
        }
        let detached = Telemetry::disabled();
        let injector = cfg.faults.map(|spec| {
            FaultInjector::new(FaultPlan::generate(
                spec,
                cfg.epochs,
                cfg.base.epoch.as_ps(),
            ))
        });
        Simulation {
            banks: (0..cfg.base.geometry.total_banks())
                .map(|_| Bank::with_policy(cfg.base.timing, cfg.base.page_policy))
                .collect(),
            channel: Channel::new(),
            refresh: RefreshScheduler::new(&cfg.base.timing),
            oracle: ActivationOracle::new(&cfg.base.geometry, cfg.t_rh),
            shadow,
            mitigation,
            cores,
            burst: cfg.base.timing.t_ccd_s,
            cfg,
            telemetry: detached.clone(),
            access_hist: detached.histogram("mem.access_ps"),
            migration_hist: detached.histogram("migration.stall_ps"),
            lookup_hist: detached.histogram("table.lookup_ps"),
            access_local: HistogramData::new(),
            migration_local: HistogramData::new(),
            lookup_local: HistogramData::new(),
            action_scratch: Vec::new(),
            activations: detached.counter("sim.activations"),
            requests: detached.counter("sim.requests"),
            injector,
            watch: BTreeSet::new(),
            escaped: BTreeSet::new(),
            suppress_notifications: 0,
            freport: FaultReport::default(),
            faults_injected: detached.counter("sim.faults_injected"),
            integrity_escapes: detached.counter("sim.integrity_escapes"),
            degraded_epochs: detached.counter("sim.degraded_epochs"),
            straggler_reports: detached.counter("sim.straggler_reports"),
            alerts_fired: detached.counter("sim.alerts_fired"),
            alerts: None,
            snapshots: SnapshotTracker::new(),
            plane: None,
        }
    }

    /// Attaches a telemetry hub: registers the simulator's histograms and
    /// counters and forwards the hub to the mitigation scheme so every layer
    /// records into the same registry.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.access_hist = telemetry.histogram("mem.access_ps");
        self.migration_hist = telemetry.histogram("migration.stall_ps");
        self.lookup_hist = telemetry.histogram("table.lookup_ps");
        self.activations = telemetry.counter("sim.activations");
        self.requests = telemetry.counter("sim.requests");
        self.faults_injected = telemetry.counter("sim.faults_injected");
        self.integrity_escapes = telemetry.counter("sim.integrity_escapes");
        self.degraded_epochs = telemetry.counter("sim.degraded_epochs");
        self.straggler_reports = telemetry.counter("sim.straggler_reports");
        self.alerts_fired = telemetry.counter("sim.alerts_fired");
        // Deterministic alerting rides on the hub, not the plane: it is
        // active whenever telemetry records at all, so the event ring (and
        // every export derived from it) cannot depend on whether anyone is
        // watching live.
        self.alerts = telemetry.is_enabled().then(AlertEngine::from_env);
        self.mitigation.attach_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Attaches the live metrics plane. `source` labels this run's series
    /// (`scheme/workload;chN` by convention). Observer-only: see the
    /// determinism rules on [`aqua_telemetry::expose`].
    pub fn attach_metrics_plane(&mut self, plane: Arc<MetricsPlane>, source: impl Into<String>) {
        self.plane = Some((plane, source.into()));
    }

    /// The attached telemetry hub (disabled if none was attached).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The mitigation scheme (for scheme-specific statistics after a run).
    pub fn mitigation(&self) -> &M {
        &self.mitigation
    }

    /// Consumes the simulation and returns the mitigation engine, for
    /// callers that need scheme-specific statistics (e.g. the Figure 10
    /// lookup breakdown) without keeping the whole simulator alive.
    pub fn into_mitigation(self) -> M {
        self.mitigation
    }

    /// The security oracle.
    pub fn oracle(&self) -> &ActivationOracle {
        &self.oracle
    }

    /// Chrome-trace span name for one migration kind.
    fn migration_span_name(kind: MigrationKind) -> &'static str {
        match kind {
            MigrationKind::QuarantineInstall => "migration.install",
            MigrationKind::QuarantineInternal => "migration.internal",
            MigrationKind::QuarantineEvict => "migration.evict",
            MigrationKind::Swap => "migration.swap",
            MigrationKind::Unswap => "migration.unswap",
        }
    }

    /// Applies and drains `actions`, opening a child span per action;
    /// returns the (possibly throttle-delayed) request completion time. The
    /// buffer is left empty so the caller can hand it back to the scratch
    /// slot without reallocation.
    fn apply_actions(
        &mut self,
        actions: &mut Vec<MitigationAction>,
        at: Time,
        mut completion: Time,
    ) -> Time {
        for action in actions.drain(..) {
            match action {
                MitigationAction::BlockChannel {
                    duration,
                    kind,
                    movement,
                } => {
                    let duration = if self.cfg.ablate.free_migration_blocking {
                        Duration::ZERO
                    } else {
                        duration
                    };
                    let start = self.channel.reserve_migration(at, duration);
                    self.telemetry.span_record(
                        Self::migration_span_name(kind),
                        start.as_ps(),
                        (start + duration).as_ps(),
                    );
                    self.migration_local.record(duration.as_ps());
                    self.shadow.apply(movement);
                }
                MitigationAction::RefreshRows(rows) => {
                    for r in rows {
                        self.banks[r.bank.index() as usize].refresh_row(r.row, at);
                        // Victim refreshes are activations the *oracle* sees
                        // but the scheme's tracker does not — the Half-Double
                        // blind spot.
                        self.oracle.record_refresh(r);
                    }
                    self.telemetry
                        .span_record("sim.victim_refresh", at.as_ps(), at.as_ps());
                }
                MitigationAction::Throttle { delay } => {
                    self.telemetry.span_record(
                        "sim.throttle",
                        completion.as_ps(),
                        (completion + delay).as_ps(),
                    );
                    completion += delay;
                }
                MitigationAction::TableWrites { count } => {
                    let dur = if self.cfg.ablate.free_table_traffic {
                        Duration::ZERO
                    } else {
                        self.burst
                    };
                    let mut last = at;
                    for _ in 0..count {
                        last = self.channel.reserve_table_access(at, dur) + dur;
                    }
                    self.telemetry
                        .span_record("sim.table_writes", at.as_ps(), last.as_ps());
                }
            }
        }
        completion
    }

    /// Consults the mitigation about an activation of `phys` at `at` and
    /// applies whatever it orders, wrapped in a `sim.mitigation` root span
    /// so the engine's decision spans and the per-action migration spans
    /// nest under one causal record. The root is *speculative*: on the
    /// overwhelmingly common quiet path (no actions, no engine spans) it is
    /// discarded without ever touching the span lock, and it materializes —
    /// with correct id ordering and nesting — only when a child span
    /// actually attaches.
    fn consult_mitigation(&mut self, phys: aqua_dram::RowAddr, at: Time, completion: Time) -> Time {
        let sp = self.telemetry.span_speculate("sim.mitigation", at.as_ps());
        let mut actions = std::mem::take(&mut self.action_scratch);
        self.notify_activation_into(phys, at, &mut actions);
        if actions.is_empty() {
            sp.end_if_used(at.as_ps());
            self.action_scratch = actions;
            return completion;
        }
        let completion = self.apply_actions(&mut actions, at, completion);
        self.action_scratch = actions;
        let busy_until = self.channel.blocked_until().max(completion).max(at);
        sp.end(busy_until.as_ps());
        completion
    }

    /// Applies one scheduled fault event. DRAM command faults are handled at
    /// the simulator level (the mitigation never learns of one activation);
    /// everything else is offered to the scheme, and any corrupted rows it
    /// reports are admitted to the watch list for end-of-run accounting.
    fn apply_fault(&mut self, ev: FaultEvent, now: Time) {
        self.freport.injected += 1;
        self.faults_injected.inc();
        self.telemetry.record(
            ev.at_ps,
            EventKind::FaultInjected {
                fault: ev.kind.name(),
            },
        );
        match ev.kind {
            FaultKind::DramCommandFault => {
                self.suppress_notifications += 1;
                self.freport.applied += 1;
            }
            kind => match self.mitigation.inject_fault(&kind, now) {
                InjectOutcome::Unsupported => self.freport.unsupported += 1,
                InjectOutcome::Applied => self.freport.applied += 1,
                InjectOutcome::CorruptedTranslation { rows } => {
                    for r in rows {
                        // `corruptions` counts distinct watched rows, so the
                        // end-of-run audit partitions it exactly into
                        // recovered + escaped + dormant + unaccounted.
                        if self.watch.insert(r) {
                            self.freport.corruptions += 1;
                        }
                    }
                }
            },
        }
    }

    /// Notifies the mitigation of an activation unless a pending DRAM
    /// command fault swallows the notification (the oracle, being physical
    /// ground truth, always sees the activation regardless).
    fn notify_activation_into(
        &mut self,
        phys: aqua_dram::RowAddr,
        at: Time,
        actions: &mut Vec<MitigationAction>,
    ) {
        if self.suppress_notifications > 0 {
            self.suppress_notifications -= 1;
            return;
        }
        self.mitigation.on_activation_into(phys, at, actions);
    }

    /// Records an activation with the oracle and trace (the oracle reports
    /// first-time threshold crossings, which become trace events).
    fn record_activation(&mut self, phys: aqua_dram::RowAddr, at: Time) {
        self.activations.inc();
        self.telemetry.record(
            at.as_ps(),
            EventKind::Activate {
                bank: phys.bank.index() as u64,
                row: phys.row as u64,
            },
        );
        if self.oracle.record(phys) {
            self.telemetry.record(
                at.as_ps(),
                EventKind::ThresholdCrossed {
                    row: self
                        .cfg
                        .base
                        .geometry
                        .flatten(phys)
                        .map(|g| g.index())
                        .unwrap_or(u64::MAX),
                    count: self.oracle.window_count(phys),
                },
            );
        }
    }

    /// Records a `sim.bank_block` span when a bank access had to wait for an
    /// exclusive migration to release the channel.
    fn note_bank_block(&self, t: Time, blocked: Time) {
        if blocked > t {
            self.telemetry
                .span_record("sim.bank_block", t.as_ps(), blocked.as_ps());
        }
    }

    /// Records a `sim.queue_wait` span when ready data had to queue behind
    /// other bus traffic before its burst slot.
    fn note_queue_wait(&self, ready: Time, slot: Time) {
        if slot > ready {
            self.telemetry
                .span_record("sim.queue_wait", ready.as_ps(), slot.as_ps());
        }
    }

    /// Serves one request from core `ci` issued at `t0`; returns completion.
    fn serve(&mut self, ci: usize, t0: Time) {
        let ablate = self.cfg.ablate;
        let req = self.cores[ci].pending();
        let tr = self.mitigation.translate(req.row, t0);
        let lookup_latency = if ablate.free_lookup_latency {
            Duration::ZERO
        } else {
            tr.lookup_latency
        };
        let lookup_start = self.refresh.next_available(t0 + lookup_latency);
        let mut t = lookup_start;

        // Extra in-DRAM mapping-table read on the critical path.
        if let Some(trow) = tr.table_row {
            let blocked = self.channel.blocked_until();
            self.note_bank_block(t, blocked);
            let start = t.max(blocked);
            let res = self.banks[trow.bank.index() as usize].access(trow.row, start);
            let table_burst = if ablate.free_table_traffic {
                Duration::ZERO
            } else {
                self.burst
            };
            let slot = self
                .channel
                .reserve_table_access(res.data_ready, table_burst);
            self.note_queue_wait(res.data_ready, slot);
            if res.activated {
                self.record_activation(trow, res.data_ready);
                self.consult_mitigation(trow, res.data_ready, res.data_ready);
            }
            if !ablate.free_lookup_latency {
                // The access's critical path waits for the table read; under
                // the lookup ablation the walk happens off the critical path
                // (its bank and bus occupancy above still stand).
                t = slot + table_burst;
            }
        }
        // Table-lookup latency: the scheme's SRAM lookup plus any in-DRAM
        // table walk that just happened on the critical path.
        self.lookup_local
            .record(lookup_latency.as_ps() + t.saturating_since(lookup_start).as_ps());

        let phys = tr.phys;
        // End-to-end integrity: the translation must resolve to the physical
        // row actually holding the requested row's data.
        let ok = self.shadow.verify(req.row, phys);
        if !ok && self.watch.contains(&req.row.index()) && self.escaped.insert(req.row.index()) {
            // The corruption surfaced as a counted violation: the row is
            // accounted for.
            self.integrity_escapes.inc();
        }
        let blocked = self.channel.blocked_until();
        self.note_bank_block(t, blocked);
        let start = t.max(blocked);
        let res = self.banks[phys.bank.index() as usize].access(phys.row, start);
        let slot = self.channel.reserve_burst(res.data_ready, self.burst);
        self.note_queue_wait(res.data_ready, slot);
        let mut completion = slot + self.burst;
        if res.activated {
            self.record_activation(phys, completion);
            completion = self.consult_mitigation(phys, completion, completion);
        }
        self.access_local
            .record(completion.saturating_since(t0).as_ps());
        self.requests.inc();
        self.cores[ci].commit(t0, completion);
    }

    /// Merges the serve path's locally batched histogram samples into the
    /// shared telemetry handles. Called at epoch boundaries and end of run,
    /// so the per-sample path never takes a lock.
    fn flush_histograms(&mut self) {
        self.access_hist.merge(&self.access_local);
        self.migration_hist.merge(&self.migration_local);
        self.lookup_hist.merge(&self.lookup_local);
        self.access_local = HistogramData::new();
        self.migration_local = HistogramData::new();
        self.lookup_local = HistogramData::new();
    }

    /// Samples one epoch record (deltas against `prev`) into the time series
    /// and advances the baseline. Runs *before* the scheme's `end_epoch` so
    /// gauges see the closing epoch's state.
    fn sample_epoch(&mut self, epoch: u64, end: Time, prev: &mut EpochBaseline) {
        self.flush_histograms();
        self.telemetry
            .record(end.as_ps(), EventKind::EpochRollover { epoch });
        if let DegradedMode::VictimRefresh { banks } = self.mitigation.degraded_mode() {
            self.degraded_epochs.add(banks.len() as u64);
        }
        let requests: u64 = self.cores.iter().map(|c| c.issued()).sum();
        let mitigation = self.mitigation.mitigation_stats();
        let channel = self.channel.stats();
        let d_mit = mitigation.diff(&prev.mitigation);
        let epoch_ps = self.cfg.base.epoch.as_ps().max(1) as f64;
        let frac = |busy: Duration, before: Duration| {
            busy.saturating_sub(before).as_ps() as f64 / epoch_ps
        };
        self.telemetry.push_epoch(EpochRecord {
            epoch,
            end_ps: end.as_ps(),
            requests_done: requests - prev.requests,
            migrations: d_mit.row_migrations,
            mitigations_triggered: d_mit.mitigations_triggered,
            victim_refreshes: d_mit.victim_refreshes,
            throttled: d_mit.throttled,
            data_busy_frac: frac(channel.data_busy, prev.channel.data_busy),
            migration_busy_frac: frac(channel.migration_busy, prev.channel.migration_busy),
            table_busy_frac: frac(channel.table_busy, prev.channel.table_busy),
            gauges: self
                .mitigation
                .epoch_gauges()
                .into_iter()
                .map(|(name, v)| (name.to_string(), v))
                .collect(),
        });
        *prev = EpochBaseline {
            requests,
            mitigation,
            channel,
        };
        self.observe_epoch(epoch);
    }

    /// The epoch hook of the live metrics plane: captures a snapshot of
    /// this run's hub, evaluates the deterministic alert rules against it,
    /// and publishes the snapshot to the plane when one is attached.
    ///
    /// Alert firings are recorded into the event ring (at `ts_ps` 0, like
    /// the straggler escalation: the rule crossing is an epoch-boundary
    /// observation, not a simulated-time event) and counted on
    /// `sim.alerts_fired` whether or not a plane is watching, so every
    /// deterministic output is byte-identical with the plane on or off.
    fn observe_epoch(&mut self, epoch: u64) {
        if self.alerts.is_none() && self.plane.is_none() {
            return;
        }
        let Some(snap) = self.snapshots.capture(&self.telemetry) else {
            return;
        };
        if let Some(engine) = &mut self.alerts {
            for firing in engine.evaluate(&snap) {
                self.alerts_fired.inc();
                self.telemetry.record(
                    0,
                    EventKind::AlertFired {
                        rule: firing.rule,
                        epoch,
                    },
                );
                eprintln!(
                    "warning: [alert] {} fired at epoch {epoch}: observed {} vs threshold {} ({})",
                    firing.rule,
                    firing.value,
                    firing.threshold,
                    self.mitigation.name(),
                );
                if let Some((plane, source)) = &self.plane {
                    plane.note_alert(AlertNotice {
                        rule: firing.rule.to_string(),
                        value: firing.value,
                        threshold: firing.threshold,
                        source: source.clone(),
                        host_time: false,
                    });
                }
            }
        }
        if let Some((plane, source)) = &self.plane {
            plane.publish(source, snap);
        }
    }

    /// Emits the one-shot straggler escalation: a human-readable stderr
    /// line naming the slow cell and its progress, a counter bump, and a
    /// trace event. Fired at most once per run, only between the soft
    /// deadline and the hard watchdog.
    fn report_straggler(
        &self,
        epoch_idx: u64,
        elapsed: std::time::Duration,
        soft: std::time::Duration,
    ) {
        let requests: u64 = self.cores.iter().map(|c| c.issued()).sum();
        let hard = match self.cfg.watchdog {
            Some(b) => format!("{} ms", b.as_millis()),
            None => "none".to_string(),
        };
        eprintln!(
            "[straggler] {} past soft deadline {} ms (elapsed {} ms, hard watchdog {hard}): \
             epoch {epoch_idx}/{}, {requests} requests served",
            self.mitigation.name(),
            soft.as_millis(),
            elapsed.as_millis(),
            self.cfg.epochs,
        );
        self.straggler_reports.inc();
        self.telemetry.record(
            0, // host-time escalation; carries no meaningful simulated time
            EventKind::StragglerReport {
                epoch: epoch_idx,
                elapsed_ms: elapsed.as_millis() as u64,
            },
        );
        if let Some((plane, _)) = &self.plane {
            plane.update_cells(|c| c.stragglers += 1);
        }
    }

    /// Runs for `cfg.epochs` refresh windows and reports the results.
    ///
    /// # Panics
    ///
    /// Panics with [`DramError::WatchdogExpired`]'s message if the
    /// configured wall-clock watchdog budget is exceeded (the bench worker
    /// pool catches the unwind and marks the cell failed).
    pub fn run(&mut self) -> RunReport {
        let epoch_len = self.cfg.base.epoch;
        let end = Time::ZERO + epoch_len.checked_scale(self.cfg.epochs);
        let t_refi = self.cfg.base.timing.t_refi;
        let mut next_epoch = Time::ZERO + epoch_len;
        let mut next_tick = Time::ZERO + t_refi;
        let mut epoch_idx: u64 = 0;
        let mut baseline = EpochBaseline::default();
        let started = std::time::Instant::now();
        let mut watchdog_check: u32 = 0;
        let mut straggler_reported = false;
        // Wallclock phases bracket coarse units only (the whole run, one
        // epoch, one refresh drain) — never the per-access serve path, so
        // the profiler cannot perturb what it measures.
        let run_phase = self.telemetry.phase("sim.run");
        let mut epoch_phase = self.telemetry.phase("sim.epoch");
        while let Some((ci, t)) = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.ready_at()))
            .min_by_key(|&(_, t)| t)
        {
            if t >= end {
                break;
            }
            if self.cfg.watchdog.is_some() || self.cfg.soft_watchdog.is_some() {
                // Check wall clock on the first serve and every 1024 after:
                // cheap enough to catch a hung cell within a fraction of the
                // budget, and the first-serve check makes a zero budget
                // deterministic (any cell that serves at all trips it).
                watchdog_check = watchdog_check.wrapping_add(1);
                if watchdog_check == 1 || watchdog_check.is_multiple_of(1024) {
                    let elapsed = started.elapsed();
                    if let Some(soft) = self.cfg.soft_watchdog {
                        if !straggler_reported && elapsed > soft {
                            straggler_reported = true;
                            self.report_straggler(epoch_idx, elapsed, soft);
                        }
                    }
                    if let Some(budget) = self.cfg.watchdog {
                        if elapsed > budget {
                            let err = DramError::WatchdogExpired {
                                budget_ms: budget.as_millis() as u64,
                            };
                            panic!("{err}");
                        }
                    }
                }
            }
            while let Some(ev) = self.injector.as_mut().and_then(|inj| inj.due(t.as_ps())) {
                self.apply_fault(ev, t);
            }
            if t >= next_tick {
                // The phase opens only when at least one tick is due, so an
                // idle check costs no clock read.
                let _drain = self.telemetry.phase("sim.refresh_drain");
                while t >= next_tick {
                    // Background work (lazy RQA drain, pending unswaps) gets
                    // its own root span, separate from demand-path
                    // consultations. Speculative: a quiet tick pays no span
                    // lock.
                    let sp = self
                        .telemetry
                        .span_speculate("sim.refresh_tick", next_tick.as_ps());
                    let mut actions = std::mem::take(&mut self.action_scratch);
                    self.mitigation
                        .on_refresh_tick_into(next_tick, &mut actions);
                    if actions.is_empty() {
                        sp.end_if_used(next_tick.as_ps());
                    } else {
                        self.apply_actions(&mut actions, next_tick, next_tick);
                        sp.end(self.channel.blocked_until().max(next_tick).as_ps());
                    }
                    self.action_scratch = actions;
                    next_tick += t_refi;
                }
            }
            while t >= next_epoch {
                epoch_phase.finish();
                {
                    let _end = self.telemetry.phase("sim.epoch_end");
                    self.sample_epoch(epoch_idx, next_epoch, &mut baseline);
                    self.mitigation.end_epoch();
                    self.oracle.end_epoch();
                }
                epoch_phase = self.telemetry.phase("sim.epoch");
                next_epoch += epoch_len;
                epoch_idx += 1;
            }
            self.serve(ci, t);
        }
        epoch_phase.finish();
        // Close out remaining epoch boundaries. Any still-undelivered fault
        // events fire first, so every scheduled fault is accounted for even
        // when the cores drained early.
        while let Some(ev) = self.injector.as_mut().and_then(|inj| inj.due(end.as_ps())) {
            self.apply_fault(ev, end);
        }
        while next_epoch <= end {
            let _end = self.telemetry.phase("sim.epoch_end");
            self.sample_epoch(epoch_idx, next_epoch, &mut baseline);
            self.mitigation.end_epoch();
            self.oracle.end_epoch();
            next_epoch += epoch_len;
            epoch_idx += 1;
        }
        // Close the run phase before the summary is taken so the whole
        // profile (including this run's root total) lands in the report.
        self.flush_histograms();
        run_phase.finish();
        let faults = self.close_fault_accounting(end);
        let stats = self.channel.stats();
        RunReport {
            scheme: self.mitigation.name().to_string(),
            workload: self.cores[0].label(),
            requests_done: self.cores.iter().map(|c| c.issued()).sum(),
            per_core: self.cores.iter().map(|c| c.issued()).collect(),
            epochs: self.cfg.epochs,
            data_busy: stats.data_busy,
            migration_busy: stats.migration_busy,
            table_busy: stats.table_busy,
            mitigation: self.mitigation.mitigation_stats(),
            oracle: self.oracle.summary(),
            integrity_violations: self.shadow.violations(),
            faults,
            telemetry: self.telemetry.summary(),
        }
    }

    /// Settles the fate of every watched row at the end of the run: each
    /// corruption must be recovered (the engine's audit repaired the
    /// translation), counted (an access observed it and the shadow recorded
    /// a violation), or dormant (still wrong, but no access ever returned
    /// wrong data — the shadow verifies *every* access, so its first wrong
    /// touch is guaranteed to be counted). `unaccounted` cross-checks the
    /// counting path itself: an "escaped" row without any recorded shadow
    /// violation would mean a wrong access slipped through verification
    /// uncounted — the silent escape the proptests and the `fault_campaign`
    /// binary assert never happens.
    fn close_fault_accounting(&mut self, end: Time) -> FaultReport {
        let mut report = self.freport;
        let health = self.mitigation.fault_health();
        report.engine_recovered = health.recovered;
        report.degraded_epochs = health.degraded_epochs;
        let violations_recorded = self.shadow.violations() > 0;
        let watch = std::mem::take(&mut self.watch);
        for row in watch {
            if self.escaped.contains(&row) {
                if violations_recorded {
                    report.escaped_counted += 1;
                } else {
                    report.unaccounted += 1;
                }
                continue;
            }
            let gid = GlobalRowId::new(row);
            let tr = self.mitigation.translate(gid, end);
            if self.shadow.check(gid, tr.phys) {
                report.recovered_rows += 1;
            } else {
                report.dormant += 1;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua::{AquaConfig, AquaEngine};
    use aqua_dram::mitigation::NoMitigation;
    use aqua_dram::BaselineConfig;
    use aqua_workload::attack::Hammer;
    use aqua_workload::AddressSpace;

    fn base() -> BaselineConfig {
        BaselineConfig::tiny() // 4 banks, 1024 rows/bank, 1 ms epochs
    }

    fn space() -> AddressSpace {
        AddressSpace::new(base().geometry, 0.75)
    }

    fn aqua_engine(t_rh: u64) -> AquaEngine {
        let cfg = AquaConfig::for_rowhammer_threshold(t_rh, &base()).with_rqa_rows(512);
        let cfg = AquaConfig {
            tracker_entries_per_bank: 256,
            fpt_entries: 1024,
            ..cfg
        };
        AquaEngine::new(cfg).unwrap()
    }

    fn sim_config(t_rh: u64) -> SimConfig {
        SimConfig::new(base()).epochs(2).t_rh(t_rh)
    }

    #[test]
    fn simulations_are_send() {
        // The bench worker pool runs whole simulations on worker threads;
        // this must hold for every mitigation engine (Mitigation: Send).
        fn assert_send<T: Send>() {}
        assert_send::<Simulation<NoMitigation>>();
        assert_send::<Simulation<AquaEngine>>();
        assert_send::<Simulation<aqua_rrs::RrsEngine>>();
        assert_send::<Simulation<aqua_baselines::VictimRefresh>>();
        assert_send::<Simulation<aqua_baselines::Blockhammer>>();
    }

    #[test]
    fn double_sided_attack_flips_without_mitigation() {
        let gen = Box::new(Hammer::double_sided(&space(), 0, 100)) as Box<dyn RequestGenerator>;
        let mut sim = Simulation::new(sim_config(1000), NoMitigation::new(base().geometry), [gen]);
        let report = sim.run();
        // 1 ms epoch at ~45 ns per activation: each aggressor gets ~10K
        // activations -> far beyond T_RH = 1000.
        assert!(report.oracle.rows_over_trh >= 2, "{:?}", report.oracle);
        assert!(report.oracle.max_window_activations > 1000);
    }

    #[test]
    fn aqua_stops_double_sided_attack() {
        let gen = Box::new(Hammer::double_sided(&space(), 0, 100)) as Box<dyn RequestGenerator>;
        let mut sim = Simulation::new(sim_config(1000), aqua_engine(1000), [gen]);
        let report = sim.run();
        assert_eq!(report.oracle.rows_over_trh, 0, "{:?}", report.oracle);
        assert_eq!(report.mitigation.violations, 0);
        assert!(report.mitigation.row_migrations > 0);
        sim.mitigation().check_consistency().unwrap();
    }

    #[test]
    fn migrations_block_the_channel() {
        use aqua_workload::attack::MigrationFlood;
        // A bank-parallel flood keeps the baseline and mitigated bank-level
        // parallelism identical, so the only difference is channel blocking.
        let mk = || Box::new(MigrationFlood::new(&space(), 4, 500)) as Box<dyn RequestGenerator>;
        let mut baseline =
            Simulation::new(sim_config(1000), NoMitigation::new(base().geometry), [mk()]);
        let base_report = baseline.run();
        let mut mitigated = Simulation::new(sim_config(1000), aqua_engine(1000), [mk()]);
        let aqua_report = mitigated.run();
        assert!(
            aqua_report.requests_done < base_report.requests_done,
            "aqua {} vs baseline {}",
            aqua_report.requests_done,
            base_report.requests_done
        );
        assert!(aqua_report.migration_busy > Duration::ZERO);
    }

    #[test]
    fn victim_refresh_stops_classic_but_not_half_double() {
        use aqua_baselines::{VictimRefresh, VictimRefreshConfig};
        // The tiny config's 1 ms epochs accrue ~10K activations per hammered
        // row, so a threshold of 100 keeps the same activation-to-threshold
        // ratio the full system has at T_RH = 1K over 64 ms.
        let t_rh = 100;
        let mk_vr = || {
            let mut cfg = VictimRefreshConfig::for_rowhammer_threshold(t_rh);
            cfg.tracker_entries_per_bank = 256;
            VictimRefresh::new(cfg, base().geometry)
        };
        use aqua_dram::{BankId, RowAddr};
        let victim = RowAddr {
            bank: BankId::new(0),
            row: 100,
        };
        // Classic double-sided around row 100: victim refresh protects the
        // targeted victim (the refresh storm still endangers rows further
        // out — the collateral Half-Double leverages).
        let classic = Box::new(Hammer::double_sided(&space(), 0, 100)) as Box<dyn RequestGenerator>;
        let mut sim = Simulation::new(sim_config(t_rh), mk_vr(), [classic]);
        let classic_report = sim.run();
        assert!(
            !sim.oracle().is_flippable(victim),
            "victim refresh must protect the targeted victim"
        );
        assert!(classic_report.mitigation.victim_refreshes > 0);
        // Half-Double: hammering the distance-2 rows (98 and 102) turns the
        // mitigative refreshes of rows 99/101 into an un-tracked attack on
        // row 100.
        let hd = Box::new(Hammer::half_double(&space(), 0, 100)) as Box<dyn RequestGenerator>;
        let mut sim = Simulation::new(sim_config(t_rh), mk_vr(), [hd]);
        let hd_report = sim.run();
        assert!(
            sim.oracle().is_flippable(victim),
            "Half-Double must defeat victim refresh: {:?}",
            hd_report.oracle
        );
    }

    #[test]
    fn aqua_stops_half_double() {
        let hd = Box::new(Hammer::half_double(&space(), 0, 100)) as Box<dyn RequestGenerator>;
        let mut sim = Simulation::new(sim_config(100), aqua_engine(100), [hd]);
        let report = sim.run();
        assert_eq!(report.oracle.rows_flippable, 0, "{:?}", report.oracle);
        assert_eq!(report.oracle.rows_over_trh, 0);
    }

    #[test]
    fn quiet_stream_sees_no_mitigations() {
        use aqua_workload::HotColdGenerator;
        let s = space();
        let gen = Box::new(HotColdGenerator::uniform(
            &s,
            0,
            512,
            20_000,
            base().epoch,
            3,
        )) as Box<dyn RequestGenerator>;
        let mut sim = Simulation::new(sim_config(1000), aqua_engine(1000), [gen]);
        let report = sim.run();
        assert_eq!(report.mitigation.row_migrations, 0);
        assert_eq!(report.oracle.rows_over_trh, 0);
        assert!(report.requests_done > 0);
    }

    #[test]
    fn data_integrity_holds_under_migration_churn() {
        use aqua_workload::attack::MigrationFlood;
        let flood = Box::new(MigrationFlood::new(&space(), 4, 50)) as Box<dyn RequestGenerator>;
        let mut sim = Simulation::new(sim_config(100), aqua_engine(100), [flood]);
        let report = sim.run();
        assert!(report.mitigation.row_migrations > 50);
        assert_eq!(report.integrity_violations, 0, "data must follow the maps");
    }

    #[test]
    fn rrs_data_integrity_holds_under_swap_churn() {
        use aqua_rrs::{RrsConfig, RrsEngine};
        use aqua_workload::attack::MigrationFlood;
        let mut cfg = RrsConfig::for_rowhammer_threshold(600, &base());
        cfg.tracker_entries_per_bank = 256;
        cfg.rit_pairs = 512;
        // Fresh conflicting pairs keep generating activations even after
        // earlier pairs were swapped apart into separate banks.
        let gen = Box::new(MigrationFlood::new(&space(), 4, 100)) as Box<dyn RequestGenerator>;
        let mut sim = Simulation::new(sim_config(600), RrsEngine::new(cfg), [gen]);
        let report = sim.run();
        assert!(report.mitigation.row_migrations > 10);
        assert_eq!(report.integrity_violations, 0);
    }

    #[test]
    fn closed_page_makes_single_sided_hammering_effective() {
        use aqua_dram::PagePolicy;
        // Under open-page, re-accessing one row produces row-buffer hits and
        // no Rowhammer pressure; a closed-page controller activates on every
        // access, so single-sided hammering works — and AQUA must stop it.
        let mut closed = base();
        closed.page_policy = PagePolicy::Closed;
        let gen = || Box::new(Hammer::single_sided(&space(), 0, 100)) as Box<dyn RequestGenerator>;
        let mut open_sim = Simulation::new(
            sim_config(1000),
            NoMitigation::new(base().geometry),
            [gen()],
        );
        let open_report = open_sim.run();
        assert_eq!(open_report.oracle.rows_over_trh, 0, "open page absorbs it");
        let closed_cfg = SimConfig::new(closed).epochs(2).t_rh(1000);
        let mut closed_sim =
            Simulation::new(closed_cfg, NoMitigation::new(base().geometry), [gen()]);
        let closed_report = closed_sim.run();
        assert!(
            closed_report.oracle.rows_over_trh > 0,
            "closed page hammers"
        );
        let mut protected = Simulation::new(closed_cfg, aqua_engine(1000), [gen()]);
        let protected_report = protected.run();
        assert_eq!(protected_report.oracle.rows_over_trh, 0);
    }

    #[test]
    fn migration_ablation_recovers_throughput_without_changing_behavior() {
        use aqua_workload::attack::MigrationFlood;
        let mk = || Box::new(MigrationFlood::new(&space(), 4, 500)) as Box<dyn RequestGenerator>;
        let full = {
            let mut sim = Simulation::new(sim_config(1000), aqua_engine(1000), [mk()]);
            sim.run()
        };
        let ablated = {
            let cfg = sim_config(1000).ablate(CostAblation::FREE_MIGRATION);
            let mut sim = Simulation::new(cfg, aqua_engine(1000), [mk()]);
            sim.run()
        };
        // Free migrations: rows still quarantine (the run is time-bounded,
        // so the faster ablated run sees at least as many trigger-worthy
        // activations), but demand traffic no longer waits behind them.
        assert!(
            ablated.mitigation.row_migrations >= full.mitigation.row_migrations,
            "ablated {} vs full {}",
            ablated.mitigation.row_migrations,
            full.mitigation.row_migrations
        );
        assert!(
            ablated.requests_done > full.requests_done,
            "ablated {} vs full {}",
            ablated.requests_done,
            full.requests_done
        );
        assert_eq!(ablated.migration_busy, Duration::ZERO);
        assert_eq!(ablated.integrity_violations, 0);
    }

    #[test]
    fn no_op_ablation_is_identical_to_the_plain_run() {
        let mk = || Box::new(Hammer::double_sided(&space(), 0, 100)) as Box<dyn RequestGenerator>;
        let mut plain = Simulation::new(sim_config(1000), aqua_engine(1000), [mk()]);
        let cfg = sim_config(1000).ablate(CostAblation::NONE);
        let mut wired = Simulation::new(cfg, aqua_engine(1000), [mk()]);
        assert_eq!(plain.run(), wired.run());
    }

    #[test]
    fn attaching_a_detached_hub_changes_nothing() {
        let mk = || Box::new(Hammer::double_sided(&space(), 0, 100)) as Box<dyn RequestGenerator>;
        let mut plain = Simulation::new(sim_config(1000), aqua_engine(1000), [mk()]);
        let mut detached = Simulation::new(sim_config(1000), aqua_engine(1000), [mk()]);
        detached.attach_telemetry(Telemetry::disabled());
        let report = detached.run();
        assert!(report.mitigation.row_migrations > 0);
        assert!(report.telemetry.is_none());
        assert_eq!(plain.run(), report);
    }

    #[test]
    fn migration_lifecycle_emits_nested_spans() {
        use aqua_telemetry::{Telemetry, TelemetryConfig};
        let gen = Box::new(Hammer::double_sided(&space(), 0, 100)) as Box<dyn RequestGenerator>;
        let mut sim = Simulation::new(sim_config(1000), aqua_engine(1000), [gen]);
        let hub = Telemetry::new(TelemetryConfig::default());
        sim.attach_telemetry(hub.clone());
        let report = sim.run();
        assert!(report.mitigation.row_migrations > 0);
        let spans = hub.spans();
        let roots: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "sim.mitigation")
            .collect();
        assert!(!roots.is_empty(), "no mitigation root spans");
        let installs: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "migration.install")
            .collect();
        assert!(!installs.is_empty(), "no install spans");
        // Every migration span nests under a root and spans real time.
        let root_ids: std::collections::BTreeSet<u64> = roots.iter().map(|s| s.id).collect();
        for m in &installs {
            let parent = m.parent.expect("install span must have a parent");
            assert!(
                spans.iter().any(|s| s.id == parent),
                "parent of install span missing from trace"
            );
            assert!(m.duration_ps() > 0, "install spans real channel time");
            // The parent chain reaches a sim.mitigation or sim.refresh_tick
            // root within two hops (engine decision span in between).
            let mut cur = parent;
            let mut hops = 0;
            while hops < 3 {
                if root_ids.contains(&cur) {
                    break;
                }
                let Some(p) = spans.iter().find(|s| s.id == cur).and_then(|s| s.parent) else {
                    break;
                };
                cur = p;
                hops += 1;
            }
        }
        // Waiting spans appear: the flood of migrations must have blocked
        // at least one demand access.
        assert!(
            spans.iter().any(|s| s.name == "sim.bank_block"),
            "no bank-block spans despite migrations"
        );
        let summary = report.telemetry.unwrap();
        assert!(summary.histogram("span.sim.mitigation").is_some());
        assert!(summary.spans_recorded > 0);
    }

    #[test]
    fn fault_campaign_accounts_for_every_corruption() {
        let spec = FaultSpec {
            seed: 11,
            events_per_epoch: 24,
        };
        let mk = || Box::new(Hammer::double_sided(&space(), 0, 100)) as Box<dyn RequestGenerator>;
        let run = || {
            let mut sim = Simulation::new(sim_config(1000).faults(spec), aqua_engine(1000), [mk()]);
            sim.run()
        };
        let report = run();
        let f = report.faults;
        assert_eq!(f.injected, 48, "every scheduled event dispatched");
        assert_eq!(
            f.corruptions,
            f.recovered_rows + f.escaped_counted + f.dormant + f.unaccounted,
            "{f:?}"
        );
        assert_eq!(f.unaccounted, 0, "no silent escapes: {f:?}");
        // Byte-identical replay: the same seed reproduces the whole report.
        assert_eq!(report, run());
    }

    #[test]
    fn fault_free_runs_are_unchanged_by_the_fault_plumbing() {
        let mk = || Box::new(Hammer::double_sided(&space(), 0, 100)) as Box<dyn RequestGenerator>;
        let mut plain = Simulation::new(sim_config(1000), aqua_engine(1000), [mk()]);
        let zero_rate = SimConfig::new(base())
            .epochs(2)
            .t_rh(1000)
            .faults(FaultSpec {
                seed: 5,
                events_per_epoch: 0,
            });
        let mut wired = Simulation::new(zero_rate, aqua_engine(1000), [mk()]);
        assert_eq!(plain.run(), wired.run());
    }

    #[test]
    fn dram_command_fault_blinds_the_mitigation_for_one_activation() {
        use aqua_faults::FaultEvent;
        let gen = Box::new(Hammer::double_sided(&space(), 0, 100)) as Box<dyn RequestGenerator>;
        let mut sim = Simulation::new(sim_config(1000), aqua_engine(1000), [gen]);
        sim.apply_fault(
            FaultEvent {
                at_ps: 0,
                kind: FaultKind::DramCommandFault,
            },
            Time::ZERO,
        );
        assert_eq!(sim.suppress_notifications, 1);
        assert_eq!(sim.freport.applied, 1);
        let phys = aqua_dram::RowAddr {
            bank: aqua_dram::BankId::new(0),
            row: 7,
        };
        // The suppressed notification never reaches the scheme...
        let mut actions = Vec::new();
        sim.notify_activation_into(phys, Time::ZERO, &mut actions);
        assert!(actions.is_empty());
        assert_eq!(sim.suppress_notifications, 0);
        assert_eq!(sim.mitigation().tracker_stats().activations, 0);
        // ...but the next one does.
        sim.notify_activation_into(phys, Time::ZERO, &mut actions);
        assert_eq!(sim.mitigation().tracker_stats().activations, 1);
    }

    #[test]
    #[should_panic(expected = "watchdog")]
    fn watchdog_converts_a_hung_run_into_a_panic() {
        let gen = Box::new(Hammer::double_sided(&space(), 0, 100)) as Box<dyn RequestGenerator>;
        let cfg = sim_config(1000).watchdog(std::time::Duration::ZERO);
        let mut sim = Simulation::new(cfg, NoMitigation::new(base().geometry), [gen]);
        sim.run();
    }

    /// The soft deadline escalates (report + counter + event) but lets the
    /// run finish; results are unchanged by the escalation.
    #[test]
    fn soft_watchdog_reports_a_straggler_without_aborting() {
        let mk = |cfg: SimConfig| {
            let gen = Box::new(Hammer::double_sided(&space(), 0, 100)) as Box<dyn RequestGenerator>;
            let mut sim = Simulation::new(cfg, NoMitigation::new(base().geometry), [gen]);
            let hub = Telemetry::new(Default::default());
            sim.attach_telemetry(hub.clone());
            (sim.run(), hub)
        };
        // Soft deadline of zero: every run past its first serve escalates.
        let (slow, hub) = mk(sim_config(1000).soft_watchdog(std::time::Duration::ZERO));
        let (plain, _) = mk(sim_config(1000));
        assert!(slow.requests_done > 0);
        // Escalation never changes simulated results.
        assert_eq!(slow.requests_done, plain.requests_done);
        assert_eq!(slow.mitigation, plain.mitigation);
        let summary = hub.summary().unwrap();
        // Fires exactly once per run, even though many serves follow.
        assert_eq!(summary.counter("sim.straggler_reports"), Some(1));
        assert!(hub
            .trace_events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::StragglerReport { .. })));
    }

    #[test]
    fn epochs_are_counted() {
        let gen = Box::new(Hammer::single_sided(&space(), 0, 5)) as Box<dyn RequestGenerator>;
        let mut sim = Simulation::new(
            sim_config(1000).epochs(3),
            NoMitigation::new(base().geometry),
            [gen],
        );
        let report = sim.run();
        assert_eq!(report.epochs, 3);
        assert_eq!(report.oracle.epochs, 3);
    }

    #[test]
    fn multi_core_counts_all_streams() {
        let mk =
            |b: u32| Box::new(Hammer::single_sided(&space(), b, 7)) as Box<dyn RequestGenerator>;
        let mut quad = base();
        quad.cores = 4;
        let mut sim = Simulation::new(
            SimConfig::new(quad).epochs(2).t_rh(1_000_000),
            NoMitigation::new(base().geometry),
            [mk(0), mk(1), mk(2), mk(3)],
        );
        let report = sim.run();
        assert_eq!(report.per_core.len(), 4);
        assert!(report.per_core.iter().all(|&c| c > 0));
        assert_eq!(report.requests_done, report.per_core.iter().sum::<u64>());
    }
}
