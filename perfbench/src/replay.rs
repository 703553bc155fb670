//! The layer-replay ledger: `Simulation::run`'s serve loop replayed from
//! outside through the layers' public calls, so the host time of each layer
//! can be read without touching the simulator.
//!
//! The replay must stay faithful: it reproduces the run's per-core request
//! counts, row migrations, oracle summary and integrity count exactly, and
//! `probe.faithful` reports whether it did. It leaves out only what has no
//! simulated effect on a fault-free, unablated run: telemetry, histograms,
//! epoch sampling and the watchdog.
//!
//! In a traced replay every `STRIDE`-th access is timed as a chain of
//! fenced time stamps, one after each layer call, so the regions of one
//! access cover it without gaps; refresh ticks, epoch ends and mitigation
//! actions are timed on every call. Each region pays the timer floor (one
//! stamp, calibrated by `host::Timer`), which the ledger subtracts before
//! scaling the sampled mean up to all calls.
//!
//! The fences expose each layer's cache misses in its own region, but they
//! also stop the overlap between layers and accesses that an untimed run
//! has, so the floor-corrected layer times add up to more than the
//! untraced replay took. `Ledger::scale` is that ratio; the reported layer
//! times are divided by it, so they add up to the untraced replay's wall
//! and keep the shares the fenced stamps measured.

use crate::cells::WithEngine;
use crate::host::{ticks, Timer};
use aqua_bench::Harness;
use aqua_dram::mitigation::{Mitigation, MitigationAction};
use aqua_dram::{Bank, Channel, Duration, RefreshScheduler, Time};
use aqua_sim::{ActivationOracle, CoreState, OracleSummary, ShadowMemory};
use aqua_workload::{MemoryRequest, RequestGenerator};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Every `STRIDE`-th access is timed in a traced replay.
pub const STRIDE: u64 = 8;

/// The layers the ledger separates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Picking the next core to serve (`CoreState::ready_at` over cores).
    Sched,
    /// `Mitigation::translate`.
    Translate,
    /// `RefreshScheduler::next_available`.
    Refresh,
    /// `Bank::access`.
    Bank,
    /// `Channel::reserve_*` on the demand path.
    Channel,
    /// `ActivationOracle::record`.
    OracleRecord,
    /// `ShadowMemory::verify`.
    ShadowVerify,
    /// `Mitigation::on_activation_into`.
    Activate,
    /// Applying one mitigation action to channel, banks, oracle and shadow.
    ApplyAction,
    /// `CoreState::commit`, generator excluded.
    Commit,
    /// `RequestGenerator::next_request`.
    NextRequest,
    /// `Mitigation::on_refresh_tick_into`.
    Tick,
    /// `Mitigation::end_epoch`.
    EndEpoch,
    /// `ActivationOracle::end_epoch`.
    OracleEndEpoch,
}

pub const LAYERS: usize = 14;

/// Every layer, in ledger order.
pub const ALL: [Layer; LAYERS] = [
    Layer::Sched,
    Layer::Translate,
    Layer::Refresh,
    Layer::Bank,
    Layer::Channel,
    Layer::OracleRecord,
    Layer::ShadowVerify,
    Layer::Activate,
    Layer::ApplyAction,
    Layer::Commit,
    Layer::NextRequest,
    Layer::Tick,
    Layer::EndEpoch,
    Layer::OracleEndEpoch,
];

/// Raw timings and exact call counts per layer.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Ticks read by the timed regions, floor included.
    raw: [u64; LAYERS],
    /// Timed regions.
    timed: [u64; LAYERS],
    /// Calls made over the whole replay.
    pub calls: [u64; LAYERS],
}

impl Ledger {
    /// Books the region from `since` to now to `layer`; returns now.
    fn time(&mut self, layer: Layer, since: u64) -> u64 {
        let now = ticks();
        self.raw[layer as usize] += now.wrapping_sub(since);
        self.timed[layer as usize] += 1;
        now
    }

    /// Fenced host nanoseconds of `layer` over the whole replay: the
    /// floor-corrected mean of the timed regions times the calls made.
    ///
    /// `Commit` contains the nested `NextRequest` region: its time is taken
    /// out, with two more floors for the inner stamps.
    pub fn fenced_ns(&self, layer: Layer, timer: Timer) -> f64 {
        let mean = |l: Layer| {
            let i = l as usize;
            if self.timed[i] == 0 {
                0.0
            } else {
                self.raw[i] as f64 * timer.ns_per_tick / self.timed[i] as f64 - timer.floor_ns
            }
        };
        let per_call = match layer {
            Layer::Commit => mean(Layer::Commit) - mean(Layer::NextRequest) - 2.0 * timer.floor_ns,
            l => mean(l),
        };
        per_call * self.calls[layer as usize] as f64
    }

    /// Fenced layer time over untraced wall: how much the fences inflate
    /// the layers (1 = not at all).
    pub fn scale(&self, timer: Timer, untraced_s: f64) -> f64 {
        let fenced: f64 = ALL.iter().map(|&l| self.fenced_ns(l, timer)).sum();
        fenced / (untraced_s * 1e9)
    }

    /// Folds another replay's ledger into this one.
    pub fn add(&mut self, other: &Ledger) {
        for i in 0..LAYERS {
            self.raw[i] += other.raw[i];
            self.timed[i] += other.timed[i];
            self.calls[i] += other.calls[i];
        }
    }
}

/// Timing shared between a traced replay and its wrapped generators.
#[derive(Default)]
struct GenClock {
    armed: AtomicBool,
    raw: AtomicU64,
    timed: AtomicU64,
}

/// A generator that times its `next_request` while the replay has armed
/// the clock (the sampled accesses' `CoreState::commit`).
struct TimedGen {
    inner: Box<dyn RequestGenerator>,
    clock: Arc<GenClock>,
}

impl RequestGenerator for TimedGen {
    fn next_request(&mut self) -> MemoryRequest {
        if !self.clock.armed.load(Ordering::Relaxed) {
            return self.inner.next_request();
        }
        let start = ticks();
        let req = self.inner.next_request();
        let spent = ticks().wrapping_sub(start);
        self.clock.raw.fetch_add(spent, Ordering::Relaxed);
        self.clock.timed.fetch_add(1, Ordering::Relaxed);
        req
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// What one replay observed.
#[derive(Debug, Clone)]
pub struct ReplayOut {
    pub per_core: Vec<u64>,
    pub accesses: u64,
    /// Demand and table-row activations (the oracle records each).
    pub activations: u64,
    /// Bank accesses, demand and table rows.
    pub bank_accesses: u64,
    pub actions: u64,
    pub dram_table_reads: u64,
    pub row_migrations: u64,
    pub oracle: OracleSummary,
    pub integrity_violations: u64,
    /// Host seconds of the replay loop (set-up excluded).
    pub wall_s: f64,
    pub ledger: Ledger,
}

/// A replay of one cell; `TRACED` selects the timed variant at compile
/// time, so the untraced replay carries no timing code at all.
pub struct Replay<'a, const TRACED: bool> {
    pub h: &'a Harness,
    pub workload: &'a str,
}

impl<const TRACED: bool> WithEngine for Replay<'_, TRACED> {
    type Out = ReplayOut;
    fn run<M: Mitigation>(self, engine: impl FnOnce() -> M) -> ReplayOut {
        Machine::<M, TRACED>::new(self.h, self.workload, engine()).run()
    }
}

/// The simulator's state, owned by the replay.
struct Machine<M, const TRACED: bool> {
    banks: Vec<Bank>,
    channel: Channel,
    refresh: RefreshScheduler,
    mitigation: M,
    oracle: ActivationOracle,
    shadow: ShadowMemory,
    cores: Vec<CoreState>,
    burst: Duration,
    actions: Vec<MitigationAction>,
    clock: Arc<GenClock>,
    ledger: Ledger,
    /// Whether the access being served is timed.
    sampled: bool,
    /// The last stamp of the sampled access's chain.
    mark: u64,
    counts: Counts,
    epoch_len: Duration,
    epochs: u64,
    t_refi: Duration,
}

#[derive(Default)]
struct Counts {
    accesses: u64,
    activations: u64,
    bank_accesses: u64,
    actions: u64,
    dram_table_reads: u64,
}

/// Evaluates `$e`; when the current access is sampled in a traced replay,
/// books the time since the chain's last stamp to `$layer`.
macro_rules! lap {
    ($m:expr, $layer:expr, $e:expr) => {{
        let out = $e;
        if TRACED && $m.sampled {
            $m.mark = $m.ledger.time($layer, $m.mark);
        }
        out
    }};
}

impl<M: Mitigation, const TRACED: bool> Machine<M, TRACED> {
    fn new(h: &Harness, workload: &str, mitigation: M) -> Self {
        let cfg = h.sim_config(mitigation.name(), workload);
        let base = cfg.base;
        let clock = Arc::new(GenClock::default());
        let cores = h
            .generators(workload)
            .into_iter()
            .map(|g| {
                let g: Box<dyn RequestGenerator> = if TRACED {
                    Box::new(TimedGen {
                        inner: g,
                        clock: Arc::clone(&clock),
                    })
                } else {
                    g
                };
                CoreState::new(g, base.mlp)
            })
            .collect();
        let mut shadow = ShadowMemory::new(&base.geometry);
        for row in mitigation.reserved_rows() {
            shadow.vacate(row);
        }
        Machine {
            banks: (0..base.geometry.total_banks())
                .map(|_| Bank::with_policy(base.timing, base.page_policy))
                .collect(),
            channel: Channel::new(),
            refresh: RefreshScheduler::new(&base.timing),
            oracle: ActivationOracle::new(&base.geometry, cfg.t_rh),
            shadow,
            mitigation,
            cores,
            burst: base.timing.t_ccd_s,
            actions: Vec::new(),
            clock,
            ledger: Ledger::default(),
            sampled: false,
            mark: 0,
            counts: Counts::default(),
            epoch_len: base.epoch,
            epochs: cfg.epochs,
            t_refi: base.timing.t_refi,
        }
    }

    /// `Simulation::run` without its observers.
    fn run(mut self) -> ReplayOut {
        let started = Instant::now();
        let end = Time::ZERO + self.epoch_len.checked_scale(self.epochs);
        let mut next_epoch = Time::ZERO + self.epoch_len;
        let mut next_tick = Time::ZERO + self.t_refi;
        loop {
            self.sampled = TRACED && self.counts.accesses.is_multiple_of(STRIDE);
            if self.sampled {
                self.mark = ticks();
            }
            let next = lap!(
                self,
                Layer::Sched,
                self.cores
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (i, c.ready_at()))
                    .min_by_key(|&(_, t)| t)
            );
            let Some((ci, t)) = next else { break };
            if t >= end {
                break;
            }
            while t >= next_tick {
                self.tick(next_tick);
                next_tick += self.t_refi;
            }
            while t >= next_epoch {
                self.end_epoch();
                next_epoch += self.epoch_len;
            }
            self.restart_chain();
            self.serve(ci, t);
        }
        while next_epoch <= end {
            self.end_epoch();
            next_epoch += self.epoch_len;
        }
        let wall_s = started.elapsed().as_secs_f64();
        for layer in [
            Layer::Sched,
            Layer::Translate,
            Layer::Refresh,
            Layer::ShadowVerify,
            Layer::Commit,
            Layer::NextRequest,
        ] {
            self.ledger.calls[layer as usize] = self.counts.accesses;
        }
        self.ledger.raw[Layer::NextRequest as usize] = self.clock.raw.load(Ordering::Relaxed);
        self.ledger.timed[Layer::NextRequest as usize] = self.clock.timed.load(Ordering::Relaxed);
        ReplayOut {
            per_core: self.cores.iter().map(CoreState::issued).collect(),
            accesses: self.counts.accesses,
            activations: self.counts.activations,
            bank_accesses: self.counts.bank_accesses,
            actions: self.counts.actions,
            dram_table_reads: self.counts.dram_table_reads,
            row_migrations: self.mitigation.mitigation_stats().row_migrations,
            oracle: self.oracle.summary(),
            integrity_violations: self.shadow.violations(),
            wall_s,
            ledger: self.ledger,
        }
    }

    /// Starts the sampled access's chain afresh after work that is timed
    /// on its own.
    fn restart_chain(&mut self) {
        if TRACED && self.sampled {
            self.mark = ticks();
        }
    }

    fn tick(&mut self, at: Time) {
        let start = TRACED.then(ticks);
        let mut actions = std::mem::take(&mut self.actions);
        self.mitigation.on_refresh_tick_into(at, &mut actions);
        if let Some(start) = start {
            self.ledger.time(Layer::Tick, start);
        }
        self.ledger.calls[Layer::Tick as usize] += 1;
        self.apply_actions(&mut actions, at, at);
        self.actions = actions;
    }

    fn end_epoch(&mut self) {
        let start = TRACED.then(ticks);
        self.mitigation.end_epoch();
        if let Some(start) = start {
            self.ledger.time(Layer::EndEpoch, start);
        }
        let start = TRACED.then(ticks);
        self.oracle.end_epoch();
        if let Some(start) = start {
            self.ledger.time(Layer::OracleEndEpoch, start);
        }
        self.ledger.calls[Layer::EndEpoch as usize] += 1;
        self.ledger.calls[Layer::OracleEndEpoch as usize] += 1;
    }

    /// Applies and drains `actions` (every one timed in a traced replay);
    /// returns the possibly throttle-delayed completion.
    fn apply_actions(
        &mut self,
        actions: &mut Vec<MitigationAction>,
        at: Time,
        mut completion: Time,
    ) -> Time {
        for action in actions.drain(..) {
            let start = TRACED.then(ticks);
            match action {
                MitigationAction::BlockChannel {
                    duration, movement, ..
                } => {
                    self.channel.reserve_migration(at, duration);
                    self.shadow.apply(movement);
                }
                MitigationAction::RefreshRows(rows) => {
                    for r in rows {
                        self.banks[r.bank.index() as usize].refresh_row(r.row, at);
                        self.oracle.record_refresh(r);
                    }
                }
                MitigationAction::Throttle { delay } => completion += delay,
                MitigationAction::TableWrites { count } => {
                    for _ in 0..count {
                        self.channel.reserve_table_access(at, self.burst);
                    }
                }
            }
            if let Some(start) = start {
                self.ledger.time(Layer::ApplyAction, start);
            }
            self.counts.actions += 1;
            self.ledger.calls[Layer::ApplyAction as usize] += 1;
        }
        completion
    }

    fn bank_access(&mut self, row: aqua_dram::RowAddr, at: Time) -> aqua_dram::AccessResult {
        self.counts.bank_accesses += 1;
        self.ledger.calls[Layer::Bank as usize] += 1;
        lap!(
            self,
            Layer::Bank,
            self.banks[row.bank.index() as usize].access(row.row, at)
        )
    }

    /// Oracle record plus mitigation consultation for one activation.
    fn activate(&mut self, phys: aqua_dram::RowAddr, at: Time, completion: Time) -> Time {
        self.counts.activations += 1;
        self.ledger.calls[Layer::OracleRecord as usize] += 1;
        self.ledger.calls[Layer::Activate as usize] += 1;
        lap!(self, Layer::OracleRecord, self.oracle.record(phys));
        let mut actions = std::mem::take(&mut self.actions);
        lap!(
            self,
            Layer::Activate,
            self.mitigation.on_activation_into(phys, at, &mut actions)
        );
        let completion = if actions.is_empty() {
            completion
        } else {
            let completion = self.apply_actions(&mut actions, at, completion);
            self.restart_chain();
            completion
        };
        self.actions = actions;
        completion
    }

    /// `Simulation::serve` without its observers.
    fn serve(&mut self, ci: usize, t0: Time) {
        let req = self.cores[ci].pending();
        let tr = lap!(
            self,
            Layer::Translate,
            self.mitigation.translate(req.row, t0)
        );
        self.counts.dram_table_reads += u64::from(tr.dram_table_reads);
        let mut t = lap!(
            self,
            Layer::Refresh,
            self.refresh.next_available(t0 + tr.lookup_latency)
        );
        if let Some(trow) = tr.table_row {
            let start = t.max(self.channel.blocked_until());
            let res = self.bank_access(trow, start);
            self.ledger.calls[Layer::Channel as usize] += 1;
            let slot = lap!(
                self,
                Layer::Channel,
                self.channel
                    .reserve_table_access(res.data_ready, self.burst)
            );
            if res.activated {
                self.activate(trow, res.data_ready, res.data_ready);
            }
            t = slot + self.burst;
        }
        lap!(
            self,
            Layer::ShadowVerify,
            self.shadow.verify(req.row, tr.phys)
        );
        let start = t.max(self.channel.blocked_until());
        let res = self.bank_access(tr.phys, start);
        self.ledger.calls[Layer::Channel as usize] += 1;
        let slot = lap!(
            self,
            Layer::Channel,
            self.channel.reserve_burst(res.data_ready, self.burst)
        );
        let mut completion = slot + self.burst;
        if res.activated {
            completion = self.activate(tr.phys, completion, completion);
        }
        if TRACED {
            self.clock.armed.store(self.sampled, Ordering::Relaxed);
        }
        lap!(self, Layer::Commit, self.cores[ci].commit(t0, completion));
        if TRACED {
            self.clock.armed.store(false, Ordering::Relaxed);
        }
        self.counts.accesses += 1;
    }
}
