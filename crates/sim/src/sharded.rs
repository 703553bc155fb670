//! Sharded multi-channel simulation.
//!
//! DRAM channels are architecturally independent: each has its own banks,
//! row space, refresh schedule, and — in every scheme this repo models —
//! its own mitigation-engine instance (AQUA's trackers, RQA, and mapping
//! tables are all per-channel structures). [`ShardedSimulation`] exploits
//! that: it builds one complete single-channel [`Simulation`] per channel
//! (its own engine, banks, cores, fault plan, and a forked telemetry hub)
//! and fans the shards out on the [`crate::pool`] worker pool.
//!
//! Determinism is the contract: every shard is constructed and seeded in
//! channel order on the caller's thread, shards never share mutable state
//! while running, and results (reports, telemetry forks, panics) are
//! merged back in channel order after the pool drains. The output is
//! therefore byte-identical for any `shard_workers` count — `1` recovers
//! strictly serial execution on the caller's thread, and the bench
//! determinism suite diffs CSV/spans/journal bytes across 1, 2, and 8
//! workers to hold the line.
//!
//! Host-time accounting: the coordinator opens a `sim.sharded` wallclock
//! phase around fork + pool + merge, and each shard's profile is merged
//! under `sim.sharded;shard{i}` via
//! [`Telemetry::merge_from_prefixed`]. The root
//! `sim.sharded` row keeps the coordinator's *real* elapsed time while its
//! child time sums the per-shard run times, so on a parallel host the
//! speedup is visible as child time exceeding self+total time.

// Shard cells are mutexes only this runner locks, and each is taken
// exactly once; a poisoned lock is unreachable (job panics are contained
// by the pool's catch_unwind before a guard is held across them).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crate::{pool, RunReport, SimConfig, Simulation};
use aqua_dram::mitigation::Mitigation;
use aqua_faults::derive_cell_seed;
use aqua_telemetry::{MetricsPlane, Telemetry};
use aqua_workload::RequestGenerator;
use std::sync::{Arc, Mutex};

/// Runs one independent [`Simulation`] per DRAM channel and merges the
/// results deterministically.
///
/// The two factories are called once per channel, in channel order, on the
/// caller's thread: `engines(c)` builds channel `c`'s private mitigation
/// engine and `generators(c)` its core request streams. Channel 0 replays
/// the configured fault seed unchanged (so a 1-channel sharded run is
/// byte-identical to a plain [`Simulation`]); higher channels derive
/// distinct per-channel fault seeds.
///
/// # Example
///
/// ```no_run
/// use aqua_dram::mitigation::NoMitigation;
/// use aqua_dram::BaselineConfig;
/// use aqua_sim::{ShardedSimulation, SimConfig};
/// use aqua_workload::{spec, AddressSpace, RequestGenerator};
///
/// let base = BaselineConfig::paper_table1().with_channels(4);
/// let cfg = SimConfig::new(base).epochs(2);
/// let space = AddressSpace::new(base.geometry, 0.98);
/// let lbm = spec::by_name("lbm").unwrap();
/// let mut sim = ShardedSimulation::new(
///     cfg,
///     |_c| NoMitigation::new(base.geometry),
///     |c| {
///         (0..base.cores)
///             .map(|core| {
///                 Box::new(lbm.generator(&space, core, base.cores, 42 + u64::from(c)))
///                     as Box<dyn RequestGenerator>
///             })
///             .collect()
///     },
/// );
/// let report = sim.run();
/// println!("requests completed: {}", report.requests_done);
/// ```
pub struct ShardedSimulation<M, EF, GF>
where
    M: Mitigation,
    EF: FnMut(u32) -> M,
    GF: FnMut(u32) -> Vec<Box<dyn RequestGenerator>>,
{
    cfg: SimConfig,
    engines: EF,
    generators: GF,
    shard_workers: usize,
    telemetry: Telemetry,
    /// Live metrics plane plus the base source label; each channel shard
    /// publishes under `{label};ch{c}`.
    plane: Option<(Arc<MetricsPlane>, String)>,
}

impl<M, EF, GF> ShardedSimulation<M, EF, GF>
where
    M: Mitigation,
    EF: FnMut(u32) -> M,
    GF: FnMut(u32) -> Vec<Box<dyn RequestGenerator>>,
{
    /// Builds a sharded simulation over `cfg.base.channels` channels.
    pub fn new(cfg: SimConfig, engines: EF, generators: GF) -> Self {
        ShardedSimulation {
            cfg,
            engines,
            generators,
            shard_workers: 0,
            telemetry: Telemetry::disabled(),
            plane: None,
        }
    }

    /// Caps concurrent shard workers (`0` = auto: one per channel, bounded
    /// by the host's available parallelism). Worker count never changes
    /// results — only wallclock.
    pub fn shard_workers(mut self, workers: usize) -> Self {
        self.shard_workers = workers;
        self
    }

    /// Attaches the telemetry hub the merged results land in. Each shard
    /// runs against its own fork; forks are merged back in channel order.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Attaches the live metrics plane. Each channel shard publishes its
    /// epoch snapshots under `{source};ch{c}` (the single-channel
    /// pass-through publishes as `{source};ch0`), which is what the
    /// plane's per-channel imbalance rollup groups on.
    pub fn attach_metrics_plane(&mut self, plane: Arc<MetricsPlane>, source: impl Into<String>) {
        self.plane = Some((plane, source.into()));
    }

    /// The simulation configuration of one channel shard: a single-channel
    /// view of the system, with channel 0 keeping the configured fault seed
    /// (byte-compatibility with the unsharded path) and higher channels
    /// deriving independent seeds.
    fn shard_config(&self, channel: u32) -> SimConfig {
        let mut cfg = self.cfg;
        cfg.base.channels = 1;
        if channel > 0 {
            if let Some(spec) = &mut cfg.faults {
                spec.seed = derive_cell_seed(spec.seed, "channel", &channel.to_string());
            }
        }
        cfg
    }

    /// Worker threads actually used for this topology.
    fn effective_workers(&self, channels: u32) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let requested = if self.shard_workers == 0 {
            auto
        } else {
            self.shard_workers
        };
        requested.min(channels as usize).max(1)
    }

    /// Runs every channel shard and merges the results.
    ///
    /// With a single channel this is an exact pass-through to
    /// [`Simulation::run`] (no fork, no `sim.sharded` phase, no report
    /// roll-up), so existing single-channel configurations are bit-for-bit
    /// unchanged.
    ///
    /// # Panics
    ///
    /// A panicking shard (e.g. its watchdog expiring) is re-raised on the
    /// caller's thread after all shards drain, lowest channel first, with
    /// the channel index prefixed to the original message — the original
    /// text is preserved verbatim so failure classifiers keyed on it (the
    /// bench watchdog taxonomy) still match.
    pub fn run(&mut self) -> RunReport {
        let channels = self.cfg.base.channels.max(1);
        if channels == 1 {
            let mut sim = Simulation::new(
                self.shard_config(0),
                (self.engines)(0),
                (self.generators)(0),
            );
            sim.attach_telemetry(self.telemetry.clone());
            if let Some((plane, source)) = &self.plane {
                sim.attach_metrics_plane(Arc::clone(plane), format!("{source};ch0"));
            }
            return sim.run();
        }
        let coordinator = self.telemetry.phase("sim.sharded");
        // Construct every shard serially, in channel order: engine and
        // generator factories may be stateful, and fork order is part of
        // the determinism contract.
        type ShardCell<M> = Mutex<Option<(Simulation<M>, Telemetry)>>;
        let shards: Vec<ShardCell<M>> = (0..channels)
            .map(|c| {
                let hub = self.telemetry.fork();
                let mut sim = Simulation::new(
                    self.shard_config(c),
                    (self.engines)(c),
                    (self.generators)(c),
                );
                sim.attach_telemetry(hub.clone());
                if let Some((plane, source)) = &self.plane {
                    sim.attach_metrics_plane(Arc::clone(plane), format!("{source};ch{c}"));
                }
                Mutex::new(Some((sim, hub)))
            })
            .collect();
        let workers = self.effective_workers(channels);
        // Channel labels feed the opt-in progress reporter only
        // (AQUA_BENCH_PROGRESS=1): a long multi-channel run shows which
        // channels are still in flight.
        let labels = (0..channels).map(|c| format!("ch{c}")).collect();
        let outcomes = pool::run_labeled(workers, &shards, labels, |_, cell| {
            let (mut sim, hub) = cell
                .lock()
                .unwrap()
                .take()
                .expect("each shard cell is taken exactly once");
            let report = sim.run();
            (report, hub)
        });
        let mut reports = Vec::with_capacity(channels as usize);
        for (c, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok((report, hub)) => {
                    self.telemetry
                        .merge_from_prefixed(&hub, &format!("sim.sharded;shard{c}"));
                    reports.push(report);
                }
                Err(msg) => panic!("channel {c}: {msg}"),
            }
        }
        coordinator.finish();
        let mut merged = merge_reports(reports);
        merged.telemetry = self.telemetry.summary();
        merged
    }
}

/// Folds per-channel reports into one system-level report, in channel
/// order: counts and busy durations sum, `per_core` concatenates
/// channel-major (core `j` of channel `c` lands at `c * cores + j`), the
/// oracle's window maximum takes the max across channels, and epoch counts
/// must agree.
fn merge_reports(reports: Vec<RunReport>) -> RunReport {
    let mut iter = reports.into_iter();
    let mut merged = match iter.next() {
        Some(first) => first,
        None => return RunReport::default(),
    };
    for r in iter {
        assert_eq!(
            merged.epochs, r.epochs,
            "every channel shard simulates the same epoch count"
        );
        merged.requests_done += r.requests_done;
        merged.per_core.extend(r.per_core);
        merged.data_busy += r.data_busy;
        merged.migration_busy += r.migration_busy;
        merged.table_busy += r.table_busy;
        merged.mitigation.row_migrations += r.mitigation.row_migrations;
        merged.mitigation.mitigations_triggered += r.mitigation.mitigations_triggered;
        merged.mitigation.victim_refreshes += r.mitigation.victim_refreshes;
        merged.mitigation.throttled += r.mitigation.throttled;
        merged.mitigation.violations += r.mitigation.violations;
        merged.oracle.max_window_activations = merged
            .oracle
            .max_window_activations
            .max(r.oracle.max_window_activations);
        merged.oracle.rows_over_trh += r.oracle.rows_over_trh;
        merged.oracle.total_activations += r.oracle.total_activations;
        merged.oracle.rows_flippable += r.oracle.rows_flippable;
        merged.oracle.avg_rows_166 += r.oracle.avg_rows_166;
        merged.oracle.avg_rows_500 += r.oracle.avg_rows_500;
        merged.oracle.avg_rows_1000 += r.oracle.avg_rows_1000;
        merged.integrity_violations += r.integrity_violations;
        merged.faults.injected += r.faults.injected;
        merged.faults.unsupported += r.faults.unsupported;
        merged.faults.applied += r.faults.applied;
        merged.faults.corruptions += r.faults.corruptions;
        merged.faults.recovered_rows += r.faults.recovered_rows;
        merged.faults.escaped_counted += r.faults.escaped_counted;
        merged.faults.dormant += r.faults.dormant;
        merged.faults.unaccounted += r.faults.unaccounted;
        merged.faults.engine_recovered += r.faults.engine_recovered;
        merged.faults.degraded_epochs += r.faults.degraded_epochs;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua::{AquaConfig, AquaEngine};
    use aqua_dram::mitigation::NoMitigation;
    use aqua_dram::BaselineConfig;
    use aqua_faults::FaultSpec;
    use aqua_workload::attack::Hammer;
    use aqua_workload::AddressSpace;

    fn base(channels: u32) -> BaselineConfig {
        BaselineConfig::tiny().with_channels(channels)
    }

    fn space() -> AddressSpace {
        AddressSpace::new(BaselineConfig::tiny().geometry, 0.75)
    }

    fn aqua_engine(t_rh: u64) -> AquaEngine {
        let cfg =
            AquaConfig::for_rowhammer_threshold(t_rh, &BaselineConfig::tiny()).with_rqa_rows(512);
        let cfg = AquaConfig {
            tracker_entries_per_bank: 256,
            fpt_entries: 1024,
            ..cfg
        };
        AquaEngine::new(cfg).unwrap()
    }

    fn hammer_for(channel: u32) -> Vec<Box<dyn RequestGenerator>> {
        // Distinct per-channel hot rows so shards do different work.
        vec![
            Box::new(Hammer::double_sided(&space(), 0, 100 + channel * 8))
                as Box<dyn RequestGenerator>,
        ]
    }

    fn sharded_run(channels: u32, workers: usize, faults: Option<FaultSpec>) -> RunReport {
        let mut cfg = SimConfig::new(base(channels)).epochs(2).t_rh(1000);
        if let Some(spec) = faults {
            cfg = cfg.faults(spec);
        }
        let mut sim =
            ShardedSimulation::new(cfg, |_| aqua_engine(1000), hammer_for).shard_workers(workers);
        sim.run()
    }

    #[test]
    fn single_channel_matches_the_unsharded_simulation_exactly() {
        let cfg = SimConfig::new(base(1)).epochs(2).t_rh(1000);
        let mut plain = Simulation::new(cfg, aqua_engine(1000), hammer_for(0));
        let mut sharded = ShardedSimulation::new(cfg, |_| aqua_engine(1000), hammer_for);
        assert_eq!(plain.run(), sharded.run());
    }

    #[test]
    fn shard_worker_count_never_changes_results() {
        let faults = Some(FaultSpec {
            seed: 11,
            events_per_epoch: 24,
        });
        let serial = sharded_run(4, 1, faults);
        assert_eq!(serial, sharded_run(4, 2, faults));
        assert_eq!(serial, sharded_run(4, 8, faults));
        // Faults were injected on every channel (channel 0 keeps the seed,
        // the others derive their own) and every corruption is accounted.
        assert_eq!(serial.faults.injected, 4 * 48);
        assert_eq!(
            serial.faults.corruptions,
            serial.faults.recovered_rows
                + serial.faults.escaped_counted
                + serial.faults.dormant
                + serial.faults.unaccounted
        );
    }

    #[test]
    fn shards_sum_into_the_system_report() {
        let whole = sharded_run(4, 2, None);
        let single = sharded_run(1, 1, None);
        assert_eq!(whole.epochs, single.epochs);
        assert_eq!(whole.per_core.len(), 4);
        assert_eq!(
            whole.requests_done,
            whole.per_core.iter().sum::<u64>(),
            "per-core counts concatenate across channels"
        );
        // Channel 0 of the sharded system does exactly the single-channel
        // run's work (same seed, same generator, same engine).
        assert_eq!(whole.per_core[0], single.requests_done);
        assert!(whole.requests_done > single.requests_done);
        assert!(whole.oracle.total_activations > single.oracle.total_activations);
    }

    #[test]
    fn shard_panics_propagate_with_the_channel_index() {
        let cfg = SimConfig::new(base(2))
            .epochs(2)
            .t_rh(1000)
            .watchdog(std::time::Duration::ZERO);
        let outcome = std::panic::catch_unwind(move || {
            let mut sim = ShardedSimulation::new(
                cfg,
                |_| NoMitigation::new(BaselineConfig::tiny().geometry),
                hammer_for,
            )
            .shard_workers(1);
            sim.run()
        });
        let msg = pool::panic_message(outcome.unwrap_err());
        assert!(msg.starts_with("channel 0: "), "{msg}");
        assert!(msg.contains("watchdog"), "{msg}");
    }

    #[test]
    fn telemetry_merges_shards_in_channel_order() {
        use aqua_telemetry::{Telemetry, TelemetryConfig};
        let cfg = SimConfig::new(base(4)).epochs(2).t_rh(1000);
        let run = |workers: usize| {
            let mut sim = ShardedSimulation::new(cfg, |_| aqua_engine(1000), hammer_for)
                .shard_workers(workers);
            let hub = Telemetry::new(TelemetryConfig::default());
            sim.attach_telemetry(hub.clone());
            let report = sim.run();
            (report, hub)
        };
        let (report, hub) = run(2);
        let summary = hub.summary().unwrap();
        assert_eq!(summary.counter("sim.requests"), Some(report.requests_done));
        let wall = summary.wallclock.expect("sharded run profiles wallclock");
        // One root: the coordinator. Shard run phases nest under it.
        assert_eq!(
            wall.host_wallclock_ns,
            wall.phase("sim.sharded").unwrap().total_ns
        );
        for c in 0..4 {
            let path = format!("sim.sharded;shard{c};sim.run");
            assert!(wall.path(&path).is_some(), "missing {path}");
        }
        // Span streams from different shards stay disentangled: parents
        // resolve and ids are unique after the ordered merge.
        let spans = hub.spans();
        let mut ids = std::collections::BTreeSet::new();
        for s in &spans {
            assert!(ids.insert(s.id), "duplicate span id after shard merge");
            if let Some(p) = s.parent {
                assert!(spans.iter().any(|o| o.id == p), "dangling parent");
            }
        }
        // Byte-level determinism of the merged telemetry: a serial run
        // renders the same span stream as a 2-worker run.
        let (_, hub1) = run(1);
        let fmt = |h: &Telemetry| format!("{:?}", h.spans());
        assert_eq!(fmt(&hub1), fmt(&hub));
    }
}
