//! The AQUA quarantine engine.

use crate::{
    AquaConfig, AquaError, ForwardPointerTable, LookupBreakdown, LookupOutcome, MappedTables,
    QuarantineArea, ReversePointerTable, RptEntry, RqaSlot, TableMode, TrackerKind,
};
use aqua_dram::mitigation::{
    DataMovement, DegradedMode, MigrationKind, Mitigation, MitigationAction, MitigationStats,
    Translation,
};
use aqua_dram::{BankId, Duration, GlobalRowId, RowAddr, Time};
use aqua_faults::{mix, FaultHealth, FaultKind, InjectOutcome};
use aqua_telemetry::{Counter, EventKind, Telemetry};
use aqua_tracker::{
    AggressorTracker, ExactTracker, HydraConfig, HydraTracker, MisraGriesTracker, TrackerConfig,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// SRAM table-lookup latency on the access critical path (3–4 cycles at
/// 3 GHz, section IV-G).
const SRAM_LOOKUP: Duration = Duration::from_ps(1_300);

aqua_telemetry::stat_struct! {
    /// Cumulative AQUA event counts.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub struct AquaStats {
        /// Rows installed into the RQA from their original location.
        pub installs: u64,
        /// Quarantined rows moved to a new RQA slot (still hot while quarantined).
        pub internal_moves: u64,
        /// Stale rows moved back to their original location (lazy drain).
        pub evictions: u64,
        /// Stale rows drained in the background (`drain_per_refresh > 0`).
        pub background_drains: u64,
        /// RQA slots reused within one epoch (security violations; zero when the
        /// RQA is sized per Eq. 3).
        pub violations: u64,
        /// Mitigations signalled by the tracker.
        pub mitigations: u64,
    }
}

/// Registered telemetry counter handles (inert when no hub is attached).
#[derive(Debug, Clone, Default)]
struct AquaCounters {
    installs: Counter,
    internal_moves: Counter,
    evictions: Counter,
    background_drains: Counter,
    mitigations: Counter,
    fpt_cache_misses: Counter,
    faults_injected: Counter,
    faults_recovered: Counter,
}

impl AquaStats {
    /// Total row migrations (the unit of Figure 6): every install, internal
    /// move, eviction, and background drain moves exactly one row.
    pub fn row_migrations(&self) -> u64 {
        self.installs + self.internal_moves + self.evictions + self.background_drains
    }
}

/// Table backend: section IV (SRAM) or section V (memory-mapped).
#[derive(Debug, Clone)]
enum Backend {
    Sram(ForwardPointerTable),
    // Boxed: MappedTables (filter + cache + audit state) dwarfs the SRAM
    // variant, and one engine holds exactly one backend.
    Mapped(Box<MappedTables>),
}

impl Backend {
    fn lookup_slot(&mut self, row: GlobalRowId) -> (Option<RqaSlot>, u32, Option<LookupOutcome>) {
        match self {
            Backend::Sram(fpt) => (fpt.lookup(row), 0, None),
            Backend::Mapped(m) => {
                let l = m.lookup(row);
                (l.slot, l.dram_reads, Some(l.outcome))
            }
        }
    }

    /// Returns the number of in-DRAM table writes the update required.
    fn map(&mut self, row: GlobalRowId, slot: RqaSlot) -> Result<u32, AquaError> {
        match self {
            Backend::Sram(fpt) => {
                fpt.map(row, slot)?;
                Ok(0)
            }
            Backend::Mapped(m) => Ok(m.map(row, slot)),
        }
    }

    fn unmap(&mut self, row: GlobalRowId) -> u32 {
        match self {
            Backend::Sram(fpt) => {
                fpt.unmap(row);
                0
            }
            Backend::Mapped(m) => m.unmap(row).1,
        }
    }

    fn mappings(&self) -> Vec<(GlobalRowId, RqaSlot)> {
        match self {
            Backend::Sram(fpt) => fpt.iter().collect(),
            Backend::Mapped(m) => m.mappings(),
        }
    }

    /// Non-mutating forward lookup, bypassing the mapped-mode filter and
    /// cache (the audit's ground-truth view).
    fn peek(&self, row: GlobalRowId) -> Option<RqaSlot> {
        match self {
            Backend::Sram(fpt) => fpt.lookup(row),
            Backend::Mapped(m) => m.peek(row),
        }
    }

    /// Injected fault: rewrites an existing forward pointer to `slot`.
    /// Returns whether an entry was actually corrupted.
    fn fault_set_fpt(&mut self, row: GlobalRowId, slot: RqaSlot) -> bool {
        match self {
            Backend::Sram(fpt) => {
                if fpt.lookup(row).is_none() {
                    return false;
                }
                fpt.map(row, slot).is_ok()
            }
            Backend::Mapped(m) => m.fault_corrupt_fpt(row, slot),
        }
    }
}

/// The AQUA mitigation engine for one rank.
///
/// Owns the aggressor-row tracker, the quarantine-area allocator, and the
/// mapping tables (SRAM or memory-mapped), and implements the
/// [`Mitigation`] protocol the system simulator drives.
#[derive(Debug)]
pub struct AquaEngine {
    config: AquaConfig,
    tracker: Box<dyn AggressorTracker + Send>,
    rqa: QuarantineArea,
    rpt: ReversePointerTable,
    backend: Backend,
    migration_latency: Duration,
    /// Sweep position of the background drain (`drain_per_refresh > 0`).
    drain_cursor: u64,
    stats: AquaStats,
    telemetry: Telemetry,
    counters: AquaCounters,
    /// Lookup breakdown at the previous epoch boundary (drives the
    /// per-epoch FPT-cache hit-rate gauge).
    epoch_breakdown: LookupBreakdown,
    /// Set once any fault has been injected; gates the end-of-epoch table
    /// audit so fault-free runs stay bit-identical to the plain engine.
    faults_active: bool,
    /// An injected migration interrupt waiting to abort the next quarantine.
    pending_interrupt: bool,
    /// Banks whose tables went unrecoverably inconsistent; they run under
    /// the victim-refresh fallback instead of row migration.
    degraded: BTreeSet<u32>,
    health: FaultHealth,
    /// Victim-refresh rows issued by the degraded-bank fallback.
    victim_refreshes: u64,
    /// Latest simulated timestamp seen (ps); timestamps the end-of-epoch
    /// audit/degraded spans, since `end_epoch` carries no time.
    last_ps: u64,
}

impl AquaEngine {
    /// Builds an engine from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AquaError`] if the configuration is invalid.
    pub fn new(config: AquaConfig) -> Result<Self, AquaError> {
        config.validate()?;
        let tracker: Box<dyn AggressorTracker + Send> = match config.tracker {
            TrackerKind::MisraGries => {
                let cfg = TrackerConfig::with_mitigation_threshold(config.mitigation_threshold)
                    .entries_per_bank(config.tracker_entries_per_bank);
                Box::new(MisraGriesTracker::new(cfg, config.geometry.total_banks()))
            }
            TrackerKind::Hydra => {
                let mut cfg = HydraConfig::for_rowhammer_threshold(config.t_rh);
                cfg.mitigation_threshold = config.mitigation_threshold;
                cfg.group_threshold = (config.mitigation_threshold / 2).max(1);
                Box::new(HydraTracker::new(cfg, config.geometry.rows_per_bank))
            }
            TrackerKind::Cra => {
                let mut cfg = aqua_tracker::CraConfig::for_rowhammer_threshold(config.t_rh);
                cfg.mitigation_threshold = config.mitigation_threshold;
                Box::new(aqua_tracker::CraTracker::new(cfg))
            }
            TrackerKind::Exact => Box::new(ExactTracker::new(config.mitigation_threshold)),
        };
        let backend = match config.table_mode {
            TableMode::Sram => Backend::Sram(ForwardPointerTable::new(config.fpt_entries)),
            TableMode::Mapped {
                bloom_bits,
                cache_entries,
            } => {
                let mut m = MappedTables::new(bloom_bits, cache_entries, 16);
                // Pin the FPT entries of the table-storing rows in SRAM so a
                // table lookup never recurses (section VI-B).
                for addr in table_region_rows(&config) {
                    let Ok(gid) = config.geometry.flatten(addr) else {
                        return Err(AquaError::InvalidConfig(
                            "table region lies outside the module geometry",
                        ));
                    };
                    m.pin(gid);
                }
                Backend::Mapped(Box::new(m))
            }
        };
        let migration_latency = config.timing.row_migration_latency(&config.geometry);
        Ok(AquaEngine {
            tracker,
            rqa: QuarantineArea::new(config.rqa_rows),
            rpt: ReversePointerTable::new(config.rqa_rows),
            backend,
            migration_latency,
            drain_cursor: 0,
            config,
            stats: AquaStats::default(),
            telemetry: Telemetry::disabled(),
            counters: AquaCounters::default(),
            epoch_breakdown: LookupBreakdown::default(),
            faults_active: false,
            pending_interrupt: false,
            degraded: BTreeSet::new(),
            health: FaultHealth::default(),
            victim_refreshes: 0,
            last_ps: 0,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AquaConfig {
        &self.config
    }

    /// AQUA-specific statistics.
    pub fn stats(&self) -> AquaStats {
        self.stats
    }

    /// The tracker's statistics.
    pub fn tracker_stats(&self) -> aqua_tracker::TrackerStats {
        self.tracker.stats()
    }

    /// SRAM footprint of the configured tracker, in bits (Table VII input).
    pub fn tracker_sram_bits(&self) -> u64 {
        self.tracker.sram_bits()
    }

    /// Figure 10 lookup breakdown (memory-mapped mode only).
    pub fn lookup_breakdown(&self) -> Option<crate::LookupBreakdown> {
        match &self.backend {
            Backend::Sram(_) => None,
            Backend::Mapped(m) => Some(m.breakdown()),
        }
    }

    /// Number of rows currently quarantined.
    pub fn quarantined_rows(&self) -> usize {
        self.rpt.valid_count()
    }

    /// Verifies that the FPT and RPT are mutually consistent inverse maps.
    ///
    /// # Errors
    ///
    /// Returns [`AquaError::TableInconsistency`] naming the offending row
    /// and slot on any disagreement; used by property tests and by the
    /// fault-injection audit's self-checks.
    pub fn check_consistency(&self) -> Result<(), AquaError> {
        let mappings = self.backend.mappings();
        for (row, slot) in &mappings {
            match self.rpt.get(slot.index()) {
                Some(entry) if entry.original == *row => {}
                Some(_) | None => {
                    return Err(AquaError::TableInconsistency {
                        row: row.index(),
                        slot: slot.index(),
                    });
                }
            }
        }
        if mappings.len() != self.rpt.valid_count() {
            // Some occupied RPT slot has no forward pointer; name one.
            let mapped: BTreeSet<u64> = mappings.iter().map(|(_, s)| s.index()).collect();
            for slot in 0..self.rpt.slots() {
                if let Some(entry) = self.rpt.get(slot) {
                    if !mapped.contains(&slot) {
                        return Err(AquaError::TableInconsistency {
                            row: entry.original.index(),
                            slot,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Evicts the occupant of `slot` back to its original location, if any.
    /// Returns whether a row was actually moved out (the caller accounts it
    /// as an on-demand eviction or a background drain).
    fn evict_slot(
        &mut self,
        slot: RqaSlot,
        now: Time,
        actions: &mut Vec<MitigationAction>,
    ) -> bool {
        if let Some(entry) = self.rpt.clear(slot.index()) {
            let writes = self.backend.unmap(entry.original);
            let Ok(home) = self.config.geometry.expand(entry.original) else {
                // Corrupted back-pointer (AquaError::RowOutOfGeometry when
                // audited): the occupant has no home to return to, so its
                // data is untraceable. Degrade the slot's bank to the
                // victim-refresh fallback and keep simulating.
                let bank = self.config.rqa_slot_location(slot.index()).bank;
                self.degrade_bank(bank.index());
                self.stats.violations += 1;
                if writes > 0 {
                    actions.push(MitigationAction::TableWrites { count: writes });
                }
                return false;
            };
            actions.push(MitigationAction::BlockChannel {
                duration: self.migration_latency,
                kind: MigrationKind::QuarantineEvict,
                movement: DataMovement::Move {
                    from: self.config.rqa_slot_location(slot.index()),
                    to: home,
                },
            });
            if writes > 0 {
                actions.push(MitigationAction::TableWrites { count: writes });
            }
            self.telemetry
                .span_start("aqua.evict", now.as_ps())
                .end(now.as_ps());
            self.telemetry.record(
                now.as_ps(),
                EventKind::QuarantineOut {
                    row: entry.original.index(),
                    slot: slot.index(),
                },
            );
            true
        } else {
            false
        }
    }

    /// Quarantines `row` (currently residing at `from_slot` if already
    /// quarantined) into a fresh RQA slot.
    fn quarantine(
        &mut self,
        row: GlobalRowId,
        from_slot: Option<RqaSlot>,
        now: Time,
        actions: &mut Vec<MitigationAction>,
    ) {
        if self.pending_interrupt {
            // Injected fault: the migration is interrupted before any table
            // write or data movement is committed, so the row simply stays
            // where it is — fully recovered by construction.
            self.pending_interrupt = false;
            self.health.recovered += 1;
            self.counters.faults_recovered.inc();
            self.telemetry
                .span_start("aqua.fault_repair", now.as_ps())
                .end(now.as_ps());
            return;
        }
        let from = match from_slot {
            Some(old) => self.config.rqa_slot_location(old.index()),
            None => match self.config.geometry.expand(row) {
                Ok(addr) => addr,
                Err(_) => {
                    // AquaError::RowOutOfGeometry territory: a row id that
                    // is not a real row cannot be moved. Refuse the
                    // quarantine and count the inconsistency.
                    self.stats.violations += 1;
                    return;
                }
            },
        };
        // RQA enqueue: pick the destination slot in the quarantine area.
        let enqueue = self.telemetry.span_start("aqua.rqa_enqueue", now.as_ps());
        let alloc = self.rqa.allocate();
        enqueue.end(now.as_ps());
        if alloc.reused_within_epoch {
            self.stats.violations += 1;
        }
        // Lazy drain: the destination may hold a row quarantined in a past
        // epoch; move it home first (2.74 us total path, section IV-D).
        if self.evict_slot(alloc.slot, now, actions) {
            self.stats.evictions += 1;
            self.counters.evictions.inc();
        }
        actions.push(MitigationAction::BlockChannel {
            duration: self.migration_latency,
            kind: if from_slot.is_some() {
                MigrationKind::QuarantineInternal
            } else {
                MigrationKind::QuarantineInstall
            },
            movement: DataMovement::Move {
                from,
                to: self.config.rqa_slot_location(alloc.slot.index()),
            },
        });
        // FPT/RPT update: commit the new forward mapping.
        let table_update = self.telemetry.span_start("aqua.table_update", now.as_ps());
        let writes = match self.backend.map(row, alloc.slot) {
            Ok(w) => w,
            Err(_) => {
                // FPT exhaustion: refuse the quarantine rather than corrupt
                // state. Counted as a violation — with paper-sized tables
                // this is unreachable.
                self.stats.violations += 1;
                table_update.cancel();
                return;
            }
        };
        table_update.end(now.as_ps());
        if writes > 0 {
            actions.push(MitigationAction::TableWrites { count: writes });
        }
        if let Some(old) = from_slot {
            self.rpt.clear(old.index());
            self.stats.internal_moves += 1;
            self.counters.internal_moves.inc();
            self.telemetry.record(
                now.as_ps(),
                EventKind::QuarantineOut {
                    row: row.index(),
                    slot: old.index(),
                },
            );
        } else {
            self.stats.installs += 1;
            self.counters.installs.inc();
        }
        self.telemetry.record(
            now.as_ps(),
            EventKind::QuarantineIn {
                row: row.index(),
                slot: alloc.slot.index(),
            },
        );
        self.rpt.set(
            alloc.slot.index(),
            RptEntry {
                original: row,
                install_epoch: self.rqa.epoch(),
            },
        );
    }

    /// Background drain: evicts up to `drain_per_refresh` stale entries per
    /// sweep step (the paper's "periodically draining old entries"
    /// optimization that takes evictions off the critical path). Invoked via
    /// [`Mitigation::on_refresh_tick`] at every refresh command.
    fn background_drain(&mut self, now: Time, actions: &mut Vec<MitigationAction>) {
        let n = self.config.drain_per_refresh;
        if n == 0 {
            return;
        }
        let slots = self.rqa.slots();
        for _ in 0..n {
            let slot = RqaSlot::new(self.drain_cursor);
            self.drain_cursor = (self.drain_cursor + 1) % slots;
            if self.rqa.allocated_this_epoch(slot) {
                continue;
            }
            if self.evict_slot(slot, now, actions) {
                self.stats.background_drains += 1;
                self.counters.background_drains.inc();
            }
        }
    }

    /// Marks a bank's tables unrecoverable; it runs under victim refresh
    /// from now on.
    fn degrade_bank(&mut self, bank: u32) {
        if self.degraded.insert(bank) {
            self.health.unrecoverable += 1;
        }
        self.health.degraded_banks = self.degraded.len() as u64;
    }

    /// Accounts one successful audit repair.
    fn note_repair(&mut self) {
        self.health.repairs += 1;
        self.health.recovered += 1;
        self.counters.faults_recovered.inc();
        self.telemetry
            .span_start("aqua.fault_repair", self.last_ps)
            .end(self.last_ps);
    }

    /// Blast-radius neighbours (distance 1 and 2) of `phys`, for the
    /// victim-refresh fallback on degraded banks.
    fn victim_rows(&self, phys: RowAddr) -> Vec<RowAddr> {
        let rows = i64::from(self.config.geometry.rows_per_bank);
        [-2i64, -1, 1, 2]
            .iter()
            .map(|d| i64::from(phys.row) + d)
            .filter(|r| (0..rows).contains(r))
            .map(|r| RowAddr {
                bank: phys.bank,
                row: r as u32,
            })
            .collect()
    }

    /// Deterministically picks an occupied RQA slot, scanning circularly
    /// from a pseudo-random start. `None` when nothing is quarantined.
    fn pick_victim_slot(&self, entropy: u64) -> Option<u64> {
        let slots = self.rpt.slots();
        if slots == 0 {
            return None;
        }
        let start = entropy % slots;
        (0..slots)
            .map(|i| (start + i) % slots)
            .find(|&s| self.rpt.get(s).is_some())
    }

    /// A pseudo-random slot different from `avoid`; `None` if the RQA has
    /// fewer than two slots (no wrong value exists).
    fn wrong_slot(&self, entropy: u64, avoid: u64) -> Option<RqaSlot> {
        let slots = self.rpt.slots();
        if slots < 2 {
            return None;
        }
        let mut w = mix(entropy) % slots;
        if w == avoid {
            w = (w + 1) % slots;
        }
        Some(RqaSlot::new(w))
    }

    /// Forces one quarantined row's forward pointer to a wrong slot.
    fn fault_fpt_flip(&mut self, entropy: u64) -> InjectOutcome {
        let Some(slot) = self.pick_victim_slot(entropy) else {
            return InjectOutcome::Applied; // nothing quarantined: fault hit vacant state
        };
        let Some(entry) = self.rpt.get(slot) else {
            return InjectOutcome::Applied;
        };
        let Some(wrong) = self.wrong_slot(entropy, slot) else {
            return InjectOutcome::Applied;
        };
        if self.backend.fault_set_fpt(entry.original, wrong) {
            InjectOutcome::CorruptedTranslation {
                rows: vec![entry.original.index()],
            }
        } else {
            InjectOutcome::Applied
        }
    }

    /// Corrupts one RPT entry's back-pointer. The wrong row is drawn from
    /// twice the module's row range, so roughly half the flips point outside
    /// the geometry and exercise the unrecoverable/degrade path.
    fn fault_rpt_flip(&mut self, entropy: u64) -> InjectOutcome {
        let Some(slot) = self.pick_victim_slot(entropy) else {
            return InjectOutcome::Applied;
        };
        let Some(entry) = self.rpt.get(slot) else {
            return InjectOutcome::Applied;
        };
        let total = self.config.geometry.total_rows();
        let mut wrong = mix(entropy) % (total * 2);
        if wrong == entry.original.index() {
            wrong = (wrong + 1) % (total * 2);
        }
        self.rpt.set(
            slot,
            RptEntry {
                original: GlobalRowId::new(wrong),
                install_epoch: entry.install_epoch,
            },
        );
        let mut rows = vec![entry.original.index()];
        if wrong < total {
            rows.push(wrong);
        }
        rows.sort_unstable();
        rows.dedup();
        InjectOutcome::CorruptedTranslation { rows }
    }

    /// Drops one RPT entry, orphaning its forward pointer.
    fn fault_rpt_drop(&mut self, entropy: u64) -> InjectOutcome {
        let Some(slot) = self.pick_victim_slot(entropy) else {
            return InjectOutcome::Applied;
        };
        let Some(entry) = self.rpt.clear(slot) else {
            return InjectOutcome::Applied;
        };
        InjectOutcome::CorruptedTranslation {
            rows: vec![entry.original.index()],
        }
    }

    /// Zeroes one bloom count (mapped mode only): false negatives for every
    /// quarantined row whose group hashes to the cleared bit.
    fn fault_filter_clear(&mut self, entropy: u64) -> InjectOutcome {
        match &mut self.backend {
            Backend::Sram(_) => InjectOutcome::Unsupported,
            Backend::Mapped(m) => {
                let rows = m.fault_clear_filter(entropy);
                if rows.is_empty() {
                    InjectOutcome::Applied
                } else {
                    InjectOutcome::CorruptedTranslation { rows }
                }
            }
        }
    }

    /// Inserts a wrong-slot entry into the FPT-Cache (mapped mode only);
    /// the in-DRAM FPT stays correct.
    fn fault_cache_poison(&mut self, entropy: u64) -> InjectOutcome {
        if matches!(self.backend, Backend::Sram(_)) {
            return InjectOutcome::Unsupported;
        }
        let Some(slot) = self.pick_victim_slot(entropy) else {
            return InjectOutcome::Applied;
        };
        let Some(entry) = self.rpt.get(slot) else {
            return InjectOutcome::Applied;
        };
        let Some(wrong) = self.wrong_slot(entropy, slot) else {
            return InjectOutcome::Applied;
        };
        let Backend::Mapped(m) = &mut self.backend else {
            return InjectOutcome::Applied;
        };
        if m.fault_poison_cache(entry.original, wrong) {
            InjectOutcome::CorruptedTranslation {
                rows: vec![entry.original.index()],
            }
        } else {
            InjectOutcome::Applied // pinned row: lookups never consult the cache
        }
    }

    /// End-of-epoch table audit (runs only once a fault has been injected).
    ///
    /// Pass 1 treats the RPT as authoritative for occupied slots: a slot
    /// whose row's forward pointer disagrees is repaired by rewriting the
    /// FPT from the back-pointer; a slot whose back-pointer is not a real
    /// row is unrecoverable and degrades its bank. Pass 2 walks the forward
    /// pointers (sorted, so hash-map iteration order cannot leak into the
    /// outcome): orphans with a free slot get their RPT entry restored
    /// (the data is still in the slot); orphans whose slot belongs to
    /// another row are dropped. Pass 3 rebuilds the mapped-mode SRAM
    /// filter/cache state from the in-DRAM FPT.
    fn audit_tables(&mut self) {
        for slot in 0..self.rpt.slots() {
            let Some(entry) = self.rpt.get(slot) else {
                continue;
            };
            if self.config.geometry.expand(entry.original).is_err() {
                self.rpt.clear(slot);
                self.backend.unmap(entry.original);
                let bank = self.config.rqa_slot_location(slot).bank;
                self.degrade_bank(bank.index());
                continue;
            }
            if self.backend.peek(entry.original) != Some(RqaSlot::new(slot)) {
                match self.backend.map(entry.original, RqaSlot::new(slot)) {
                    Ok(_) => self.note_repair(),
                    Err(_) => {
                        self.rpt.clear(slot);
                        let bank = self.config.rqa_slot_location(slot).bank;
                        self.degrade_bank(bank.index());
                    }
                }
            }
        }
        let mut maps = self.backend.mappings();
        maps.sort_unstable_by_key(|(r, s)| (r.index(), s.index()));
        for (row, slot) in maps {
            if slot.index() >= self.rpt.slots() {
                self.backend.unmap(row);
                self.note_repair();
                continue;
            }
            match self.rpt.get(slot.index()) {
                Some(e) if e.original == row => {}
                Some(_) => {
                    self.backend.unmap(row);
                    self.note_repair();
                }
                None => {
                    self.rpt.set(
                        slot.index(),
                        RptEntry {
                            original: row,
                            install_epoch: self.rqa.epoch(),
                        },
                    );
                    self.note_repair();
                }
            }
        }
        if let Backend::Mapped(m) = &mut self.backend {
            m.fault_audit_rebuild();
        }
        self.health.degraded_banks = self.degraded.len() as u64;
    }
}

/// All physical rows of the in-DRAM table region (mapped mode).
fn table_region_rows(config: &AquaConfig) -> Vec<RowAddr> {
    let per_bank = config.table_rows_per_bank();
    let top = config.geometry.rows_per_bank - config.rqa_rows_per_bank();
    let mut rows = Vec::new();
    for bank in config.geometry.banks() {
        for r in (top - per_bank)..top {
            rows.push(RowAddr { bank, row: r });
        }
    }
    rows
}

impl Mitigation for AquaEngine {
    fn name(&self) -> &'static str {
        match self.config.table_mode {
            TableMode::Sram => "aqua-sram",
            TableMode::Mapped { .. } => "aqua-mapped",
        }
    }

    fn translate(&mut self, row: GlobalRowId, now: Time) -> Translation {
        self.last_ps = now.as_ps();
        let (slot, dram_reads, outcome) = self.backend.lookup_slot(row);
        match outcome {
            Some(LookupOutcome::SingletonSkip) => {
                self.counters.fpt_cache_misses.inc();
                self.telemetry.record(
                    now.as_ps(),
                    EventKind::FptCacheMiss {
                        row: row.index(),
                        singleton: true,
                    },
                );
            }
            Some(LookupOutcome::DramAccess) => {
                self.counters.fpt_cache_misses.inc();
                self.telemetry.record(
                    now.as_ps(),
                    EventKind::FptCacheMiss {
                        row: row.index(),
                        singleton: false,
                    },
                );
            }
            _ => {}
        }
        let identity = |cfg: &AquaConfig, violations: &mut u64| match cfg.geometry.expand(row) {
            Ok(addr) => addr,
            Err(_) => {
                // AquaError::RowOutOfGeometry: a row id that is not a real
                // row cannot be accessed; fall back to row 0 of bank 0 and
                // count the inconsistency rather than aborting.
                *violations += 1;
                RowAddr {
                    bank: BankId::new(0),
                    row: 0,
                }
            }
        };
        let phys = match slot {
            Some(s) if s.index() < self.config.rqa_rows => self.config.rqa_slot_location(s.index()),
            Some(_) => {
                // AquaError::SlotOutOfRange: a corrupted forward pointer
                // names a slot outside the quarantine area. Serve the
                // identity mapping until the epoch audit repairs the entry.
                self.stats.violations += 1;
                identity(&self.config, &mut self.stats.violations)
            }
            None => identity(&self.config, &mut self.stats.violations),
        };
        let table_row = if dram_reads > 0 {
            // The in-DRAM FPT line actually read; it may itself have been
            // quarantined, in which case the pinned entry redirects it.
            let addr = self.config.fpt_table_row_of(row);
            match self.config.geometry.flatten(addr) {
                Ok(gid) => {
                    let (tslot, _, _) = self.backend.lookup_slot(gid);
                    Some(match tslot {
                        Some(s) if s.index() < self.config.rqa_rows => {
                            self.config.rqa_slot_location(s.index())
                        }
                        _ => addr,
                    })
                }
                Err(_) => {
                    self.stats.violations += 1;
                    None
                }
            }
        } else {
            None
        };
        Translation {
            phys,
            lookup_latency: SRAM_LOOKUP,
            dram_table_reads: dram_reads,
            table_row,
        }
    }

    fn on_activation_into(
        &mut self,
        phys: RowAddr,
        now: Time,
        actions: &mut Vec<MitigationAction>,
    ) {
        self.last_ps = now.as_ps();
        if !self.tracker.on_activation(phys).mitigate() {
            return;
        }
        self.stats.mitigations += 1;
        self.counters.mitigations.inc();
        if self.degraded.contains(&phys.bank.index()) {
            // Fallback protection for a bank whose tables went
            // unrecoverable: refresh the blast-radius neighbours instead of
            // migrating (weaker against Half-Double, but data-safe).
            self.telemetry
                .span_start("aqua.degraded_refresh", now.as_ps())
                .end(now.as_ps());
            let rows = self.victim_rows(phys);
            self.victim_refreshes += rows.len() as u64;
            actions.push(MitigationAction::RefreshRows(rows));
            return;
        }
        let sp = self.telemetry.span_start("aqua.quarantine", now.as_ps());
        if let Some(slot) = self.config.rqa_slot_of(phys) {
            // A quarantined row is hot at its RQA location: move it within
            // the quarantine area (section IV-D internal migration).
            if let Some(entry) = self.rpt.get(slot) {
                self.quarantine(entry.original, Some(RqaSlot::new(slot)), now, actions);
            }
            // An RQA location with no valid occupant cannot be addressed by
            // software; stale tracker state is ignored.
        } else {
            // Normal row (or a table-storing row): quarantine it. The row id
            // is its physical location, which equals its OS-visible id here
            // because non-quarantined rows are identity-mapped.
            match self.config.geometry.flatten(phys) {
                Ok(row) => self.quarantine(row, None, now, actions),
                Err(_) => {
                    // Not a real row (only reachable through injected
                    // corruption); nothing to quarantine.
                    self.stats.violations += 1;
                }
            }
        }
        sp.end(now.as_ps());
    }

    fn end_epoch(&mut self) {
        // Host-time phase for the engine's end-of-epoch work (table audit,
        // tracker reset, RQA epoch advance); nests under the simulator's
        // `sim.epoch_end` phase on the shared hub.
        let _phase = self.telemetry.phase("aqua.end_epoch");
        if self.faults_active {
            let sp = self.telemetry.span_start("aqua.audit", self.last_ps);
            self.audit_tables();
            sp.end(self.last_ps);
            if !self.degraded.is_empty() {
                self.telemetry
                    .span_start("aqua.degraded_epoch", self.last_ps)
                    .end(self.last_ps);
            }
            self.health.degraded_epochs += self.degraded.len() as u64;
        }
        self.tracker.end_epoch();
        self.rqa.advance_epoch();
        if let Backend::Mapped(m) = &self.backend {
            self.epoch_breakdown = m.breakdown();
        }
    }

    fn on_refresh_tick_into(&mut self, now: Time, actions: &mut Vec<MitigationAction>) {
        self.background_drain(now, actions);
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.counters = AquaCounters {
            installs: telemetry.counter("aqua.installs"),
            internal_moves: telemetry.counter("aqua.internal_moves"),
            evictions: telemetry.counter("aqua.evictions"),
            background_drains: telemetry.counter("aqua.background_drains"),
            mitigations: telemetry.counter("aqua.mitigations"),
            fpt_cache_misses: telemetry.counter("aqua.fpt_cache_misses"),
            faults_injected: telemetry.counter("aqua.faults_injected"),
            faults_recovered: telemetry.counter("aqua.faults_recovered"),
        };
        self.telemetry = telemetry;
    }

    fn epoch_gauges(&self) -> Vec<(&'static str, f64)> {
        let mut gauges = vec![(
            "rqa_occupancy",
            self.rpt.valid_count() as f64 / self.config.rqa_rows.max(1) as f64,
        )];
        if let Backend::Mapped(m) = &self.backend {
            // Hit rate over the closing epoch, among lookups that consulted
            // the FPT-Cache (i.e. were not filtered out by the bloom filter).
            let d = m.breakdown().diff(&self.epoch_breakdown);
            let consulted = d.cache_hit + d.singleton_skip + d.dram_access;
            if consulted > 0 {
                gauges.push(("fpt_cache_hit_rate", d.cache_hit as f64 / consulted as f64));
            }
        }
        gauges
    }

    fn reserved_rows(&self) -> Vec<RowAddr> {
        (0..self.config.rqa_rows)
            .map(|slot| self.config.rqa_slot_location(slot))
            .collect()
    }

    fn mitigation_stats(&self) -> MitigationStats {
        MitigationStats {
            row_migrations: self.stats.row_migrations(),
            mitigations_triggered: self.stats.mitigations,
            victim_refreshes: self.victim_refreshes,
            throttled: 0,
            violations: self.stats.violations,
        }
    }

    fn inject_fault(&mut self, fault: &FaultKind, _now: Time) -> InjectOutcome {
        let outcome = match *fault {
            FaultKind::FptFlip { entropy } => self.fault_fpt_flip(entropy),
            FaultKind::RptFlip { entropy } => self.fault_rpt_flip(entropy),
            FaultKind::RptDrop { entropy } => self.fault_rpt_drop(entropy),
            FaultKind::FilterFalseClear { entropy } => self.fault_filter_clear(entropy),
            FaultKind::CachePoison { entropy } => self.fault_cache_poison(entropy),
            FaultKind::TrackerReset => {
                if self.tracker.inject_reset() {
                    InjectOutcome::Applied
                } else {
                    InjectOutcome::Unsupported
                }
            }
            FaultKind::TrackerSaturate => {
                if self.tracker.inject_saturate() {
                    InjectOutcome::Applied
                } else {
                    InjectOutcome::Unsupported
                }
            }
            FaultKind::MigrationInterrupt => {
                self.pending_interrupt = true;
                InjectOutcome::Applied
            }
            FaultKind::RqaWrapBurst { slots } => {
                // Burn allocations: ages the circular allocator without
                // moving data, so wrap pressure (and within-epoch reuse
                // violations) rise while translation stays intact.
                for _ in 0..slots {
                    if self.rqa.allocate().reused_within_epoch {
                        self.stats.violations += 1;
                    }
                }
                InjectOutcome::Applied
            }
            // Command faults live in the simulator's notification path, not
            // in the engine's tables.
            FaultKind::DramCommandFault => InjectOutcome::Unsupported,
        };
        if !matches!(outcome, InjectOutcome::Unsupported) {
            self.faults_active = true;
            self.health.injected += 1;
            self.counters.faults_injected.inc();
        }
        outcome
    }

    fn fault_health(&self) -> FaultHealth {
        self.health
    }

    fn degraded_mode(&self) -> DegradedMode {
        if self.degraded.is_empty() {
            DegradedMode::Normal
        } else {
            DegradedMode::VictimRefresh {
                banks: self.degraded.iter().copied().collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_dram::BaselineConfig;

    fn small_config() -> AquaConfig {
        // A reduced configuration that still exercises every path quickly.
        let base = BaselineConfig::tiny();
        let mut c = AquaConfig::for_rowhammer_threshold(20, &base);
        c.tracker_entries_per_bank = 64;
        c.rqa_rows = 8;
        c.fpt_entries = 64;
        c
    }

    fn hammer(engine: &mut AquaEngine, row: GlobalRowId, times: u64) -> Vec<MitigationAction> {
        let mut all = Vec::new();
        for _ in 0..times {
            let t = engine.translate(row, Time::ZERO);
            all.extend(engine.on_activation(t.phys, Time::ZERO));
        }
        all
    }

    #[test]
    fn hot_row_is_quarantined_at_threshold() {
        let mut e = AquaEngine::new(small_config()).unwrap();
        let row = GlobalRowId::new(5);
        let actions = hammer(&mut e, row, 10);
        assert_eq!(e.stats().installs, 1);
        assert!(actions.iter().any(|a| matches!(
            a,
            MitigationAction::BlockChannel {
                kind: MigrationKind::QuarantineInstall,
                ..
            }
        )));
        // Row now resolves to the quarantine region.
        let t = e.translate(row, Time::ZERO);
        assert!(e.config().rqa_region_contains(t.phys));
        e.check_consistency().unwrap();
    }

    #[test]
    fn continued_hammering_moves_within_rqa() {
        let mut e = AquaEngine::new(small_config()).unwrap();
        let row = GlobalRowId::new(5);
        hammer(&mut e, row, 10); // install
        let first = e.translate(row, Time::ZERO).phys;
        hammer(&mut e, row, 10); // internal move
        let second = e.translate(row, Time::ZERO).phys;
        assert_ne!(first, second, "internal migration must change the slot");
        assert!(e.config().rqa_region_contains(second));
        assert_eq!(e.stats().internal_moves, 1);
        e.check_consistency().unwrap();
    }

    #[test]
    fn lazy_drain_evicts_previous_epoch_rows() {
        let mut e = AquaEngine::new(small_config()).unwrap();
        // Fill all 8 RQA slots in epoch 0.
        for r in 0..8u64 {
            hammer(&mut e, GlobalRowId::new(r * 3), 10);
        }
        assert_eq!(e.stats().installs, 8);
        assert_eq!(e.stats().violations, 0);
        e.end_epoch();
        // New install in epoch 1 reuses slot 0 and must first evict.
        hammer(&mut e, GlobalRowId::new(100), 10);
        assert_eq!(e.stats().evictions, 1);
        assert_eq!(e.stats().violations, 0);
        // The evicted row is identity-mapped again.
        let t = e.translate(GlobalRowId::new(0), Time::ZERO);
        assert!(!e.config().rqa_region_contains(t.phys));
        e.check_consistency().unwrap();
    }

    #[test]
    fn undersized_rqa_reports_violation() {
        let mut c = small_config();
        c.rqa_rows = 2;
        let mut e = AquaEngine::new(c).unwrap();
        for r in 0..3u64 {
            hammer(&mut e, GlobalRowId::new(r * 7), 10);
        }
        assert!(
            e.stats().violations > 0,
            "slot reuse within an epoch must be flagged"
        );
    }

    #[test]
    fn epoch_reset_requires_full_threshold_again() {
        let mut e = AquaEngine::new(small_config()).unwrap();
        let row = GlobalRowId::new(9);
        hammer(&mut e, row, 9); // threshold is 10; one short
        e.end_epoch();
        hammer(&mut e, row, 9);
        assert_eq!(e.stats().installs, 0, "tracker reset must forget counts");
    }

    #[test]
    fn mapped_mode_quarantines_and_redirects() {
        let mut c = small_config();
        c.table_mode = TableMode::Mapped {
            bloom_bits: 256,
            cache_entries: 32,
        };
        let mut e = AquaEngine::new(c).unwrap();
        let row = GlobalRowId::new(5);
        hammer(&mut e, row, 10);
        let t = e.translate(row, Time::ZERO);
        assert!(e.config().rqa_region_contains(t.phys));
        let b = e.lookup_breakdown().unwrap();
        assert!(b.total() > 0);
        e.check_consistency().unwrap();
    }

    #[test]
    fn mapped_mode_pins_table_rows() {
        let mut c = small_config();
        c.table_mode = TableMode::Mapped {
            bloom_bits: 256,
            cache_entries: 32,
        };
        let e = AquaEngine::new(c).unwrap();
        match &e.backend {
            Backend::Mapped(m) => assert!(m.pinned_count() > 0),
            Backend::Sram(_) => panic!("expected mapped backend"),
        }
    }

    #[test]
    fn pthammer_on_table_rows_is_quarantined_via_pinned_entries() {
        // Section VI-B: an attacker can hammer the DRAM rows storing the
        // FPT/RPT (PTHammer-style, via lookups it induces). Those rows are
        // quarantined like any other, with their mapping pinned in SRAM so
        // lookups never recurse.
        let mut c = small_config();
        c.table_mode = TableMode::Mapped {
            bloom_bits: 256,
            cache_entries: 32,
        };
        let mut e = AquaEngine::new(c).unwrap();
        // Physical location of the FPT line for row 0.
        let table_addr = e.config().fpt_table_row_of(GlobalRowId::new(0));
        let table_gid = e.config().geometry.flatten(table_addr).unwrap();
        assert!(e.config().is_table_row(table_addr));
        // Hammer the table row (as the simulator would on repeated induced
        // FPT reads): it must be quarantined at the threshold.
        let mut quarantined = false;
        for _ in 0..10 {
            let phys = match &e.backend {
                Backend::Mapped(m) => {
                    // Resolve through the pinned entry, as translate() does.
                    let mut m = m.clone();
                    match m.lookup(table_gid).slot {
                        Some(s) => e.config().rqa_slot_location(s.index()),
                        None => table_addr,
                    }
                }
                Backend::Sram(_) => unreachable!(),
            };
            if !e.on_activation(phys, Time::ZERO).is_empty() {
                quarantined = true;
            }
        }
        assert!(quarantined, "table row must be quarantined at threshold");
        // The engine now reports FPT reads for row 0 redirected to the RQA.
        let t = e.translate(GlobalRowId::new(0), Time::ZERO);
        if let Some(redirected) = t.table_row {
            assert!(
                e.config().rqa_region_contains(redirected) || e.config().is_table_row(redirected)
            );
        }
        e.check_consistency().unwrap();
    }

    #[test]
    fn background_drain_empties_stale_slots() {
        let mut c = small_config();
        c.drain_per_refresh = 4;
        let mut e = AquaEngine::new(c).unwrap();
        for r in 0..4u64 {
            hammer(&mut e, GlobalRowId::new(r * 3), 10);
        }
        e.end_epoch();
        let actions = e.on_refresh_tick(Time::ZERO);
        assert!(!actions.is_empty());
        assert_eq!(e.stats().background_drains, 4);
        // Subsequent installs need no on-demand eviction.
        hammer(&mut e, GlobalRowId::new(200), 10);
        assert_eq!(e.stats().evictions, 0);
        e.check_consistency().unwrap();
    }

    #[test]
    fn hydra_tracker_quarantines_like_misra_gries() {
        // Appendix B: AQUA is tracker-agnostic. The Hydra-backed engine must
        // quarantine a hammered row no later than the MG-backed one (Hydra's
        // conservative group-count inheritance can only fire earlier).
        let mut cfg = small_config().with_hydra_tracker();
        cfg.rqa_rows = 16;
        let mut e = AquaEngine::new(cfg).unwrap();
        let row = GlobalRowId::new(5);
        hammer(&mut e, row, 10);
        assert!(e.stats().installs >= 1);
        let t = e.translate(row, Time::ZERO);
        assert!(e.config().rqa_region_contains(t.phys));
        e.check_consistency().unwrap();
        // At paper scale, Hydra's SRAM footprint is far below MG's
        // (Table VII: ~30 KB vs ~396 KB).
        let paper = BaselineConfig::paper_table1();
        let mg = AquaEngine::new(AquaConfig::for_rowhammer_threshold(1000, &paper)).unwrap();
        let hydra =
            AquaEngine::new(AquaConfig::for_rowhammer_threshold(1000, &paper).with_hydra_tracker())
                .unwrap();
        assert!(hydra.tracker_sram_bits() * 4 < mg.tracker_sram_bits());
    }

    #[test]
    fn exact_tracker_fires_precisely_at_threshold() {
        let mut cfg = small_config();
        cfg.tracker = crate::TrackerKind::Exact;
        let mut e = AquaEngine::new(cfg).unwrap();
        let row = GlobalRowId::new(5);
        hammer(&mut e, row, 9);
        assert_eq!(e.stats().installs, 0);
        hammer(&mut e, row, 1);
        assert_eq!(e.stats().installs, 1);
    }

    #[test]
    fn fpt_flip_is_repaired_by_the_epoch_audit() {
        let mut e = AquaEngine::new(small_config()).unwrap();
        let row = GlobalRowId::new(5);
        hammer(&mut e, row, 10);
        let good = e.translate(row, Time::ZERO).phys;
        let out = e.inject_fault(&FaultKind::FptFlip { entropy: 3 }, Time::ZERO);
        assert_eq!(
            out,
            InjectOutcome::CorruptedTranslation {
                rows: vec![row.index()]
            }
        );
        assert!(e.check_consistency().is_err(), "corruption must be visible");
        assert_ne!(e.translate(row, Time::ZERO).phys, good);
        e.end_epoch();
        e.check_consistency().unwrap();
        assert_eq!(e.translate(row, Time::ZERO).phys, good);
        let h = e.fault_health();
        assert_eq!(h.injected, 1);
        assert!(h.repairs >= 1);
        assert_eq!(h.unrecoverable, 0);
    }

    #[test]
    fn rpt_drop_is_restored_by_the_epoch_audit() {
        let mut e = AquaEngine::new(small_config()).unwrap();
        let row = GlobalRowId::new(5);
        hammer(&mut e, row, 10);
        let out = e.inject_fault(&FaultKind::RptDrop { entropy: 0 }, Time::ZERO);
        assert!(matches!(out, InjectOutcome::CorruptedTranslation { .. }));
        assert_eq!(e.quarantined_rows(), 0);
        e.end_epoch();
        e.check_consistency().unwrap();
        assert_eq!(e.quarantined_rows(), 1, "audit must restore the RPT entry");
        let phys = e.translate(row, Time::ZERO).phys;
        assert!(e.config().rqa_region_contains(phys));
    }

    #[test]
    fn out_of_geometry_rpt_flip_degrades_the_bank() {
        let mut e = AquaEngine::new(small_config()).unwrap();
        let row = GlobalRowId::new(5);
        hammer(&mut e, row, 10);
        let slot = match e.backend.peek(row) {
            Some(s) => s,
            None => panic!("row must be quarantined"),
        };
        // Force a back-pointer that is not a real row.
        let total = e.config().geometry.total_rows();
        e.rpt.set(
            slot.index(),
            RptEntry {
                original: GlobalRowId::new(total + 7),
                install_epoch: 0,
            },
        );
        e.faults_active = true;
        e.end_epoch();
        e.check_consistency().unwrap();
        let h = e.fault_health();
        assert_eq!(h.unrecoverable, 1);
        assert!(h.degraded_banks >= 1);
        match e.degraded_mode() {
            DegradedMode::VictimRefresh { banks } => assert!(!banks.is_empty()),
            DegradedMode::Normal => panic!("bank must be degraded"),
        }
        // Mitigations on the degraded bank fall back to victim refresh.
        let bank = e.degraded.iter().next().copied().unwrap();
        let phys = RowAddr {
            bank: BankId::new(bank),
            row: 10,
        };
        let mut refreshed = false;
        for _ in 0..10 {
            for a in e.on_activation(phys, Time::ZERO) {
                if matches!(a, MitigationAction::RefreshRows(_)) {
                    refreshed = true;
                }
            }
        }
        assert!(refreshed, "degraded bank must use the refresh fallback");
        assert!(e.mitigation_stats().victim_refreshes > 0);
    }

    #[test]
    fn migration_interrupt_aborts_exactly_one_quarantine() {
        let mut e = AquaEngine::new(small_config()).unwrap();
        let out = e.inject_fault(&FaultKind::MigrationInterrupt, Time::ZERO);
        assert_eq!(out, InjectOutcome::Applied);
        let row = GlobalRowId::new(5);
        hammer(&mut e, row, 10);
        assert_eq!(e.stats().installs, 0, "interrupted migration must abort");
        assert_eq!(e.fault_health().recovered, 1);
        e.check_consistency().unwrap();
        // The next threshold crossing quarantines normally.
        hammer(&mut e, row, 10);
        assert_eq!(e.stats().installs, 1);
    }

    #[test]
    fn tracker_faults_apply_through_the_engine() {
        let mut e = AquaEngine::new(small_config()).unwrap();
        let row = GlobalRowId::new(5);
        hammer(&mut e, row, 9);
        assert_eq!(
            e.inject_fault(&FaultKind::TrackerReset, Time::ZERO),
            InjectOutcome::Applied
        );
        hammer(&mut e, row, 9);
        assert_eq!(e.stats().installs, 0, "reset tracker must forget counts");
        assert_eq!(
            e.inject_fault(&FaultKind::TrackerSaturate, Time::ZERO),
            InjectOutcome::Applied
        );
        hammer(&mut e, row, 1);
        assert_eq!(e.stats().installs, 1, "saturated counter fires on touch");
    }

    #[test]
    fn cache_poison_is_mapped_mode_only_and_audit_recovers() {
        let mut e = AquaEngine::new(small_config()).unwrap();
        assert_eq!(
            e.inject_fault(&FaultKind::CachePoison { entropy: 1 }, Time::ZERO),
            InjectOutcome::Unsupported
        );
        let mut c = small_config();
        c.table_mode = TableMode::Mapped {
            bloom_bits: 256,
            cache_entries: 32,
        };
        let mut e = AquaEngine::new(c).unwrap();
        let row = GlobalRowId::new(5);
        hammer(&mut e, row, 10);
        let good = e.translate(row, Time::ZERO).phys;
        let out = e.inject_fault(&FaultKind::CachePoison { entropy: 1 }, Time::ZERO);
        assert!(matches!(out, InjectOutcome::CorruptedTranslation { .. }));
        assert_ne!(e.translate(row, Time::ZERO).phys, good);
        e.end_epoch();
        assert_eq!(e.translate(row, Time::ZERO).phys, good);
    }

    #[test]
    fn filter_clear_makes_false_negatives_until_audit() {
        let mut c = small_config();
        c.table_mode = TableMode::Mapped {
            bloom_bits: 256,
            cache_entries: 32,
        };
        let mut e = AquaEngine::new(c).unwrap();
        let row = GlobalRowId::new(5);
        hammer(&mut e, row, 10);
        let good = e.translate(row, Time::ZERO).phys;
        // Scan from the row's own bit so the cleared bit is its group's.
        let out = e.inject_fault(
            &FaultKind::FilterFalseClear {
                entropy: row.index() / 16,
            },
            Time::ZERO,
        );
        assert!(matches!(out, InjectOutcome::CorruptedTranslation { .. }));
        assert_ne!(
            e.translate(row, Time::ZERO).phys,
            good,
            "false negative must bypass the quarantine mapping"
        );
        e.end_epoch();
        assert_eq!(e.translate(row, Time::ZERO).phys, good);
        e.check_consistency().unwrap();
    }

    #[test]
    fn rqa_wrap_burst_raises_pressure_without_breaking_tables() {
        let mut e = AquaEngine::new(small_config()).unwrap();
        let row = GlobalRowId::new(5);
        hammer(&mut e, row, 10);
        let good = e.translate(row, Time::ZERO).phys;
        let out = e.inject_fault(&FaultKind::RqaWrapBurst { slots: 20 }, Time::ZERO);
        assert_eq!(out, InjectOutcome::Applied);
        assert!(
            e.stats().violations > 0,
            "burst past 8 slots wraps in-epoch"
        );
        assert_eq!(e.translate(row, Time::ZERO).phys, good);
        e.check_consistency().unwrap();
    }

    #[test]
    fn migration_latency_is_paper_value() {
        let base = BaselineConfig::paper_table1();
        let c = AquaConfig::for_rowhammer_threshold(1000, &base);
        let mut e = AquaEngine::new(c).unwrap();
        let actions = hammer(&mut e, GlobalRowId::new(42), 500);
        let dur = actions.iter().find_map(|a| match a {
            MitigationAction::BlockChannel { duration, .. } => Some(*duration),
            _ => None,
        });
        assert_eq!(dur.unwrap().as_ns(), 1_370);
    }
}
