//! Equivalence properties for the two ground-truth checkers.
//!
//! [`ActivationOracle`] and [`ShadowMemory`] store their per-row state in a
//! packed, identity-by-default layout tuned for the per-access hot path.
//! The straightforward dense layouts they replaced are kept here as
//! reference models: one array per field, every row written at
//! construction. Random operation sequences run against both, and after
//! every operation the full observable state must agree — every row's
//! counts and verdicts, the summary, and the violation count.

use aqua_dram::mitigation::DataMovement;
use aqua_dram::{BankId, DramGeometry, GlobalRowId, RowAddr};
use aqua_sim::{ActivationOracle, OracleSummary, ShadowMemory};
use proptest::prelude::*;

/// The dense activation oracle: six row-indexed arrays.
struct OracleModel {
    t_rh: u64,
    rows_per_bank: u32,
    curr: Vec<u32>,
    prev: Vec<u32>,
    flagged: Vec<bool>,
    dist_lo: Vec<u32>,
    dist_hi: Vec<u32>,
    flippable: Vec<bool>,
    summary: OracleSummary,
    band_totals: [u64; 3],
}

impl OracleModel {
    fn new(geometry: &DramGeometry, t_rh: u64) -> Self {
        let rows = geometry.total_rows() as usize;
        OracleModel {
            t_rh,
            rows_per_bank: geometry.rows_per_bank,
            curr: vec![0; rows],
            prev: vec![0; rows],
            flagged: vec![false; rows],
            dist_lo: vec![0; rows],
            dist_hi: vec![0; rows],
            flippable: vec![false; rows],
            summary: OracleSummary::default(),
            band_totals: [0; 3],
        }
    }

    fn index(&self, row: RowAddr) -> usize {
        row.bank.index() as usize * self.rows_per_bank as usize + row.row as usize
    }

    fn record(&mut self, row: RowAddr) -> bool {
        let i = self.index(row);
        self.curr[i] += 1;
        self.summary.total_activations += 1;
        let window = self.curr[i] as u64 + self.prev[i] as u64;
        self.summary.max_window_activations = self.summary.max_window_activations.max(window);
        let mut crossed = false;
        if window > self.t_rh && !self.flagged[i] {
            self.flagged[i] = true;
            self.summary.rows_over_trh += 1;
            crossed = true;
        }
        self.disturb_neighbours(row, i);
        crossed
    }

    fn record_refresh(&mut self, row: RowAddr) {
        let i = self.index(row);
        self.curr[i] += 1;
        self.summary.total_activations += 1;
        self.dist_lo[i] = 0;
        self.dist_hi[i] = 0;
        self.disturb_neighbours(row, i);
    }

    fn disturb_neighbours(&mut self, row: RowAddr, i: usize) {
        if row.row > 0 {
            self.dist_hi[i - 1] += 1;
            self.check_flippable(i - 1);
        }
        if row.row + 1 < self.rows_per_bank {
            self.dist_lo[i + 1] += 1;
            self.check_flippable(i + 1);
        }
    }

    fn check_flippable(&mut self, i: usize) {
        if !self.flippable[i]
            && (self.dist_lo[i] as u64 > self.t_rh || self.dist_hi[i] as u64 > self.t_rh)
        {
            self.flippable[i] = true;
            self.summary.rows_flippable += 1;
        }
    }

    fn end_epoch(&mut self) {
        for &c in &self.curr {
            for (band, floor) in [166, 500, 1000].into_iter().enumerate() {
                if c >= floor {
                    self.band_totals[band] += 1;
                }
            }
        }
        self.summary.epochs += 1;
        std::mem::swap(&mut self.prev, &mut self.curr);
        self.curr.fill(0);
        self.dist_lo.fill(0);
        self.dist_hi.fill(0);
    }

    fn summary(&self) -> OracleSummary {
        let mut s = self.summary;
        let epochs = s.epochs.max(1);
        s.avg_rows_166 = self.band_totals[0] / epochs;
        s.avg_rows_500 = self.band_totals[1] / epochs;
        s.avg_rows_1000 = self.band_totals[2] / epochs;
        s
    }
}

/// The dense shadow memory: one logical row id (or `VACANT`) per row.
struct ShadowModel {
    rows_per_bank: u32,
    contents: Vec<u32>,
    violations: u64,
}

const VACANT: u32 = u32::MAX;

impl ShadowModel {
    fn new(geometry: &DramGeometry) -> Self {
        ShadowModel {
            rows_per_bank: geometry.rows_per_bank,
            contents: (0..geometry.total_rows() as u32).collect(),
            violations: 0,
        }
    }

    fn index(&self, row: RowAddr) -> Option<usize> {
        if row.row >= self.rows_per_bank {
            return None;
        }
        let i = row.bank.index() as usize * self.rows_per_bank as usize + row.row as usize;
        (i < self.contents.len()).then_some(i)
    }

    fn vacate(&mut self, row: RowAddr) {
        match self.index(row) {
            Some(i) => self.contents[i] = VACANT,
            None => self.violations += 1,
        }
    }

    fn occupant(&self, phys: RowAddr) -> Option<GlobalRowId> {
        let c = self.contents[self.index(phys)?];
        (c != VACANT).then(|| GlobalRowId::new(c as u64))
    }

    fn apply(&mut self, movement: DataMovement) {
        match movement {
            DataMovement::None => {}
            DataMovement::Move { from, to } => {
                let (Some(fi), Some(ti)) = (self.index(from), self.index(to)) else {
                    self.violations += 1;
                    return;
                };
                if self.contents[ti] != VACANT {
                    self.violations += 1;
                }
                self.contents[ti] = self.contents[fi];
                self.contents[fi] = VACANT;
            }
            DataMovement::Swap { a, b } => {
                let (Some(ai), Some(bi)) = (self.index(a), self.index(b)) else {
                    self.violations += 1;
                    return;
                };
                self.contents.swap(ai, bi);
            }
        }
    }

    fn check(&self, row: GlobalRowId, phys: RowAddr) -> bool {
        self.index(phys)
            .is_some_and(|i| u64::from(self.contents[i]) == row.index())
    }

    fn verify(&mut self, row: GlobalRowId, phys: RowAddr) -> bool {
        let ok = self.check(row, phys);
        if !ok {
            self.violations += 1;
        }
        ok
    }
}

fn geometry() -> DramGeometry {
    DramGeometry::tiny()
}

/// Every in-geometry row address, bank-major.
fn all_rows() -> impl Iterator<Item = RowAddr> {
    let g = geometry();
    (0..g.total_banks()).flat_map(move |b| {
        (0..g.rows_per_bank).map(move |row| RowAddr {
            bank: BankId::new(b),
            row,
        })
    })
}

/// Rows the sequences draw from: each bank's first and last rows, their
/// neighbours, and a pair mid-bank. A small pool makes counts climb past
/// `T_RH` and neighbours disturb each other.
const ORACLE_ROWS: [u32; 8] = [0, 1, 2, 511, 512, 1021, 1022, 1023];

/// The shadow's pool adds row 1024, one past the end of a bank; bank 4 is
/// past the end of the module.
const SHADOW_ROWS: [u32; 9] = [0, 1, 2, 5, 511, 512, 1022, 1023, 1024];

/// Burst lengths: one below, on and above each Table II band edge
/// (166, 500, 1000), plus short bursts that sum across a burst pair.
const BURSTS: [u32; 12] = [1, 7, 165, 166, 167, 499, 500, 501, 999, 1000, 1001, 334];

fn addr(bank: u32, row: u32) -> RowAddr {
    RowAddr {
        bank: BankId::new(bank),
        row,
    }
}

fn assert_oracles_agree(oracle: &ActivationOracle, model: &OracleModel, step: usize) {
    assert_eq!(oracle.summary(), model.summary(), "summary after op {step}");
    for row in all_rows() {
        let i = model.index(row);
        assert_eq!(oracle.epoch_count(row), u64::from(model.curr[i]), "{row:?}");
        assert_eq!(
            oracle.window_count(row),
            u64::from(model.curr[i]) + u64::from(model.prev[i]),
            "{row:?} after op {step}"
        );
        assert_eq!(oracle.is_flippable(row), model.flippable[i], "{row:?}");
    }
}

fn assert_shadows_agree(shadow: &ShadowMemory, model: &ShadowModel, step: usize) {
    assert_eq!(
        shadow.violations(),
        model.violations,
        "violations after op {step}"
    );
    for row in all_rows() {
        assert_eq!(
            shadow.occupant(row),
            model.occupant(row),
            "{row:?} after op {step}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `record`, `record_refresh` and `end_epoch` sequences leave the packed
    /// oracle observably identical to the dense model after every step.
    #[test]
    fn oracle_matches_dense_model(
        t_rh in 1u64..20,
        ops in prop::collection::vec((0u8..16, 0u32..4, 0usize..ORACLE_ROWS.len()), 1..200),
    ) {
        let g = geometry();
        let mut oracle = ActivationOracle::new(&g, t_rh);
        let mut model = OracleModel::new(&g, t_rh);
        for (step, &(op, bank, r)) in ops.iter().enumerate() {
            let row = addr(bank, ORACLE_ROWS[r]);
            match op {
                0..=10 => prop_assert_eq!(oracle.record(row), model.record(row)),
                11..=14 => {
                    oracle.record_refresh(row);
                    model.record_refresh(row);
                }
                _ => {
                    oracle.end_epoch();
                    model.end_epoch();
                }
            }
            assert_oracles_agree(&oracle, &model, step);
        }
    }

    /// Band counts cross 166/500/1000 only with long runs on one row, so a
    /// second property drives a few rows hard across several epochs, with
    /// burst lengths that land an epoch's count on each band's edge.
    #[test]
    fn oracle_bands_match_dense_model(
        t_rh in 1u64..20,
        bursts in prop::collection::vec(
            ((0u32..4, 0usize..ORACLE_ROWS.len()), 0usize..BURSTS.len(), any::<bool>()),
            1..16,
        ),
    ) {
        let g = geometry();
        let mut oracle = ActivationOracle::new(&g, t_rh);
        let mut model = OracleModel::new(&g, t_rh);
        for (step, &((bank, r), n, end)) in bursts.iter().enumerate() {
            let row = addr(bank, ORACLE_ROWS[r]);
            for _ in 0..BURSTS[n] {
                prop_assert_eq!(oracle.record(row), model.record(row));
            }
            if end {
                oracle.end_epoch();
                model.end_epoch();
            }
            assert_oracles_agree(&oracle, &model, step);
        }
    }

    /// `vacate`, `Move`, `Swap`, `verify` and `check` — including
    /// out-of-geometry addresses and moves onto live data — leave the
    /// identity-by-default shadow observably identical to the dense map.
    #[test]
    fn shadow_matches_dense_model(
        ops in prop::collection::vec(
            (0u8..6, (0u32..5, 0usize..SHADOW_ROWS.len()), (0u32..5, 0usize..SHADOW_ROWS.len())),
            1..200,
        ),
    ) {
        let g = geometry();
        let mut shadow = ShadowMemory::new(&g);
        let mut model = ShadowModel::new(&g);
        for (step, &(op, (ab, ar), (bb, br))) in ops.iter().enumerate() {
            let a = addr(ab, SHADOW_ROWS[ar]);
            let b = addr(bb, SHADOW_ROWS[br]);
            // The logical row `b` names; past the module for bank 4.
            let gid = GlobalRowId::new(u64::from(bb) * 1024 + u64::from(SHADOW_ROWS[br]));
            match op {
                0 => {
                    shadow.vacate(a);
                    model.vacate(a);
                }
                1 => {
                    let m = DataMovement::Move { from: a, to: b };
                    shadow.apply(m);
                    model.apply(m);
                }
                2 => {
                    let m = DataMovement::Swap { a, b };
                    shadow.apply(m);
                    model.apply(m);
                }
                3 => prop_assert_eq!(shadow.verify(gid, a), model.verify(gid, a)),
                4 => prop_assert_eq!(shadow.check(gid, a), model.check(gid, a)),
                _ => {
                    shadow.apply(DataMovement::None);
                    prop_assert_eq!(shadow.occupant(a), model.occupant(a));
                }
            }
            assert_shadows_agree(&shadow, &model, step);
        }
    }
}
