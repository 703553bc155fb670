//! Ground-truth activation oracle (the security checker).
//!
//! [`ActivationOracle`] sees every physical row activation — demand
//! accesses and the mitigative refreshes a scheme's own tracker never
//! observes — and reports which rows exceeded `T_RH` within a refresh
//! window and which rows a single neighbour could have flipped. It runs on
//! every activation of every simulation, so its per-row state is one
//! packed record per row plus two bitsets; see the type's "Layout" notes.

use crate::bitset::Bitset;
use aqua_dram::{DramGeometry, RowAddr};
use serde::{Deserialize, Serialize};

/// Summary of what the oracle observed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleSummary {
    /// Maximum activations any physical row accumulated in a two-epoch
    /// window (the refresh-window upper bound of section VI-A).
    pub max_window_activations: u64,
    /// Distinct physical rows whose window count exceeded `T_RH` —
    /// each one is a potential Rowhammer bit flip.
    pub rows_over_trh: u64,
    /// Total activations recorded (normal + victim refresh).
    pub total_activations: u64,
    /// Distinct rows where a Rowhammer bit flip is possible: some *single*
    /// adjacent row accumulated more than `T_RH` activations since this
    /// row's last refresh. Victim refreshes reset the disturbance, so this
    /// metric credits victim-refresh where it works — and exposes
    /// Half-Double where it does not.
    pub rows_flippable: u64,
    /// Average rows per epoch with 166+ activations (Table II column).
    pub avg_rows_166: u64,
    /// Average rows per epoch with 500+ activations (Table II column).
    pub avg_rows_500: u64,
    /// Average rows per epoch with 1000+ activations (Table II column).
    pub avg_rows_1000: u64,
    /// Epochs completed.
    pub epochs: u64,
}

/// Index of each field in a row's [`ActivationOracle`] record.
const CURR: usize = 0;
const PREV: usize = 1;
/// Disturbance on the row from its lower neighbour (`row - 1`) since the
/// row's last refresh.
const DIST_LO: usize = 2;
/// Disturbance from the upper neighbour (`row + 1`).
const DIST_HI: usize = 3;

/// Counts every activation of every *physical* row, independent of the
/// mitigation scheme's own (fallible, resettable) tracker.
///
/// Any 64 ms refresh window spans at most two tracker epochs, so the count
/// `previous_epoch + current_epoch` upper-bounds the sliding-window
/// activation count of a row; a row whose bound exceeds `T_RH` is reported
/// as vulnerable.
///
/// # Layout
///
/// The oracle runs on every activation, so its state is laid out for the
/// hot path rather than for reading:
///
/// - one 16-byte record `[curr, prev, dist_lo, dist_hi]` per row, so an
///   activation's own counts and both neighbours' disturbance sit on one
///   cache line (or two adjacent ones);
/// - the sticky `flagged` (over `T_RH`) and `flippable` verdicts as bitsets
///   (256 KiB each at paper scale), consulted only once a count exceeds
///   `T_RH`.
///
/// The records come from a zeroed allocation and [`end_epoch`] never writes
/// an all-zero record, so pages of rows the workload never touches are
/// never written and never become resident.
///
/// [`end_epoch`]: ActivationOracle::end_epoch
#[derive(Debug)]
pub struct ActivationOracle {
    t_rh: u64,
    rows_per_bank: u32,
    rows: Vec<[u32; 4]>,
    flagged: Bitset,
    flippable: Bitset,
    summary: OracleSummary,
    band_totals: [u64; 3],
}

impl ActivationOracle {
    /// Creates the oracle for a module, flagging rows whose two-epoch count
    /// exceeds `t_rh`.
    pub fn new(geometry: &DramGeometry, t_rh: u64) -> Self {
        let rows = geometry.total_rows() as usize;
        ActivationOracle {
            t_rh,
            rows_per_bank: geometry.rows_per_bank,
            rows: vec![[0u32; 4]; rows],
            flagged: Bitset::new(rows),
            flippable: Bitset::new(rows),
            summary: OracleSummary::default(),
            band_totals: [0; 3],
        }
    }

    fn index(&self, row: RowAddr) -> usize {
        row.bank.index() as usize * self.rows_per_bank as usize + row.row as usize
    }

    /// Records one activation of physical row `row`. Returns `true` when
    /// this activation first pushed the row's two-epoch window count over
    /// `T_RH` (used to trace `ThresholdCrossed` events).
    pub fn record(&mut self, row: RowAddr) -> bool {
        let i = self.index(row);
        let r = &mut self.rows[i];
        r[CURR] += 1;
        let window = u64::from(r[CURR]) + u64::from(r[PREV]);
        self.summary.total_activations += 1;
        if window > self.summary.max_window_activations {
            self.summary.max_window_activations = window;
        }
        let crossed = window > self.t_rh && self.flagged.insert(i);
        if crossed {
            self.summary.rows_over_trh += 1;
        }
        self.disturb_neighbours(row, i);
        crossed
    }

    /// Records a mitigative refresh of `row`: the refresh is itself a row
    /// activation (it disturbs the row's neighbours — the Half-Double
    /// mechanism) but it *restores* the row's own charge, resetting the
    /// disturbance accumulated on it.
    pub fn record_refresh(&mut self, row: RowAddr) {
        let i = self.index(row);
        let r = &mut self.rows[i];
        r[CURR] += 1;
        r[DIST_LO] = 0;
        r[DIST_HI] = 0;
        self.summary.total_activations += 1;
        self.disturb_neighbours(row, i);
    }

    fn disturb_neighbours(&mut self, row: RowAddr, i: usize) {
        if row.row > 0 {
            // `row` is the upper neighbour of `row - 1`.
            self.disturb(i - 1, DIST_HI);
        }
        if row.row + 1 < self.rows_per_bank {
            self.disturb(i + 1, DIST_LO);
        }
    }

    /// Adds one unit of disturbance from one side to row `i`. A row's
    /// verdict is sticky, so only the count that just grew needs checking.
    fn disturb(&mut self, i: usize, side: usize) {
        let d = &mut self.rows[i][side];
        *d += 1;
        if u64::from(*d) > self.t_rh && self.flippable.insert(i) {
            self.summary.rows_flippable += 1;
        }
    }

    /// Current-epoch activation count of `row`.
    pub fn epoch_count(&self, row: RowAddr) -> u64 {
        u64::from(self.rows[self.index(row)][CURR])
    }

    /// Two-epoch window bound for `row`.
    pub fn window_count(&self, row: RowAddr) -> u64 {
        let r = &self.rows[self.index(row)];
        u64::from(r[CURR]) + u64::from(r[PREV])
    }

    /// Whether a bit flip became possible in `row` at any point in the run
    /// (a single neighbour exceeded `T_RH` activations since `row`'s last
    /// refresh).
    pub fn is_flippable(&self, row: RowAddr) -> bool {
        self.flippable.contains(self.index(row))
    }

    /// Rolls over to the next epoch, folding the band histogram
    /// (Table II's 166+/500+/1000+ columns) into the running averages.
    ///
    /// One pass over the records: the current count becomes the previous
    /// one and every row's disturbance resets. All-zero records are skipped
    /// unwritten, so the rollover dirties no page the epoch did not touch.
    pub fn end_epoch(&mut self) {
        for r in &mut self.rows {
            if *r == [0; 4] {
                continue;
            }
            let c = r[CURR];
            if c >= 166 {
                self.band_totals[0] += 1;
                if c >= 500 {
                    self.band_totals[1] += 1;
                    if c >= 1000 {
                        self.band_totals[2] += 1;
                    }
                }
            }
            // Every row receives its periodic refresh once per window,
            // which restores its charge; disturbance does not carry across
            // epochs.
            *r = [0, c, 0, 0];
        }
        self.summary.epochs += 1;
    }

    /// The oracle's summary (per-epoch band counts averaged over epochs).
    pub fn summary(&self) -> OracleSummary {
        let mut s = self.summary;
        let epochs = s.epochs.max(1);
        s.avg_rows_166 = self.band_totals[0] / epochs;
        s.avg_rows_500 = self.band_totals[1] / epochs;
        s.avg_rows_1000 = self.band_totals[2] / epochs;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_dram::BankId;

    fn addr(bank: u32, row: u32) -> RowAddr {
        RowAddr {
            bank: BankId::new(bank),
            row,
        }
    }

    fn oracle(t_rh: u64) -> ActivationOracle {
        ActivationOracle::new(&DramGeometry::tiny(), t_rh)
    }

    #[test]
    fn counts_accumulate_per_row() {
        let mut o = oracle(100);
        for _ in 0..5 {
            o.record(addr(0, 1));
        }
        o.record(addr(1, 1));
        assert_eq!(o.epoch_count(addr(0, 1)), 5);
        assert_eq!(o.epoch_count(addr(1, 1)), 1);
        assert_eq!(o.summary().total_activations, 6);
    }

    #[test]
    fn window_spans_two_epochs() {
        let mut o = oracle(100);
        for _ in 0..60 {
            o.record(addr(0, 1));
        }
        o.end_epoch();
        for _ in 0..50 {
            o.record(addr(0, 1));
        }
        // 60 + 50 = 110 > 100: flagged once.
        assert_eq!(o.window_count(addr(0, 1)), 110);
        let s = o.summary();
        assert_eq!(s.rows_over_trh, 1);
        assert_eq!(s.max_window_activations, 110);
    }

    #[test]
    fn window_forgets_after_two_epochs() {
        let mut o = oracle(100);
        for _ in 0..60 {
            o.record(addr(0, 1));
        }
        o.end_epoch();
        o.end_epoch();
        for _ in 0..60 {
            o.record(addr(0, 1));
        }
        assert_eq!(o.summary().rows_over_trh, 0);
    }

    #[test]
    fn exactly_trh_is_not_a_violation() {
        // The threat model: a flip needs MORE than T_RH activations.
        let mut o = oracle(100);
        for _ in 0..100 {
            o.record(addr(0, 1));
        }
        assert_eq!(o.summary().rows_over_trh, 0);
        o.record(addr(0, 1));
        assert_eq!(o.summary().rows_over_trh, 1);
    }

    #[test]
    fn band_histogram_averages_over_epochs() {
        let mut o = oracle(10_000);
        // Epoch 1: one row with 200 acts, one with 600.
        for _ in 0..200 {
            o.record(addr(0, 1));
        }
        for _ in 0..600 {
            o.record(addr(0, 2));
        }
        o.end_epoch();
        // Epoch 2: nothing.
        o.end_epoch();
        let s = o.summary();
        assert_eq!(s.epochs, 2);
        assert_eq!(s.avg_rows_166, 1); // 2 rows / 2 epochs
        assert_eq!(s.avg_rows_500, 0); // 1 row / 2 epochs, integer division
    }

    #[test]
    fn disturbance_accumulates_from_single_neighbour() {
        let mut o = oracle(10);
        // Hammer row 5; row 4 and row 6 each accumulate disturbance.
        for _ in 0..11 {
            o.record(addr(0, 5));
        }
        let s = o.summary();
        assert_eq!(s.rows_flippable, 2, "{s:?}");
    }

    #[test]
    fn refresh_resets_victim_disturbance() {
        let mut o = oracle(10);
        for _ in 0..8 {
            o.record(addr(0, 5));
        }
        // Victim refresh of row 6 restores its charge.
        o.record_refresh(addr(0, 6));
        for _ in 0..8 {
            o.record(addr(0, 5));
        }
        // Row 6 never saw more than 8 post-refresh activations; row 4 did.
        assert_eq!(o.summary().rows_flippable, 1);
    }

    #[test]
    fn refreshes_disturb_the_next_row_over() {
        // The Half-Double mechanism in miniature: refreshes of row 6 count
        // as activations adjacent to row 7.
        let mut o = oracle(10);
        for _ in 0..11 {
            o.record_refresh(addr(0, 6));
        }
        let s = o.summary();
        assert!(s.rows_flippable >= 1);
    }

    #[test]
    fn bank_edges_do_not_wrap() {
        let mut o = oracle(5);
        let last = DramGeometry::tiny().rows_per_bank - 1;
        for _ in 0..10 {
            o.record(addr(0, 0));
            o.record(addr(0, last));
        }
        // Only the single in-bank neighbour of each edge row is disturbed.
        assert_eq!(o.summary().rows_flippable, 2);
    }

    #[test]
    fn disturbance_resets_at_epoch() {
        let mut o = oracle(10);
        for _ in 0..8 {
            o.record(addr(0, 5));
        }
        o.end_epoch();
        for _ in 0..8 {
            o.record(addr(0, 5));
        }
        assert_eq!(o.summary().rows_flippable, 0);
    }

    #[test]
    fn flagged_rows_counted_once() {
        let mut o = oracle(10);
        for _ in 0..50 {
            o.record(addr(0, 1));
        }
        assert_eq!(o.summary().rows_over_trh, 1);
    }
}
