//! Host-time phase profiling: accumulated wallclock statistics.
//!
//! Everything else in this crate measures *simulated* picoseconds; this
//! module measures *host* nanoseconds, so the hot-loop speed campaign can
//! see where real time goes and gate on accesses per wallclock second. The
//! pure accumulation structures here ([`PhaseStats`], [`WallProfile`],
//! [`WallclockSummary`]) carry no clock, so they stay property-testable;
//! the actual `Instant`-reading machinery (the phase stack and
//! [`crate::hub::PhaseGuard`]) lives in the hub, and a disabled hub never
//! reads the clock.
//!
//! Host time is nondeterministic, so [`WallclockSummary`]'s `PartialEq`
//! deliberately compares only the deterministic shape of a profile — phase
//! paths, per-phase counts, and the accesses-simulated count — never
//! nanosecond totals. That keeps `RunReport` equality (the backbone of the
//! serial-vs-parallel determinism tests) meaningful on instrumented runs.

use std::collections::BTreeMap;
use std::io::{self, Write};

use crate::json;

/// Accumulated host-time statistics for one phase (or one unique stack
/// path). All durations are host nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Completed occurrences.
    pub count: u64,
    /// Inclusive wallclock across all occurrences (children included).
    pub total_ns: u64,
    /// Wallclock spent inside child phases, summed across occurrences.
    pub child_ns: u64,
    /// Shortest single occurrence (0 when `count` is 0).
    pub min_ns: u64,
    /// Longest single occurrence.
    pub max_ns: u64,
}

impl PhaseStats {
    /// Inclusive time minus child time: wallclock attributable to this
    /// phase itself.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    /// Folds in one completed occurrence.
    pub fn record(&mut self, total_ns: u64, child_ns: u64) {
        self.min_ns = if self.count == 0 {
            total_ns
        } else {
            self.min_ns.min(total_ns)
        };
        self.max_ns = self.max_ns.max(total_ns);
        self.count += 1;
        self.total_ns += total_ns;
        self.child_ns += child_ns;
    }

    /// Folds another accumulator into this one (counts and totals add,
    /// min/max combine). Commutative and associative, so merged counts are
    /// independent of merge order.
    pub fn merge(&mut self, other: &PhaseStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.child_ns += other.child_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Accumulated host-time profile keyed by stack path.
///
/// A path is the `;`-joined chain of phase names from the outermost open
/// phase to the one being recorded (`"sim.run;sim.epoch_end"`), i.e. exactly
/// the folded-stacks key flamegraph tooling consumes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WallProfile {
    paths: BTreeMap<String, PhaseStats>,
}

impl WallProfile {
    /// An empty profile.
    pub fn new() -> Self {
        WallProfile::default()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Folds in one completed phase occurrence at `path`.
    pub fn record(&mut self, path: &str, total_ns: u64, child_ns: u64) {
        self.paths
            .entry(path.to_string())
            .or_default()
            .record(total_ns, child_ns);
    }

    /// Folds another profile into this one, path-wise. Counts merge
    /// deterministically: any partition of the same recordings across forks
    /// merges back to the same counts.
    pub fn merge(&mut self, other: &WallProfile) {
        for (path, stats) in &other.paths {
            self.paths.entry(path.clone()).or_default().merge(stats);
        }
    }

    /// Folds `other` in *nested* under `prefix`: every path `p` of `other`
    /// lands at `prefix;p`, and one synthetic occurrence is recorded at
    /// `prefix` itself whose inclusive time is `other`'s root total, fully
    /// attributed to child time. Returns that root total in nanoseconds.
    ///
    /// The sharded simulator uses this to park each shard's wall profile
    /// under a `sim.sharded;shard<i>` subtree: the shard rows stay visible
    /// in folded stacks, but none of them is a root path, so the merged
    /// hub's `host_wallclock_ns` keeps measuring real elapsed time (the
    /// coordinator's own open phase) instead of summing per-shard CPU time.
    pub fn merge_nested(&mut self, prefix: &str, other: &WallProfile) -> u64 {
        if prefix.is_empty() {
            let root_total = other
                .paths
                .iter()
                .filter(|(p, _)| !p.contains(';'))
                .map(|(_, s)| s.total_ns)
                .sum();
            self.merge(other);
            return root_total;
        }
        let mut root_total = 0u64;
        for (path, stats) in &other.paths {
            if !path.contains(';') {
                root_total += stats.total_ns;
            }
            self.paths
                .entry(format!("{prefix};{path}"))
                .or_default()
                .merge(stats);
        }
        if !other.paths.is_empty() {
            self.paths
                .entry(prefix.to_string())
                .or_default()
                .record(root_total, root_total);
        }
        root_total
    }

    /// Folds `other` in nested under `path`, a phase this profile has
    /// already recorded: every path `p` of `other` lands at `path;p` and
    /// `other`'s root total is added to `path`'s child time. No occurrence
    /// is added at `path`, so its count and inclusive time stay what the
    /// phase itself measured.
    ///
    /// The matrix runner uses this to park each job's profile under the
    /// `bench.run` phase the jobs ran inside, once that phase has closed.
    /// Parallel jobs can then credit `bench.run` with more child time than
    /// its elapsed time; its self time saturates at zero.
    pub fn merge_under(&mut self, path: &str, other: &WallProfile) {
        let mut root_total = 0u64;
        for (p, stats) in &other.paths {
            if !p.contains(';') {
                root_total += stats.total_ns;
            }
            self.paths
                .entry(format!("{path};{p}"))
                .or_default()
                .merge(stats);
        }
        if let Some(parent) = self.paths.get_mut(path) {
            parent.child_ns += root_total;
        }
    }

    /// Iterates `(path, stats)` in sorted path order.
    pub fn paths(&self) -> impl Iterator<Item = (&str, &PhaseStats)> {
        self.paths.iter().map(|(p, s)| (p.as_str(), s))
    }

    /// Looks up one path's stats.
    pub fn path(&self, path: &str) -> Option<&PhaseStats> {
        self.paths.get(path)
    }
}

/// Leaf phase name of a `;`-joined stack path.
fn leaf(path: &str) -> &str {
    path.rsplit(';').next().unwrap_or(path)
}

/// Condensed host-time profile plus throughput, embeddable in
/// [`crate::TelemetrySummary`].
#[derive(Debug, Clone, Default)]
pub struct WallclockSummary {
    /// Per-stack-path stats, sorted by path (the folded-stacks view).
    pub paths: Vec<(String, PhaseStats)>,
    /// Per-phase stats aggregated over every path ending in that phase,
    /// sorted by name.
    pub phases: Vec<(String, PhaseStats)>,
    /// Sum of root-path (no `;`) inclusive totals: profiled elapsed time.
    /// Hubs merged from other threads nest under the phase they ran inside
    /// ([`WallProfile::merge_nested`], [`WallProfile::merge_under`]), so
    /// their time is not summed a second time here. A flat
    /// [`WallProfile::merge`] of another thread's roots does add them.
    pub host_wallclock_ns: u64,
    /// Value of the `sim.requests` counter when the summary was taken.
    pub accesses_simulated: u64,
    /// `accesses_simulated` per host wallclock second (0 when no wallclock
    /// was profiled).
    pub accesses_per_sec: f64,
}

/// Host nanoseconds are noise across runs and machines, so equality covers
/// only the deterministic shape: paths, per-path counts, phase names,
/// per-phase counts, and the accesses-simulated count.
impl PartialEq for WallclockSummary {
    fn eq(&self, other: &Self) -> bool {
        self.accesses_simulated == other.accesses_simulated
            && self.paths.len() == other.paths.len()
            && self.phases.len() == other.phases.len()
            && self
                .paths
                .iter()
                .zip(&other.paths)
                .all(|((ap, a), (bp, b))| ap == bp && a.count == b.count)
            && self
                .phases
                .iter()
                .zip(&other.phases)
                .all(|((an, a), (bn, b))| an == bn && a.count == b.count)
    }
}

impl WallclockSummary {
    /// Condenses a profile, attaching the accesses-simulated count for
    /// throughput derivation.
    pub fn from_profile(profile: &WallProfile, accesses_simulated: u64) -> Self {
        let paths: Vec<(String, PhaseStats)> =
            profile.paths().map(|(p, s)| (p.to_string(), *s)).collect();
        let mut by_name: BTreeMap<&str, PhaseStats> = BTreeMap::new();
        let mut host_wallclock_ns = 0u64;
        for (path, stats) in &paths {
            by_name.entry(leaf(path)).or_default().merge(stats);
            if !path.contains(';') {
                host_wallclock_ns += stats.total_ns;
            }
        }
        let phases = by_name
            .into_iter()
            .map(|(n, s)| (n.to_string(), s))
            .collect();
        let accesses_per_sec = if host_wallclock_ns > 0 {
            accesses_simulated as f64 / (host_wallclock_ns as f64 / 1e9)
        } else {
            0.0
        };
        WallclockSummary {
            paths,
            phases,
            host_wallclock_ns,
            accesses_simulated,
            accesses_per_sec,
        }
    }

    /// Looks up one aggregated phase by (leaf) name.
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Looks up one stack path.
    pub fn path(&self, path: &str) -> Option<&PhaseStats> {
        self.paths.iter().find(|(p, _)| p == path).map(|(_, s)| s)
    }

    /// Writes flamegraph-compatible folded stacks: one `path self_ns` line
    /// per stack path with nonzero self time, semicolon-separated frames —
    /// the exact input `flamegraph.pl` / inferno's `flamegraph` expect.
    pub fn write_folded<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for (path, stats) in &self.paths {
            let self_ns = stats.self_ns();
            if self_ns > 0 {
                writeln!(w, "{path} {self_ns}")?;
            }
        }
        Ok(())
    }

    /// Writes the profile as JSONL: one
    /// `{path, name, count, total_ns, self_ns, min_ns, max_ns}` object per
    /// stack path, then one `{host_wallclock_ns, accesses_simulated,
    /// accesses_per_sec}` trailer line.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for (path, s) in &self.paths {
            let mut line = String::from("{");
            json::push_str(&mut line, "path");
            line.push(':');
            json::push_str(&mut line, path);
            line.push(',');
            json::push_str(&mut line, "name");
            line.push(':');
            json::push_str(&mut line, leaf(path));
            line.push_str(&format!(
                ",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                s.count,
                s.total_ns,
                s.self_ns(),
                s.min_ns,
                s.max_ns
            ));
            writeln!(w, "{line}")?;
        }
        writeln!(
            w,
            "{{\"host_wallclock_ns\":{},\"accesses_simulated\":{},\"accesses_per_sec\":{}}}",
            self.host_wallclock_ns,
            self.accesses_simulated,
            json::num_trimmed(self.accesses_per_sec)
        )
    }

    /// Renders the summary as one JSON object (embedded by
    /// [`crate::TelemetrySummary::to_json`]).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"host_wallclock_ns\":{},\"accesses_simulated\":{},\"accesses_per_sec\":{},\
             \"phases\":{{",
            self.host_wallclock_ns,
            self.accesses_simulated,
            json::num_trimmed(self.accesses_per_sec)
        );
        for (i, (name, s)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            out.push_str(&format!(
                ":{{\"count\":{},\"total_ns\":{},\"self_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                s.count,
                s.total_ns,
                s.self_ns(),
                s.min_ns,
                s.max_ns
            ));
        }
        out.push_str("},\"paths\":{");
        for (i, (path, s)) in self.paths.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, path);
            out.push_str(&format!(
                ":{{\"count\":{},\"total_ns\":{}}}",
                s.count, s.total_ns
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_record_tracks_min_max_and_self() {
        let mut s = PhaseStats::default();
        s.record(100, 40);
        s.record(10, 0);
        s.record(50, 20);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 160);
        assert_eq!(s.child_ns, 60);
        assert_eq!(s.self_ns(), 100);
        assert_eq!((s.min_ns, s.max_ns), (10, 100));
    }

    #[test]
    fn stats_merge_is_commutative() {
        let mut a = PhaseStats::default();
        a.record(100, 10);
        let mut b = PhaseStats::default();
        b.record(5, 0);
        b.record(200, 50);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 3);
        assert_eq!(ab.total_ns, 305);
        assert_eq!((ab.min_ns, ab.max_ns), (5, 200));
        // Merging an empty accumulator changes nothing.
        let before = ab;
        ab.merge(&PhaseStats::default());
        assert_eq!(ab, before);
    }

    #[test]
    fn self_time_saturates_on_clock_skew() {
        // A child measured longer than its parent (scheduler preemption
        // between the two `Instant` reads) must not underflow.
        let s = PhaseStats {
            count: 1,
            total_ns: 10,
            child_ns: 25,
            min_ns: 10,
            max_ns: 10,
        };
        assert_eq!(s.self_ns(), 0);
    }

    fn sample_profile() -> WallProfile {
        let mut p = WallProfile::new();
        p.record("sim.run", 1_000, 700);
        p.record("sim.run;sim.epoch", 400, 100);
        p.record("sim.run;sim.epoch", 300, 0);
        p.record("sim.run;sim.epoch_end", 0, 0);
        p
    }

    #[test]
    fn summary_aggregates_by_leaf_name_and_derives_throughput() {
        let s = WallclockSummary::from_profile(&sample_profile(), 2_000);
        assert_eq!(s.host_wallclock_ns, 1_000);
        assert_eq!(s.accesses_simulated, 2_000);
        // 2000 accesses over 1000 ns = 2e9 accesses/sec.
        assert!(
            (s.accesses_per_sec - 2e9).abs() < 1.0,
            "{}",
            s.accesses_per_sec
        );
        let epoch = s.phase("sim.epoch").unwrap();
        assert_eq!(epoch.count, 2);
        assert_eq!(epoch.total_ns, 700);
        assert_eq!(epoch.self_ns(), 600);
        assert_eq!(s.path("sim.run").unwrap().self_ns(), 300);
    }

    #[test]
    fn profile_merge_counts_are_partition_independent() {
        let mut whole = sample_profile();
        whole.merge(&sample_profile());
        // The same recordings split differently across two forks.
        let mut a = WallProfile::new();
        a.record("sim.run", 1_000, 700);
        a.record("sim.run;sim.epoch", 400, 100);
        let mut b = WallProfile::new();
        b.record("sim.run;sim.epoch", 300, 0);
        b.record("sim.run;sim.epoch", 400, 100);
        b.record("sim.run;sim.epoch", 300, 0);
        b.record("sim.run", 1_000, 700);
        b.record("sim.run;sim.epoch_end", 0, 0);
        b.record("sim.run;sim.epoch_end", 0, 0);
        let mut parts = WallProfile::new();
        parts.merge(&a);
        parts.merge(&b);
        let ws = WallclockSummary::from_profile(&whole, 0);
        let ps = WallclockSummary::from_profile(&parts, 0);
        assert_eq!(ws, ps); // counts + paths compare; ns don't
        assert_eq!(
            whole.path("sim.run;sim.epoch").unwrap().count,
            parts.path("sim.run;sim.epoch").unwrap().count
        );
    }

    #[test]
    fn merge_nested_parks_shard_rows_off_the_root() {
        let mut root = WallProfile::new();
        root.record("sim.sharded", 2_000, 0);
        let total0 = root.merge_nested("sim.sharded;shard0", &sample_profile());
        let total1 = root.merge_nested("sim.sharded;shard1", &sample_profile());
        assert_eq!(total0, 1_000);
        assert_eq!(total1, 1_000);
        // Shard rows are nested, with a synthetic all-child row per shard.
        let shard0 = root.path("sim.sharded;shard0").unwrap();
        assert_eq!((shard0.count, shard0.total_ns), (1, 1_000));
        assert_eq!(shard0.self_ns(), 0);
        assert_eq!(
            root.path("sim.sharded;shard0;sim.run;sim.epoch")
                .unwrap()
                .count,
            2
        );
        // Only the coordinator's own phase is a root, so host wallclock is
        // its elapsed time — not the sum of shard CPU time.
        let s = WallclockSummary::from_profile(&root, 0);
        assert_eq!(s.host_wallclock_ns, 2_000);
        // An empty prefix degrades to the flat merge.
        let mut flat = WallProfile::new();
        assert_eq!(flat.merge_nested("", &sample_profile()), 1_000);
        assert_eq!(flat.path("sim.run").unwrap().count, 1);
    }

    #[test]
    fn merge_under_credits_a_closed_phase_without_a_new_occurrence() {
        let mut root = WallProfile::new();
        root.record("bench.setup", 50, 0);
        root.record("bench.run", 1_200, 0);
        root.record("bench.merge", 30, 0);
        // Two jobs ran in parallel inside bench.run.
        root.merge_under("bench.run", &sample_profile());
        root.merge_under("bench.run", &sample_profile());
        let run = root.path("bench.run").unwrap();
        assert_eq!((run.count, run.total_ns, run.child_ns), (1, 1_200, 2_000));
        assert_eq!(run.self_ns(), 0);
        assert_eq!(root.path("bench.run;sim.run").unwrap().count, 2);
        assert_eq!(root.path("bench.merge").unwrap().child_ns, 0);
        // Host wallclock is the coordinator's three stages, nothing more.
        let s = WallclockSummary::from_profile(&root, 0);
        assert_eq!(s.host_wallclock_ns, 1_280);
    }

    #[test]
    fn summary_equality_ignores_nanoseconds() {
        let mut fast = WallProfile::new();
        fast.record("sim.run", 10, 0);
        let mut slow = WallProfile::new();
        slow.record("sim.run", 99_999, 0);
        assert_eq!(
            WallclockSummary::from_profile(&fast, 7),
            WallclockSummary::from_profile(&slow, 7)
        );
        let mut twice = WallProfile::new();
        twice.record("sim.run", 10, 0);
        twice.record("sim.run", 10, 0);
        assert_ne!(
            WallclockSummary::from_profile(&fast, 7),
            WallclockSummary::from_profile(&twice, 7)
        );
        assert_ne!(
            WallclockSummary::from_profile(&fast, 7),
            WallclockSummary::from_profile(&fast, 8)
        );
    }

    #[test]
    fn folded_output_is_flamegraph_shaped() {
        let s = WallclockSummary::from_profile(&sample_profile(), 0);
        let mut out = Vec::new();
        s.write_folded(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text.lines().collect();
        // Zero-self paths (sim.run;sim.epoch_end) are omitted.
        assert_eq!(lines, vec!["sim.run 300", "sim.run;sim.epoch 600"]);
        for line in lines {
            let (stack, value) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty());
            value.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn jsonl_has_one_path_per_line_plus_trailer() {
        let s = WallclockSummary::from_profile(&sample_profile(), 2_000);
        let mut out = Vec::new();
        s.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(
            lines[1].contains("\"path\":\"sim.run;sim.epoch\""),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains("\"name\":\"sim.epoch\""), "{}", lines[1]);
        assert!(lines[1].contains("\"count\":2"), "{}", lines[1]);
        assert!(
            lines[3].contains("\"accesses_simulated\":2000"),
            "{}",
            lines[3]
        );
    }

    #[test]
    fn to_json_embeds_phases_and_paths() {
        let j = WallclockSummary::from_profile(&sample_profile(), 2_000).to_json();
        assert!(j.contains("\"host_wallclock_ns\":1000"), "{j}");
        assert!(j.contains("\"sim.epoch\":{\"count\":2"), "{j}");
        assert!(j.contains("\"sim.run;sim.epoch\":{\"count\":2"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }
}
