//! Condensed end-of-run telemetry, embeddable in `RunReport`.

use crate::hist::HistogramSummary;
use crate::json;
use crate::wallclock::WallclockSummary;

/// Snapshot of all registered metrics at the end of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySummary {
    /// Registered counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Registered gauges (last written value), sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Registered histograms, condensed, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Events offered to the ring trace (kept + dropped).
    pub events_recorded: u64,
    /// Events the ring trace had to drop.
    pub events_dropped: u64,
    /// Epoch samples captured in the time series.
    pub epochs_recorded: u64,
    /// Completed spans offered to the span ring (kept + dropped). Per-name
    /// duration stats appear in `histograms` under `span.<name>`.
    pub spans_recorded: u64,
    /// Completed spans the span ring had to drop.
    pub spans_dropped: u64,
    /// Host-time phase profile and throughput, present when any wallclock
    /// phase was recorded. Its equality ignores nanosecond values (host
    /// noise), so summary comparisons stay deterministic.
    pub wallclock: Option<WallclockSummary>,
}

impl TelemetrySummary {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the summary as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            out.push(':');
            out.push_str(&json::num_trimmed(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            out.push_str(&format!(
                ":{{\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                h.count,
                json::num_trimmed(h.mean),
                json::num_trimmed(h.p50),
                json::num_trimmed(h.p95),
                json::num_trimmed(h.p99),
                h.max
            ));
        }
        out.push_str(&format!(
            "}},\"events_recorded\":{},\"events_dropped\":{},\"epochs_recorded\":{},\
             \"spans_recorded\":{},\"spans_dropped\":{},\"wallclock\":",
            self.events_recorded,
            self.events_dropped,
            self.epochs_recorded,
            self.spans_recorded,
            self.spans_dropped
        ));
        match &self.wallclock {
            Some(w) => out.push_str(&w.to_json()),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_json_shape() {
        let s = TelemetrySummary {
            counters: vec![("aqua.installs".into(), 3)],
            gauges: vec![("rqa_occupancy".into(), 0.5)],
            histograms: vec![(
                "mem.access_ps".into(),
                HistogramSummary {
                    count: 2,
                    mean: 10.0,
                    p50: 10.0,
                    p95: 12.0,
                    p99: 12.0,
                    max: 12,
                },
            )],
            events_recorded: 5,
            events_dropped: 1,
            epochs_recorded: 2,
            spans_recorded: 4,
            spans_dropped: 0,
            wallclock: None,
        };
        assert_eq!(s.counter("aqua.installs"), Some(3));
        assert_eq!(s.histogram("mem.access_ps").unwrap().max, 12);
        let j = s.to_json();
        assert!(j.contains("\"aqua.installs\":3"), "{j}");
        assert!(j.contains("\"events_dropped\":1"), "{j}");
        assert!(j.contains("\"spans_recorded\":4"), "{j}");
        assert!(j.contains("\"wallclock\":null"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn json_embeds_wallclock_when_present() {
        let mut profile = crate::wallclock::WallProfile::new();
        profile.record("sim.run", 500, 0);
        let s = TelemetrySummary {
            wallclock: Some(crate::wallclock::WallclockSummary::from_profile(
                &profile, 100,
            )),
            ..Default::default()
        };
        let j = s.to_json();
        assert!(
            j.contains("\"wallclock\":{\"host_wallclock_ns\":500"),
            "{j}"
        );
        assert!(j.contains("\"accesses_simulated\":100"), "{j}");
        assert!(j.ends_with("}}"), "{j}");
    }
}
