//! Exporters: Chrome `about:tracing` JSON and line-delimited JSON.
//!
//! The Chrome format is the "JSON Array Format" documented for
//! `chrome://tracing` / Perfetto: an object with a `traceEvents` array of
//! instant events (`"ph":"i"`), timestamps in microseconds. The JSONL
//! exporters emit one self-contained object per line so downstream tooling
//! can stream-parse them.

use std::io::{self, Write};

use crate::epoch::EpochSeries;
use crate::event::Event;
use crate::hist::HistogramData;
use crate::json;
use crate::span::Span;

/// Picoseconds → Chrome-trace microseconds.
fn ps_to_us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

/// Writes events as a Chrome-loadable trace (`chrome://tracing`, Perfetto).
pub fn write_chrome_trace<'a, W, I>(w: &mut W, events: I) -> io::Result<()>
where
    W: Write,
    I: IntoIterator<Item = &'a Event>,
{
    write_chrome_trace_full(w, events, &[])
}

/// Writes instant events plus completed spans as one Chrome-loadable trace.
///
/// Spans become complete events (`"ph":"X"`) carrying their id and parent
/// id in `args`, so the causal tree survives the export; instant events keep
/// the `"ph":"i"` shape [`write_chrome_trace`] emits.
pub fn write_chrome_trace_full<'a, W, I>(w: &mut W, events: I, spans: &[Span]) -> io::Result<()>
where
    W: Write,
    I: IntoIterator<Item = &'a Event>,
{
    write!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    for ev in events {
        if !first {
            write!(w, ",")?;
        }
        first = false;
        let mut name = String::new();
        json::push_str(&mut name, ev.kind.name());
        write!(
            w,
            "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":1,\"args\":{}}}",
            name,
            json::num_trimmed(ps_to_us(ev.ts_ps)),
            ev.kind.args_json()
        )?;
    }
    for s in spans {
        if !first {
            write!(w, ",")?;
        }
        first = false;
        let mut name = String::new();
        json::push_str(&mut name, s.name);
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".into(),
        };
        write!(
            w,
            "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\
             \"args\":{{\"id\":{},\"parent\":{}}}}}",
            name,
            json::num_trimmed(ps_to_us(s.start_ps)),
            json::num_trimmed(ps_to_us(s.duration_ps())),
            s.id,
            parent
        )?;
    }
    writeln!(w, "]}}")
}

/// Writes spans as JSONL: one `{id, parent, name, start_ps, end_ps, dur_ps}`
/// object per line, oldest first.
pub fn write_spans_jsonl<W: Write>(w: &mut W, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        let mut name = String::new();
        json::push_str(&mut name, s.name);
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".into(),
        };
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":{},\"start_ps\":{},\"end_ps\":{},\"dur_ps\":{}}}",
            s.id,
            parent,
            name,
            s.start_ps,
            s.end_ps,
            s.duration_ps()
        )?;
    }
    Ok(())
}

/// Writes events as JSONL: one `{ts_ps, name, args}` object per line.
pub fn write_events_jsonl<'a, W, I>(w: &mut W, events: I) -> io::Result<()>
where
    W: Write,
    I: IntoIterator<Item = &'a Event>,
{
    for ev in events {
        let mut name = String::new();
        json::push_str(&mut name, ev.kind.name());
        writeln!(
            w,
            "{{\"ts_ps\":{},\"name\":{},\"args\":{}}}",
            ev.ts_ps,
            name,
            ev.kind.args_json()
        )?;
    }
    Ok(())
}

/// Writes the epoch time series as JSONL: one record per epoch, with the
/// scheme-specific gauges flattened into the same object.
pub fn write_epochs_jsonl<W: Write>(w: &mut W, series: &EpochSeries) -> io::Result<()> {
    for r in series.records() {
        let mut line = format!(
            "{{\"epoch\":{},\"end_ps\":{},\"requests_done\":{},\"migrations\":{},\
             \"mitigations_triggered\":{},\"victim_refreshes\":{},\"throttled\":{},\
             \"data_busy_frac\":{},\"migration_busy_frac\":{},\"table_busy_frac\":{}",
            r.epoch,
            r.end_ps,
            r.requests_done,
            r.migrations,
            r.mitigations_triggered,
            r.victim_refreshes,
            r.throttled,
            json::num_trimmed(r.data_busy_frac),
            json::num_trimmed(r.migration_busy_frac),
            json::num_trimmed(r.table_busy_frac),
        );
        for (name, v) in &r.gauges {
            line.push(',');
            json::push_str(&mut line, name);
            line.push(':');
            line.push_str(&json::num_trimmed(*v));
        }
        line.push('}');
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Writes one histogram as a JSONL record: summary plus non-empty buckets.
pub fn write_histogram_jsonl<W: Write>(
    w: &mut W,
    name: &str,
    data: &HistogramData,
) -> io::Result<()> {
    let s = data.summary();
    let mut line = String::from("{");
    json::push_str(&mut line, "name");
    line.push(':');
    json::push_str(&mut line, name);
    line.push_str(&format!(
        ",\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{},\"buckets\":[",
        s.count,
        json::num_trimmed(s.mean),
        json::num_trimmed(s.p50),
        json::num_trimmed(s.p95),
        json::num_trimmed(s.p99),
        s.max
    ));
    let mut first = true;
    for (i, &n) in data.buckets().iter().enumerate() {
        if n == 0 {
            continue;
        }
        if !first {
            line.push(',');
        }
        first = false;
        let (lo, hi) = HistogramData::bucket_bounds(i);
        line.push_str(&format!("{{\"lo\":{lo},\"hi\":{hi},\"n\":{n}}}"));
    }
    line.push_str("]}");
    writeln!(w, "{line}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochRecord;
    use crate::event::EventKind;

    fn events() -> Vec<Event> {
        vec![
            Event {
                ts_ps: 1_000_000,
                kind: EventKind::QuarantineIn { row: 5, slot: 0 },
            },
            Event {
                ts_ps: 2_000_000,
                kind: EventKind::EpochRollover { epoch: 0 },
            },
        ]
    }

    #[test]
    fn chrome_trace_has_expected_shape() {
        let mut out = Vec::new();
        write_chrome_trace(&mut out, events().iter()).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("{\"displayTimeUnit\""), "{s}");
        assert!(s.contains("\"traceEvents\":["), "{s}");
        assert!(s.contains("\"name\":\"QuarantineIn\""), "{s}");
        assert!(s.contains("\"ts\":1"), "{s}");
        assert!(s.trim_end().ends_with("]}"), "{s}");
    }

    fn spans() -> Vec<Span> {
        vec![
            Span {
                id: 2,
                parent: Some(1),
                name: "migration.install",
                start_ps: 1_000_000,
                end_ps: 2_370_000,
            },
            Span {
                id: 1,
                parent: None,
                name: "sim.mitigation",
                start_ps: 1_000_000,
                end_ps: 2_500_000,
            },
        ]
    }

    #[test]
    fn chrome_trace_full_mixes_instants_and_complete_events() {
        let mut out = Vec::new();
        write_chrome_trace_full(&mut out, events().iter(), &spans()).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("\"ph\":\"i\""), "{s}");
        assert!(s.contains("\"ph\":\"X\""), "{s}");
        assert!(s.contains("\"name\":\"migration.install\""), "{s}");
        assert!(s.contains("\"dur\":1.37"), "{s}");
        assert!(s.contains("\"args\":{\"id\":2,\"parent\":1}"), "{s}");
        assert!(s.contains("\"parent\":null"), "{s}");
        assert!(s.trim_end().ends_with("]}"), "{s}");
    }

    #[test]
    fn spans_only_trace_is_valid() {
        let none: Vec<Event> = Vec::new();
        let mut out = Vec::new();
        write_chrome_trace_full(&mut out, none.iter(), &spans()).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("{\"displayTimeUnit\""), "{s}");
        assert!(!s.contains("[,"), "{s}");
    }

    #[test]
    fn spans_jsonl_is_one_object_per_line() {
        let mut out = Vec::new();
        write_spans_jsonl(&mut out, &spans()).unwrap();
        let s = String::from_utf8(out).unwrap();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"dur_ps\":1370000"), "{}", lines[0]);
        assert!(lines[1].contains("\"parent\":null"), "{}", lines[1]);
    }

    #[test]
    fn events_jsonl_is_one_object_per_line() {
        let mut out = Vec::new();
        write_events_jsonl(&mut out, events().iter()).unwrap();
        let s = String::from_utf8(out).unwrap();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(lines[1].contains("\"EpochRollover\""));
    }

    #[test]
    fn epochs_jsonl_flattens_gauges() {
        let mut series = EpochSeries::new();
        series.push(EpochRecord {
            epoch: 0,
            migrations: 3,
            gauges: vec![("rqa_occupancy".into(), 0.25)],
            ..Default::default()
        });
        let mut out = Vec::new();
        write_epochs_jsonl(&mut out, &series).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("\"migrations\":3"), "{s}");
        assert!(s.contains("\"rqa_occupancy\":0.25"), "{s}");
    }

    #[test]
    fn histogram_jsonl_lists_nonempty_buckets() {
        let mut h = HistogramData::new();
        h.record(3);
        h.record(3);
        h.record(100);
        let mut out = Vec::new();
        write_histogram_jsonl(&mut out, "lat", &h).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("\"name\":\"lat\""), "{s}");
        assert!(s.contains("{\"lo\":2,\"hi\":3,\"n\":2}"), "{s}");
        assert!(s.contains("\"count\":3"), "{s}");
    }
}
