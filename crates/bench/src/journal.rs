//! Crash-consistent checkpoint/resume journal for experiment campaigns.
//!
//! A journal is an append-only JSONL file: one self-contained record per
//! *completed* cell (success or deterministic failure), flushed before the
//! runner moves on. Interrupting a campaign — a crash, a kill, a watchdog
//! reboot — therefore loses at most the cells still in flight; resuming
//! with the same journal replays every durable record and re-runs only the
//! rest, and the final artifacts are byte-identical to an uninterrupted
//! run (see DESIGN.md section 14).
//!
//! Records are keyed by [`CellKey`], a digest of everything that determines
//! a cell's result (experiment, scheme, workload, seed, epochs, threshold,
//! geometry, fault spec, ablation). Host-time knobs — watchdog budgets,
//! deadlines, worker counts — are deliberately excluded: a run interrupted
//! under one time budget may be resumed under another without invalidating
//! its completed cells.
//!
//! ## Format (v1)
//!
//! One JSON object per line:
//!
//! ```json
//! {"v":1,"key":"89abcdef01234567","label":"aqua-sram/mcf","status":"ok",
//!  "retriable":false,"attempts":1,"payload":{...}}
//! {"v":1,"key":"...","label":"...","status":"watchdog","retriable":true,
//!  "attempts":2,"error":"watchdog: simulation exceeded its 5 ms ..."}
//! ```
//!
//! `status` is `"ok"` or a [`crate::supervise::RunError`] kind. A record
//! with `retriable: true` is *not* replayed on resume — the cell runs
//! again. A torn final line (the crash happened mid-write) is skipped with
//! a warning; when one key appears on several lines the last record wins.
//!
//! The workspace has no JSON dependency; records use the shared
//! recursive-descent parser ([`aqua_telemetry::json`]) and hand-rolled
//! writers. Integers round-trip through `f64`, which is exact below
//! 2^53 — far beyond any counter a simulated campaign produces (enforced
//! in [`push_u64`]).

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use aqua_dram::Duration;
use aqua_sim::RunReport;
use aqua_telemetry::json::{self, JsonValue};

/// Digest identifying one experiment cell across process restarts.
///
/// 64-bit FNV-1a over the canonical description of the cell, with a
/// separator folded in between parts so `["ab","c"]` and `["a","bc"]`
/// differ. Collisions at campaign scale (dozens to thousands of cells)
/// are negligible, and a collision can only replay a wrong-but-valid
/// record, never corrupt one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey(pub u64);

impl CellKey {
    /// Digests the canonical parts of a cell description, order-sensitive.
    pub fn digest(parts: &[&str]) -> CellKey {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u64| {
            h ^= b;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for part in parts {
            for &b in part.as_bytes() {
                eat(b as u64);
            }
            // Unit separator: parts never contain it, so boundaries hash.
            eat(0x1f);
        }
        CellKey(h)
    }

    /// Fixed-width lowercase hex form used in journal lines.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the [`CellKey::hex`] form back.
    pub fn from_hex(s: &str) -> Option<CellKey> {
        (s.len() == 16)
            .then(|| u64::from_str_radix(s, 16).ok())
            .flatten()
            .map(CellKey)
    }
}

/// One durable journal record, as read back by [`Journal::open`].
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The cell's [`CellKey`] digest.
    pub key: CellKey,
    /// Human-readable cell label (`scheme/workload`), for log lines only.
    pub label: String,
    /// `"ok"` or a [`crate::supervise::RunError`] kind.
    pub status: String,
    /// Whether resuming should re-run this cell instead of replaying it.
    pub retriable: bool,
    /// Attempts the supervised runner spent on the cell (0 = canceled
    /// before it ran).
    pub attempts: u32,
    /// The failure description (`None` for `status == "ok"`).
    pub error: Option<String>,
    /// The encoded result (`None` unless `status == "ok"`).
    pub payload: Option<JsonValue>,
}

struct Sink {
    file: File,
    /// Total durable records: lines loaded at open plus appends since.
    records: u64,
}

/// An open campaign journal: the records already on disk plus an
/// append-only writer for new completions. Appends are flushed per line,
/// so a record is durable before the runner reports the cell done.
pub struct Journal {
    path: PathBuf,
    records: std::collections::HashMap<u64, Record>,
    sink: Mutex<Sink>,
    /// Test hook (`AQUA_BENCH_DIE_AFTER`): once the journal holds this many
    /// durable records, the *next* append exits the process with status 3 —
    /// a deterministic mid-campaign crash for the ci.sh resume smoke.
    die_after: Option<u64>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("records", &self.records.len())
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Opens (creating if needed) the journal at `path`, loading every
    /// durable record. A torn trailing line — the signature of a crash
    /// mid-append — is skipped with a warning; a record of an unknown
    /// format version is an error.
    pub fn open(path: &Path) -> Result<Journal, String> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("journal {}: creating parent: {e}", path.display()))?;
            }
        }
        let mut records = std::collections::HashMap::new();
        let mut loaded = 0u64;
        if path.exists() {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("journal {}: {e}", path.display()))?;
            for (lineno, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match parse_record(line) {
                    Ok(rec) => {
                        records.insert(rec.key.0, rec);
                        loaded += 1;
                    }
                    Err(ParseError::Torn(why)) => {
                        eprintln!(
                            "warning: journal {} line {}: skipping torn record ({why})",
                            path.display(),
                            lineno + 1
                        );
                    }
                    Err(ParseError::Version(v)) => {
                        return Err(format!(
                            "journal {} line {}: format v{v} is not supported (this \
                             build reads v1)",
                            path.display(),
                            lineno + 1
                        ));
                    }
                }
            }
        }
        let file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| format!("journal {}: {e}", path.display()))?;
        let die_after = std::env::var("AQUA_BENCH_DIE_AFTER")
            .ok()
            .and_then(|v| v.trim().parse().ok());
        Ok(Journal {
            path: path.to_path_buf(),
            records,
            sink: Mutex::new(Sink {
                file,
                records: loaded,
            }),
            die_after,
        })
    }

    /// The journal's path, for log lines.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The durable record for `key` loaded at open time, if any (last
    /// record wins when a key was appended more than once).
    pub fn lookup(&self, key: &CellKey) -> Option<&Record> {
        self.records.get(&key.0)
    }

    /// Number of distinct keys loaded at open time.
    pub fn loaded(&self) -> usize {
        self.records.len()
    }

    /// Appends a successful cell: `payload_json` must be one compact JSON
    /// value (no newlines).
    pub fn append_ok(&self, key: CellKey, label: &str, attempts: u32, payload_json: &str) {
        debug_assert!(!payload_json.contains('\n'));
        let mut line = record_head(key, label, "ok", false, attempts);
        line.push_str(",\"payload\":");
        line.push_str(payload_json);
        line.push('}');
        self.append_line(line);
    }

    /// Appends a failed cell with its error kind and description.
    pub fn append_err(
        &self,
        key: CellKey,
        label: &str,
        attempts: u32,
        kind: &str,
        retriable: bool,
        error: &str,
    ) {
        let mut line = record_head(key, label, kind, retriable, attempts);
        line.push_str(",\"error\":");
        json::push_str(&mut line, error);
        line.push('}');
        self.append_line(line);
    }

    fn append_line(&self, mut line: String) {
        line.push('\n');
        let mut sink = self.sink.lock().unwrap();
        sink.file
            .write_all(line.as_bytes())
            .and_then(|()| sink.file.flush())
            .unwrap_or_else(|e| panic!("journal {}: append failed: {e}", self.path.display()));
        sink.records += 1;
        if let Some(limit) = self.die_after {
            if sink.records >= limit {
                eprintln!(
                    "[journal] AQUA_BENCH_DIE_AFTER={limit}: dying after {} durable record(s)",
                    sink.records
                );
                std::process::exit(3);
            }
        }
    }
}

fn record_head(key: CellKey, label: &str, status: &str, retriable: bool, attempts: u32) -> String {
    let mut line = String::from("{\"v\":1,\"key\":\"");
    line.push_str(&key.hex());
    line.push_str("\",\"label\":");
    json::push_str(&mut line, label);
    line.push_str(",\"status\":");
    json::push_str(&mut line, status);
    let _ = std::fmt::Write::write_fmt(
        &mut line,
        format_args!(",\"retriable\":{retriable},\"attempts\":{attempts}"),
    );
    line
}

enum ParseError {
    /// Not a valid v1 record (truncated write, garbage): skippable.
    Torn(String),
    /// A valid record of an incompatible version: fatal.
    Version(u64),
}

fn parse_record(line: &str) -> Result<Record, ParseError> {
    let value = json::parse(line).map_err(ParseError::Torn)?;
    let obj = value
        .as_obj()
        .ok_or_else(|| ParseError::Torn("record is not an object".into()))?;
    let version = json::get(obj, "v")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| ParseError::Torn("missing version".into()))? as u64;
    if version != 1 {
        return Err(ParseError::Version(version));
    }
    let field = |name: &str| {
        json::get(obj, name).ok_or_else(|| ParseError::Torn(format!("missing field {name:?}")))
    };
    let key = field("key")?
        .as_str()
        .and_then(CellKey::from_hex)
        .ok_or_else(|| ParseError::Torn("bad key digest".into()))?;
    let as_str = |name: &str| -> Result<String, ParseError> {
        field(name)?
            .as_str()
            .map(String::from)
            .ok_or_else(|| ParseError::Torn(format!("field {name:?} is not a string")))
    };
    Ok(Record {
        key,
        label: as_str("label")?,
        status: as_str("status")?,
        retriable: field("retriable")?
            .as_bool()
            .ok_or_else(|| ParseError::Torn("retriable is not a bool".into()))?,
        attempts: field("attempts")?
            .as_f64()
            .ok_or_else(|| ParseError::Torn("attempts is not a number".into()))?
            as u32,
        error: json::get(obj, "error")
            .and_then(JsonValue::as_str)
            .map(String::from),
        payload: json::get(obj, "payload").cloned(),
    })
}

// ---------------------------------------------------------------------------
// RunReport codec
// ---------------------------------------------------------------------------

/// Appends `"name":<u64>` to a compact JSON object under construction.
///
/// # Panics
///
/// Panics if `v` does not round-trip exactly through `f64` (>= 2^53); no
/// simulated metric gets anywhere near that.
fn push_u64(out: &mut String, name: &str, v: u64) {
    assert!(
        v < (1 << 53),
        "journal integer {name}={v} exceeds f64 precision"
    );
    if !out.ends_with('{') {
        out.push(',');
    }
    json::push_str(out, name);
    let _ = std::fmt::Write::write_fmt(out, format_args!(":{v}"));
}

fn push_str_field(out: &mut String, name: &str, v: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    json::push_str(out, name);
    out.push(':');
    json::push_str(out, v);
}

/// Encodes a [`RunReport`] as the compact v1 journal payload.
///
/// The `telemetry` snapshot is deliberately dropped: it is a host-side
/// diagnostic, not an experiment result, and a resumed cell replays with
/// `telemetry: None` (documented in DESIGN.md section 14). Every metric a
/// figure or CSV derives from is covered.
pub fn report_to_json(r: &RunReport) -> String {
    let mut out = String::from("{");
    push_str_field(&mut out, "scheme", &r.scheme);
    push_str_field(&mut out, "workload", &r.workload);
    push_u64(&mut out, "requests_done", r.requests_done);
    out.push_str(",\"per_core\":[");
    for (i, &c) in r.per_core.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        assert!(
            c < (1 << 53),
            "journal integer per_core={c} exceeds f64 precision"
        );
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{c}"));
    }
    out.push(']');
    push_u64(&mut out, "epochs", r.epochs);
    push_u64(&mut out, "data_busy_ps", r.data_busy.as_ps());
    push_u64(&mut out, "migration_busy_ps", r.migration_busy.as_ps());
    push_u64(&mut out, "table_busy_ps", r.table_busy.as_ps());
    out.push_str(",\"mitigation\":{");
    push_u64(&mut out, "row_migrations", r.mitigation.row_migrations);
    push_u64(
        &mut out,
        "mitigations_triggered",
        r.mitigation.mitigations_triggered,
    );
    push_u64(&mut out, "victim_refreshes", r.mitigation.victim_refreshes);
    push_u64(&mut out, "throttled", r.mitigation.throttled);
    push_u64(&mut out, "violations", r.mitigation.violations);
    out.push_str("},\"oracle\":{");
    push_u64(
        &mut out,
        "max_window_activations",
        r.oracle.max_window_activations,
    );
    push_u64(&mut out, "rows_over_trh", r.oracle.rows_over_trh);
    push_u64(&mut out, "total_activations", r.oracle.total_activations);
    push_u64(&mut out, "rows_flippable", r.oracle.rows_flippable);
    push_u64(&mut out, "avg_rows_166", r.oracle.avg_rows_166);
    push_u64(&mut out, "avg_rows_500", r.oracle.avg_rows_500);
    push_u64(&mut out, "avg_rows_1000", r.oracle.avg_rows_1000);
    push_u64(&mut out, "epochs", r.oracle.epochs);
    out.push('}');
    push_u64(&mut out, "integrity_violations", r.integrity_violations);
    out.push_str(",\"faults\":{");
    push_u64(&mut out, "injected", r.faults.injected);
    push_u64(&mut out, "unsupported", r.faults.unsupported);
    push_u64(&mut out, "applied", r.faults.applied);
    push_u64(&mut out, "corruptions", r.faults.corruptions);
    push_u64(&mut out, "recovered_rows", r.faults.recovered_rows);
    push_u64(&mut out, "escaped_counted", r.faults.escaped_counted);
    push_u64(&mut out, "dormant", r.faults.dormant);
    push_u64(&mut out, "unaccounted", r.faults.unaccounted);
    push_u64(&mut out, "engine_recovered", r.faults.engine_recovered);
    push_u64(&mut out, "degraded_epochs", r.faults.degraded_epochs);
    out.push_str("}}");
    out
}

fn get_u64(obj: &[(String, JsonValue)], name: &str) -> Result<u64, String> {
    let v = json::get(obj, name)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("payload field {name:?} missing or not a number"))?;
    if v < 0.0 || v.fract() != 0.0 || v >= (1u64 << 53) as f64 {
        return Err(format!(
            "payload field {name:?} = {v} is not a journal integer"
        ));
    }
    Ok(v as u64)
}

fn get_str(obj: &[(String, JsonValue)], name: &str) -> Result<String, String> {
    json::get(obj, name)
        .and_then(JsonValue::as_str)
        .map(String::from)
        .ok_or_else(|| format!("payload field {name:?} missing or not a string"))
}

fn get_obj<'a>(
    obj: &'a [(String, JsonValue)],
    name: &str,
) -> Result<&'a [(String, JsonValue)], String> {
    json::get(obj, name)
        .and_then(JsonValue::as_obj)
        .ok_or_else(|| format!("payload field {name:?} missing or not an object"))
}

/// Decodes a [`report_to_json`] payload. The replayed report carries
/// `telemetry: None` (see [`report_to_json`]).
pub fn report_from_json(value: &JsonValue) -> Result<RunReport, String> {
    let obj = value.as_obj().ok_or("payload is not an object")?;
    let mit = get_obj(obj, "mitigation")?;
    let oracle = get_obj(obj, "oracle")?;
    let faults = get_obj(obj, "faults")?;
    let per_core = json::get(obj, "per_core")
        .and_then(JsonValue::as_arr)
        .ok_or("payload field \"per_core\" missing or not an array")?
        .iter()
        .map(|v| {
            v.as_f64()
                .filter(|f| *f >= 0.0 && f.fract() == 0.0)
                .map(|f| f as u64)
                .ok_or_else(|| "per_core entry is not a journal integer".to_string())
        })
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(RunReport {
        scheme: get_str(obj, "scheme")?,
        workload: get_str(obj, "workload")?,
        requests_done: get_u64(obj, "requests_done")?,
        per_core,
        epochs: get_u64(obj, "epochs")?,
        data_busy: Duration::from_ps(get_u64(obj, "data_busy_ps")?),
        migration_busy: Duration::from_ps(get_u64(obj, "migration_busy_ps")?),
        table_busy: Duration::from_ps(get_u64(obj, "table_busy_ps")?),
        mitigation: aqua_dram::mitigation::MitigationStats {
            row_migrations: get_u64(mit, "row_migrations")?,
            mitigations_triggered: get_u64(mit, "mitigations_triggered")?,
            victim_refreshes: get_u64(mit, "victim_refreshes")?,
            throttled: get_u64(mit, "throttled")?,
            violations: get_u64(mit, "violations")?,
        },
        oracle: aqua_sim::OracleSummary {
            max_window_activations: get_u64(oracle, "max_window_activations")?,
            rows_over_trh: get_u64(oracle, "rows_over_trh")?,
            total_activations: get_u64(oracle, "total_activations")?,
            rows_flippable: get_u64(oracle, "rows_flippable")?,
            avg_rows_166: get_u64(oracle, "avg_rows_166")?,
            avg_rows_500: get_u64(oracle, "avg_rows_500")?,
            avg_rows_1000: get_u64(oracle, "avg_rows_1000")?,
            epochs: get_u64(oracle, "epochs")?,
        },
        integrity_violations: get_u64(obj, "integrity_violations")?,
        faults: aqua_faults::FaultReport {
            injected: get_u64(faults, "injected")?,
            unsupported: get_u64(faults, "unsupported")?,
            applied: get_u64(faults, "applied")?,
            corruptions: get_u64(faults, "corruptions")?,
            recovered_rows: get_u64(faults, "recovered_rows")?,
            escaped_counted: get_u64(faults, "escaped_counted")?,
            dormant: get_u64(faults, "dormant")?,
            unaccounted: get_u64(faults, "unaccounted")?,
            engine_recovered: get_u64(faults, "engine_recovered")?,
            degraded_epochs: get_u64(faults, "degraded_epochs")?,
        },
        telemetry: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("aqua-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    fn sample_report() -> RunReport {
        let mut r = RunReport {
            scheme: "aqua-sram".into(),
            workload: "mcf".into(),
            requests_done: 123_456,
            per_core: vec![1, 2, 3, 4],
            epochs: 2,
            data_busy: Duration::from_ps(64_000_000_000),
            migration_busy: Duration::from_ps(1_370_000),
            table_busy: Duration::from_ps(99),
            integrity_violations: 0,
            ..RunReport::default()
        };
        r.mitigation.row_migrations = 17;
        r.oracle.total_activations = 1_000_000;
        r.faults.injected = 16;
        r.faults.degraded_epochs = 3;
        r
    }

    #[test]
    fn cell_keys_separate_parts_and_roundtrip_hex() {
        let a = CellKey::digest(&["ab", "c"]);
        let b = CellKey::digest(&["a", "bc"]);
        assert_ne!(a, b);
        assert_eq!(CellKey::digest(&["ab", "c"]), a, "digest is deterministic");
        assert_eq!(CellKey::from_hex(&a.hex()), Some(a));
        assert_eq!(CellKey::from_hex("xyz"), None);
    }

    #[test]
    fn report_payload_roundtrips_exactly() {
        let report = sample_report();
        let encoded = report_to_json(&report);
        assert!(!encoded.contains('\n'), "payload must stay on one line");
        let decoded = report_from_json(&json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, report);
        // And the round-trip is a fixpoint at the byte level too.
        assert_eq!(report_to_json(&decoded), encoded);
    }

    #[test]
    fn journal_appends_then_reloads_last_record_wins() {
        let path = tmp("reload");
        let _ = std::fs::remove_file(&path);
        let key = CellKey::digest(&["matrix", "aqua-sram", "mcf"]);
        {
            let j = Journal::open(&path).unwrap();
            assert_eq!(j.loaded(), 0);
            j.append_err(
                key,
                "aqua-sram/mcf",
                2,
                "watchdog",
                true,
                "watchdog: over budget",
            );
            j.append_ok(key, "aqua-sram/mcf", 1, &report_to_json(&sample_report()));
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.loaded(), 1, "same key collapses to one record");
        let rec = j.lookup(&key).expect("record survives reopen");
        assert_eq!(rec.status, "ok");
        assert!(!rec.retriable);
        assert_eq!(rec.attempts, 1);
        let replay = report_from_json(rec.payload.as_ref().unwrap()).unwrap();
        assert_eq!(replay, sample_report());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_trailing_line_is_skipped_not_fatal() {
        let path = tmp("torn");
        let key = CellKey::digest(&["a"]);
        {
            let _ = std::fs::remove_file(&path);
            let j = Journal::open(&path).unwrap();
            j.append_err(key, "a", 1, "panic", false, "boom");
        }
        // Simulate a crash mid-append: half a record, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"v\":1,\"key\":\"0123").unwrap();
        drop(f);
        let j = Journal::open(&path).unwrap();
        assert_eq!(
            j.loaded(),
            1,
            "the durable record survives, the torn one is dropped"
        );
        assert_eq!(j.lookup(&key).unwrap().error.as_deref(), Some("boom"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn future_format_versions_are_rejected() {
        let path = tmp("version");
        std::fs::write(
            &path,
            "{\"v\":2,\"key\":\"0000000000000000\",\"label\":\"x\",\"status\":\"ok\",\
             \"retriable\":false,\"attempts\":1}\n",
        )
        .unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert!(err.contains("v2"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
