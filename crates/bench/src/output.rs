//! Table printing and CSV output for the experiment binaries.

use std::fs;
use std::path::PathBuf;

use aqua_telemetry::Telemetry;

/// Prints a fixed-width table to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Writes rows as CSV into `target/experiments/<name>.csv`; returns the path.
///
/// # Panics
///
/// Panics if the experiments directory cannot be created or written.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).expect("create target/experiments");
    let path = dir.join(format!("{name}.csv"));
    let mut body = header.join(",") + "\n";
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    fs::write(&path, body).expect("write experiment CSV");
    println!("wrote {}", path.display());
    path
}

/// [`write_csv`] bracketed by a `bench.csv` wallclock phase on `telemetry`,
/// so CSV serialization shows up in host-time profiles next to
/// `bench.setup`/`bench.run`/`bench.merge`. Identical output to
/// [`write_csv`]; on a disabled hub the phase guard is inert.
///
/// # Panics
///
/// Panics if the experiments directory cannot be created or written.
pub fn write_csv_instrumented(
    telemetry: &Telemetry,
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> PathBuf {
    let _phase = telemetry.phase("bench.csv");
    write_csv(name, header, rows)
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.021), "2.1%");
        assert_eq!(f2(2.953), "2.95");
    }

    #[test]
    fn csv_roundtrip() {
        let p = write_csv("unit-test", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        let body = std::fs::read_to_string(p).unwrap();
        assert_eq!(body, "a,b\n1,2\n");
    }

    #[test]
    fn instrumented_csv_matches_plain_and_records_a_phase() {
        let hub = Telemetry::new(Default::default());
        let p = write_csv_instrumented(
            &hub,
            "unit-test-instrumented",
            &["a", "b"],
            &[vec!["1".into(), "2".into()]],
        );
        assert_eq!(std::fs::read_to_string(p).unwrap(), "a,b\n1,2\n");
        let summary = hub.summary().unwrap();
        let wall = summary.wallclock.expect("csv phase recorded");
        assert_eq!(wall.phase("bench.csv").map(|s| s.count), Some(1));
    }
}
