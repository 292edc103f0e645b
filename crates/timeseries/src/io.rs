//! Minimal CSV input/output for time series.
//!
//! The original GrammarViz consumes single-column CSV files (one value per
//! line, optional header); the reproduction's CLI and benchmark harness do
//! the same, plus a simple multi-column writer for exporting figure data
//! (rule density curves alongside the raw signal).

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::error::{Error, Result};
use crate::series::TimeSeries;

/// Reads column `col` (0-based) from a comma/semicolon/whitespace-separated
/// text file into a [`TimeSeries`].
///
/// Blank lines and lines starting with `#` are skipped. A single
/// non-numeric first record is treated as a header and skipped; any later
/// parse failure is an error.
///
/// Values that parse as NaN or ±infinity (Rust's `f64` parser accepts
/// `"NaN"`, `"inf"`, …) are rejected with [`Error::NonFiniteInput`]: they
/// poison z-normalization and every distance computed downstream.
pub fn read_csv_column(path: impl AsRef<Path>, col: usize) -> Result<TimeSeries> {
    let path = path.as_ref();
    let file = File::open(path)?;
    let mut series = read_csv_column_reader(BufReader::new(file), col)?;
    if let Some(stem) = path.file_stem() {
        series.set_name(stem.to_string_lossy());
    }
    Ok(series)
}

/// Reads column `col` from any buffered reader with the same dialect as
/// [`read_csv_column`] — the CLI uses this to monitor a stream piped in on
/// stdin. The resulting series has an empty name.
pub fn read_csv_column_reader(mut reader: impl BufRead, col: usize) -> Result<TimeSeries> {
    let mut values = Vec::new();
    let mut first_data_line = true;
    // One line buffer for the whole file; `trim` drops the line ending.
    let mut line = String::new();
    let mut number = 0;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        number += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let field = split_fields(trimmed).nth(col).ok_or_else(|| Error::Parse {
            line: number,
            text: trimmed.to_string(),
        })?;
        match field.trim().parse::<f64>() {
            Ok(v) if !v.is_finite() => {
                return Err(Error::NonFiniteInput {
                    index: values.len(),
                });
            }
            Ok(v) => {
                values.push(v);
                first_data_line = false;
            }
            Err(_) if first_data_line => {
                // Header row.
                first_data_line = false;
            }
            Err(_) => {
                return Err(Error::Parse {
                    line: number,
                    text: field.to_string(),
                });
            }
        }
    }
    Ok(TimeSeries::new(values))
}

fn split_fields(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| c == ',' || c == ';' || c.is_whitespace())
        .filter(|s| !s.is_empty())
}

/// Writes a series as a single-column CSV (one value per line).
pub fn write_csv_column(path: impl AsRef<Path>, series: &TimeSeries) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    for &v in series.values() {
        writeln!(w, "{v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Writes several equally meaningful columns side by side with a header —
/// used to export figure data (e.g. `value,density`).
///
/// Shorter columns are padded with empty fields.
///
/// # Errors
/// [`Error::InvalidParameter`] when `names.len() != columns.len()`.
pub fn write_csv_columns(path: impl AsRef<Path>, names: &[&str], columns: &[&[f64]]) -> Result<()> {
    if names.len() != columns.len() {
        return Err(Error::InvalidParameter(format!(
            "{} names for {} columns",
            names.len(),
            columns.len()
        )));
    }
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "{}", names.join(","))?;
    let rows = columns.iter().map(|c| c.len()).max().unwrap_or(0);
    for r in 0..rows {
        let mut first = true;
        for c in columns {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            if let Some(v) = c.get(r) {
                write!(w, "{v}")?;
            }
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("gv_timeseries_io_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut f = File::create(&path).unwrap();
        f.write_all(contents.as_bytes()).unwrap();
        path
    }

    #[test]
    fn reads_single_column() {
        let p = tmp("single.csv", "1.0\n2.5\n-3\n");
        let ts = read_csv_column(&p, 0).unwrap();
        assert_eq!(ts.values(), &[1.0, 2.5, -3.0]);
        assert_eq!(ts.name(), "single");
    }

    #[test]
    fn skips_header_blank_and_comments() {
        let p = tmp("header.csv", "value\n# comment\n\n1\n2\n");
        let ts = read_csv_column(&p, 0).unwrap();
        assert_eq!(ts.values(), &[1.0, 2.0]);
    }

    #[test]
    fn reads_selected_column() {
        let p = tmp("multi.csv", "t,lat,lon\n0, 10.5, 20.5\n1, 11.0, 21.0\n");
        let lat = read_csv_column(&p, 1).unwrap();
        assert_eq!(lat.values(), &[10.5, 11.0]);
        let lon = read_csv_column(&p, 2).unwrap();
        assert_eq!(lon.values(), &[20.5, 21.0]);
    }

    #[test]
    fn reader_variant_matches_file_dialect() {
        let body = "value\n# comment\n\n1\n2.5\n";
        let ts = read_csv_column_reader(body.as_bytes(), 0).unwrap();
        assert_eq!(ts.values(), &[1.0, 2.5]);
        assert_eq!(ts.name(), "");
        assert!(read_csv_column_reader("1\nNaN\n".as_bytes(), 0).is_err());
    }

    #[test]
    fn mid_file_garbage_is_an_error() {
        let p = tmp("bad.csv", "1\nnot_a_number\n3\n");
        let err = read_csv_column(&p, 0).unwrap_err();
        assert!(matches!(err, Error::Parse { line: 2, .. }));
    }

    #[test]
    fn non_finite_values_are_rejected() {
        for (name, body) in [
            ("nan.csv", "1\n2\nNaN\n4\n"),
            ("inf.csv", "1\n2\ninf\n4\n"),
            ("neginf.csv", "1\n2\n-inf\n4\n"),
        ] {
            let p = tmp(name, body);
            let err = read_csv_column(&p, 0).unwrap_err();
            assert!(
                matches!(err, Error::NonFiniteInput { index: 2 }),
                "{name}: expected NonFiniteInput at 2, got {err:?}"
            );
        }
    }

    #[test]
    fn missing_column_is_an_error() {
        let p = tmp("narrow.csv", "1,2\n3\n");
        assert!(read_csv_column(&p, 2).is_err());
    }

    #[test]
    fn roundtrip_single_column() {
        let ts = TimeSeries::new(vec![0.125, -7.5, 42.0]);
        let p = std::env::temp_dir()
            .join("gv_timeseries_io_tests")
            .join("rt.csv");
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        write_csv_column(&p, &ts).unwrap();
        let back = read_csv_column(&p, 0).unwrap();
        assert_eq!(back.values(), ts.values());
    }

    #[test]
    fn multi_column_export() {
        let p = std::env::temp_dir()
            .join("gv_timeseries_io_tests")
            .join("cols.csv");
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        write_csv_columns(&p, &["a", "b"], &[&[1.0, 2.0, 3.0], &[9.0]]).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text, "a,b\n1,9\n2,\n3,\n");
        // Mismatched names/columns rejected.
        assert!(write_csv_columns(&p, &["a"], &[&[1.0][..], &[2.0][..]]).is_err());
    }
}
