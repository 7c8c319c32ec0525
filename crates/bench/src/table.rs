//! Plain-text table rendering and CSV emission for experiment results.

use std::fmt::Write as _;
use std::path::Path;

/// Render an aligned text table.
pub fn render(headers: &[String], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String], widths: &[usize]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{:>width$}", cell, width = widths[i]);
        }
        out.push('\n');
    };
    line(&mut out, headers, &widths);
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row, &widths);
    }
    out
}

/// Write the same data as CSV (quotes unnecessary for our numeric cells).
/// A failure names the path it could not write.
pub fn write_csv(path: &Path, headers: &[String], rows: &[Vec<String>]) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str(&headers.join(","));
    s.push('\n');
    for row in rows {
        s.push_str(&row.join(","));
        s.push('\n');
    }
    let write = || {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, &s)
    };
    write().map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// Format a float with sensible precision for tables.
pub fn f(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

/// Format a signed percentage.
pub fn pct(x: f64) -> String {
    format!("{x:+.0}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let t = render(
            &["a".into(), "value".into()],
            &[
                vec!["1".into(), "2".into()],
                vec!["100".into(), "30000".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].ends_with("value"));
        assert!(lines[3].ends_with("30000"));
        // Each body line is as wide as the header line.
        assert_eq!(lines[3].len(), lines[0].len());
    }

    #[test]
    fn csv_round_trips_through_fs() {
        let dir = std::env::temp_dir().join("qrdtm-bench-test");
        let path = dir.join("t.csv");
        write_csv(
            &path,
            &["x".into(), "y".into()],
            &[vec!["1".into(), "2".into()]],
        )
        .unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x,y\n1,2\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn float_formats() {
        // {:.0} rounds half-to-even: 1234.5 -> "1234".
        assert_eq!(f(1234.5), "1234");
        assert_eq!(f(1234.6), "1235");
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(1.234), "1.23");
        assert_eq!(pct(-51.4), "-51%");
        assert_eq!(pct(9.6), "+10%");
    }
}
