//! Plain-text table rendering and JSON persistence for harness outputs.

use std::fmt::Write as _;
use std::path::Path;

use serde::Serialize as _;

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded or truncated to the header width).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<w$}");
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols.saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout with a title.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        print!("{}", self.render());
    }
}

/// Writes a serializable value as pretty JSON under the results directory.
///
/// When profiling is enabled (`BOOTES_PROFILE=1`, see
/// [`crate::init_profiling`]), the value is wrapped as
/// `{"results": ..., "profile": ...}` with the observability snapshot
/// attached; otherwise the value is written bare, exactly as before.
///
/// # Panics
///
/// Panics on serialization or I/O failure (harness binaries treat output
/// failures as fatal).
pub fn save_json<T: serde::Serialize>(dir: &Path, name: &str, value: &T) {
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    let mut root = value.serialize();
    if bootes_obs::enabled() {
        root = serde::Value::Object(vec![
            ("results".to_string(), root),
            ("profile".to_string(), bootes_obs::snapshot().serialize()),
        ]);
    }
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&root).expect("serializable"),
    )
    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("[saved {}]", bootes_perf::log_path(&path).display());
}

/// Formats a float with 2 decimal places (the paper's usual precision).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 3 significant-ish decimal places.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats bytes in a human unit.
pub fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]).row(["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only"]);
        assert_eq!(t.render().lines().count(), 3);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 << 20), "3.0 MiB");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f3(0.12345), "0.123");
    }
}
