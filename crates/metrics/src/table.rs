//! Minimal plain-text table rendering for the reproduction harness.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Clone, Debug)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with column alignment (first column left, rest right).
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    let _ = write!(out, "{:<width$}", c, width = widths[i]);
                } else {
                    let _ = write!(out, "{:>width$}", c, width = widths[i]);
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Format milliseconds ("123.4ms").
pub fn ms(x: f64) -> String {
    format!("{x:.1}ms")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(&["scheme", "SLO", "cost"]);
        t.row(&cells(&["Paldia", "99.55%", "$0.31"]));
        t.row(&cells(&["INFless/Llama ($)", "89.43%", "$0.30"]));
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("scheme"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // All rows the same width.
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&cells(&["only one"]));
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(123.44), "123.4ms");
    }
}
