//! Plain-text table rendering for experiment reports.

use std::fmt::Write as _;

/// A simple aligned-column table, rendered as monospace text.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of already-owned cells.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let print_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}", cell, width = widths[i] + 2);
            }
            let _ = writeln!(out);
        };
        print_row(&self.header, &mut out);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        let _ = writeln!(out, "{}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            print_row(row, &mut out);
        }
        debug_assert_eq!(widths.len(), cols);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_cells() {
        let mut t = Table::new(&["k", "RR", "EAR", "gain"]);
        t.row(&["4", "62.1", "74.5", "+19.9%"]);
        let s = t.render();
        assert!(s.contains("EAR"));
        assert!(s.contains("+19.9%"));
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["1", "2"]);
        t.row_owned(vec!["333".into(), "4".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Every row starts its second column at the same offset.
        let off = lines[0].find("long-header").unwrap();
        assert_eq!(&lines[2][off..off + 1], "2");
        assert_eq!(&lines[3][off..off + 1], "4");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }
}
