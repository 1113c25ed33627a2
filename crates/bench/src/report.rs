//! Plain-text table rendering: the one printer behind `dstool`'s tables.
//! Each table is fixed-width, so output can be compared line by line with
//! the paper's figures and diffed run to run.

use std::fmt::Write as _;

/// A fixed-width text table with a title, optional caption and column
/// headers.  Cells are strings; the caller formats numbers (see
/// [`cell`](crate::runtime::cell)).
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    caption: Option<String>,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table titled `title` (e.g. `"Figure 2: fetch stalls"`) with
    /// the given column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            title: title.into(),
            caption: None,
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Attach a one-line caption describing workload and parameters.
    pub fn with_caption(mut self, caption: impl Into<String>) -> Self {
        self.caption = Some(caption.into());
        self
    }

    /// Append one row.  Panics if the cell count does not match the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} does not match header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows currently in the table.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Render the table to a `String`.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n=== {} ===", self.title);
        if let Some(c) = &self.caption {
            let _ = writeln!(out, "{c}");
        }
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::new();
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                // Right-align numeric-looking cells, left-align text.
                if cell.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    let _ = write!(s, "{cell:>w$}", w = *w);
                } else {
                    let _ = write!(s, "{cell:<w$}", w = *w);
                }
            }
            let _ = writeln!(out, "{}", s.trim_end());
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Render and print the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_title_headers_and_rows() {
        let mut t = Table::new("Table X", &["model", "speedup"]).with_caption("caption text");
        t.row(&["ResNet18".to_string(), "1.53x".to_string()]);
        t.row(&["AlexNet".to_string(), "1.87x".to_string()]);
        let s = t.render();
        assert!(s.contains("=== Table X ==="));
        assert!(s.contains("caption text"));
        assert!(s.contains("model"));
        assert!(s.contains("ResNet18"));
        assert!(s.contains("1.87x"));
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn columns_are_padded_to_the_widest_cell() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["short".into(), "1".into()]);
        t.row(&["a-much-longer-cell".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s
            .lines()
            .filter(|l| l.contains('2') || l.contains('1'))
            .collect();
        // Numeric second column is right-aligned to the same terminal column.
        let col1 = lines[0].rfind('1').unwrap();
        let col2 = lines[1].rfind('2').unwrap();
        assert_eq!(col1, col2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
