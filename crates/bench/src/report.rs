//! Plain-text table rendering for the reproduce harness.

/// A printable table with a title, column headers and string rows.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with padded columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:<width$}  ", c, width = widths[i]));
            }
            s.trim_end().to_string()
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Outcome of one experiment's shape checks.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// Experiment identifier (e.g. `fig8`).
    pub experiment: String,
    /// Human-readable assertions with pass/fail.
    pub assertions: Vec<(String, bool)>,
}

impl ShapeCheck {
    /// Starts a check set for an experiment.
    pub fn new(experiment: impl Into<String>) -> Self {
        ShapeCheck {
            experiment: experiment.into(),
            assertions: Vec::new(),
        }
    }

    /// Records one assertion.
    pub fn assert(&mut self, description: impl Into<String>, ok: bool) {
        self.assertions.push((description.into(), ok));
    }

    /// Whether every assertion passed.
    pub fn passed(&self) -> bool {
        self.assertions.iter().all(|(_, ok)| *ok)
    }

    /// Prints `[ok]` / `[FAIL]` lines.
    pub fn print(&self) {
        for (desc, ok) in &self.assertions {
            println!("  [{}] {desc}", if *ok { "ok" } else { "FAIL" });
        }
    }
}

/// Writes `value` as pretty JSON and prints where it went, reporting (not
/// panicking on) IO and serialization errors — bench artifacts are
/// best-effort, shape checks are not.
pub fn write_json<T: serde::Serialize>(path: &std::path::Path, value: &T) {
    let written = serde_json::to_string_pretty(value)
        .map_err(|e| e.to_string())
        .and_then(|json| std::fs::write(path, json + "\n").map_err(|e| e.to_string()));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("WARNING: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_padded_columns() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(vec!["xx".into(), "y".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("a   bbbb"));
        assert!(s.contains("xx  y"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_row_width_panics() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn empty_table_renders_headers_only() {
        let t = Table::new("empty", &["col"]);
        let s = t.render();
        assert!(s.contains("== empty =="));
        assert!(s.contains("col"));
        // Leading blank line, title, header, rule — and no data rows.
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn unicode_cells_pad_by_chars_not_bytes() {
        let mut t = Table::new("u", &["a", "b"]);
        t.row(vec!["αβγ".into(), "x".into()]);
        t.row(vec!["12345".into(), "y".into()]);
        let s = t.render();
        // Both "b"-column cells end at the same character column.
        let lines: Vec<&str> = s.lines().rev().take(2).collect();
        let col = |l: &str| l.chars().count();
        assert_eq!(col(lines[0]), col(lines[1]), "{s}");
    }

    #[test]
    fn shape_check_aggregates() {
        let mut c = ShapeCheck::new("fig8");
        c.assert("one", true);
        assert!(c.passed());
        c.assert("two", false);
        assert!(!c.passed());
    }
}
