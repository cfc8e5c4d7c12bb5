//! Plain-text tables and figure series for the experiment binaries.
//!
//! Every experiment prints (a) a human-readable aligned table and (b) the
//! same data as machine-readable CSV lines prefixed with `#csv#`, so the
//! outputs can be both read in a terminal and scraped into plots.

/// A printable experiment result: title, column headers, string rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    /// Experiment identifier + description.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of rendered cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (cells rendered by the caller).
    ///
    /// # Panics
    ///
    /// Panics when the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Appends a note line.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the aligned table plus `#csv#` lines.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        // Machine-readable mirror.
        out.push_str(&format!("#csv#{}\n", self.headers.join(",")));
        for row in &self.rows {
            out.push_str(&format!("#csv#{}\n", row.join(",")));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a byte count with binary units.
pub fn human_bytes(bytes: u128) -> String {
    const UNITS: [&str; 7] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

/// Formats a duration given in seconds adaptively.
pub fn human_seconds(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2} s")
    } else if s < 7200.0 {
        format!("{:.1} min", s / 60.0)
    } else {
        format!("{:.2} h", s / 3600.0)
    }
}

/// Reads a [`human_seconds`] cell back as seconds, so a note can be
/// computed from the rows it sits under. A leading `>` and a trailing
/// ` (…)` remark are ignored.
///
/// # Panics
///
/// Panics on a cell [`human_seconds`] did not write.
pub fn cell_seconds(cell: &str) -> f64 {
    let cell = cell.trim_start_matches('>');
    let cell = cell.split(" (").next().unwrap_or(cell);
    let (value, unit) = cell.split_once(' ').expect("a `<value> <unit>` cell");
    let value: f64 = value.parse().expect("a numeric duration");
    value
        * match unit {
            "µs" => 1e-6,
            "ms" => 1e-3,
            "s" => 1.0,
            "min" => 60.0,
            "h" => 3600.0,
            _ => panic!("unknown duration unit in {cell:?}"),
        }
}

/// Is the harness in quick mode? (`QCHECK_BENCH_QUICK=1` shrinks sweeps for
/// CI smoke runs.)
pub fn quick_mode() -> bool {
    std::env::var("QCHECK_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Fresh unique temp directory for an experiment; caller removes it.
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let p = std::env::temp_dir().join(format!(
        "qcheck-bench-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&p).expect("create scratch dir");
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("T", &["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("hello");
        let r = t.render();
        assert!(r.contains("== T =="));
        assert!(r.contains("long-header"));
        assert!(r.contains("note: hello"));
        assert!(r.contains("#csv#a,long-header"));
        assert!(r.contains("#csv#1,2"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_is_enforced() {
        Table::new("T", &["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KiB");
        assert_eq!(human_bytes(16 * 1024 * 1024), "16.00 MiB");
        assert_eq!(human_bytes(1u128 << 34), "16.00 GiB");
    }

    #[test]
    fn seconds_formatting() {
        assert!(human_seconds(0.0000005).contains("µs"));
        assert!(human_seconds(0.005).contains("ms"));
        assert!(human_seconds(5.0).contains("s"));
        assert!(human_seconds(600.0).contains("min"));
        assert!(human_seconds(10_000.0).contains("h"));
    }

    #[test]
    fn seconds_cells_read_back() {
        for s in [0.0000005, 0.005, 5.0, 600.0, 10_000.0] {
            let back = cell_seconds(&human_seconds(s));
            assert!((back / s - 1.0).abs() < 1e-3, "{s} read back as {back}");
        }
        assert_eq!(cell_seconds(">2.50 h (aborts 3/6)"), 9000.0);
    }

    #[test]
    fn scratch_dirs_are_unique() {
        let a = scratch_dir("t");
        let b = scratch_dir("t");
        assert_ne!(a, b);
        let _ = std::fs::remove_dir_all(a);
        let _ = std::fs::remove_dir_all(b);
    }
}
