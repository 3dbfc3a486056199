//! Plain-text table rendering shared by the bench binaries.
//!
//! Every table/figure harness prints rows through these helpers so the
//! regenerated outputs align and EXPERIMENTS.md can quote them verbatim.

/// Render `rows` under `headers` with per-column left alignment.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width must match headers");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[&str], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{c:<w$}"));
        }
        line.push('\n');
        line
    };
    let mut out = String::new();
    out.push_str(&fmt_row(headers, &widths));
    let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let dash_refs: Vec<&str> = dashes.iter().map(String::as_str).collect();
    out.push_str(&fmt_row(&dash_refs, &widths));
    for row in rows {
        let cells: Vec<&str> = row.iter().map(String::as_str).collect();
        out.push_str(&fmt_row(&cells, &widths));
    }
    out
}

/// Seconds → milliseconds with 2 decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "v"],
            &[vec!["a".into(), "1".into()], vec!["longer".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("------"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn ms_formats() {
        assert_eq!(ms(0.1234), "123.40");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_panic() {
        table(&["a", "b"], &[vec!["x".into()]]);
    }
}
