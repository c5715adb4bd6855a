//! Data-table classification (paper §2.1).
//!
//! The `<table>` tag is mostly used for layout; only ~10% of table tags in
//! the paper's 500M-page crawl carried relational data. The paper relies on
//! heuristics (they lacked labeled data for a learned classifier); we
//! reproduce that design with documented rules. Precision matters more than
//! recall here — query-time relevance judgment filters residual noise
//! (paper §2.1: "we decided to rely on query time relevance judgments to
//! filter away non-data tables").

use crate::extract::RawTable;

/// Why a table was rejected (useful for debugging corpus extraction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// Contains form controls (search boxes, login forms, …).
    Form,
    /// Fewer than 2 rows.
    TooFewRows,
    /// Fewer than 2 columns: vertical lists are out of scope (handled by
    /// the authors' earlier list-extraction system, ref \[9\]).
    TooFewCols,
    /// Row widths too inconsistent — typical of layout scaffolding.
    RaggedLayout,
    /// Cells hold long prose — layout table carrying paragraphs.
    ProseCells,
    /// Looks like a calendar grid (≥6 columns of day numbers).
    Calendar,
    /// Almost all cells empty.
    Empty,
}

/// Classifies a raw table, returning the rejection reason if it is not a
/// data table.
pub fn classify(t: &RawTable) -> Result<(), Rejection> {
    if t.has_form {
        return Err(Rejection::Form);
    }
    if t.n_rows() < 2 {
        return Err(Rejection::TooFewRows);
    }
    let n_cols = t.n_cols();
    if n_cols < 2 {
        return Err(Rejection::TooFewCols);
    }
    // Row-width consistency: the modal width must cover at least half the
    // rows (±1 tolerance for trailing spans).
    let mut width_counts = std::collections::HashMap::new();
    for r in &t.rows {
        *width_counts.entry(r.cells.len()).or_insert(0usize) += 1;
    }
    let (&modal, _) = width_counts.iter().max_by_key(|(_, &c)| c).unwrap();
    let consistent = t
        .rows
        .iter()
        .filter(|r| (r.cells.len() as i64 - modal as i64).abs() <= 1)
        .count();
    if consistent * 2 < t.n_rows() {
        return Err(Rejection::RaggedLayout);
    }

    let mut n_cells = 0usize;
    let mut n_nonempty = 0usize;
    let mut n_prose = 0usize;
    let mut n_daylike = 0usize;
    for r in &t.rows {
        for c in &r.cells {
            n_cells += 1;
            let len = c.text.chars().count();
            if len > 0 {
                n_nonempty += 1;
            }
            if len > 200 {
                n_prose += 1;
            }
            if let Ok(v) = c.text.trim().parse::<u32>() {
                if (1..=31).contains(&v) {
                    n_daylike += 1;
                }
            }
        }
    }
    if n_cells == 0 || n_nonempty * 4 < n_cells {
        return Err(Rejection::Empty);
    }
    if n_prose * 10 >= n_cells * 3 {
        return Err(Rejection::ProseCells);
    }
    if n_cols >= 6 && n_daylike * 10 >= n_nonempty * 8 {
        return Err(Rejection::Calendar);
    }
    Ok(())
}

/// Convenience wrapper: true iff [`classify`] accepts the table.
pub fn is_data_table(t: &RawTable) -> bool {
    classify(t).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Document;
    use crate::extract::extract_raw_tables;

    fn raw(html: &str) -> RawTable {
        extract_raw_tables(&Document::parse(html)).remove(0)
    }

    #[test]
    fn accepts_plain_data_table() {
        let t = raw("<table><tr><th>Name</th><th>Area</th></tr>\
                     <tr><td>Shakespeare Hills</td><td>2236</td></tr>\
                     <tr><td>Plains Creek</td><td>880</td></tr></table>");
        assert_eq!(classify(&t), Ok(()));
    }

    #[test]
    fn rejects_form_table() {
        let t = raw("<table><tr><td><input type=text></td><td>go</td></tr>\
                     <tr><td>a</td><td>b</td></tr></table>");
        assert_eq!(classify(&t), Err(Rejection::Form));
    }

    #[test]
    fn rejects_single_row() {
        let t = raw("<table><tr><td>a</td><td>b</td></tr></table>");
        assert_eq!(classify(&t), Err(Rejection::TooFewRows));
    }

    #[test]
    fn rejects_single_column_list() {
        let t = raw("<table><tr><td>one</td></tr><tr><td>two</td></tr></table>");
        assert_eq!(classify(&t), Err(Rejection::TooFewCols));
    }

    #[test]
    fn rejects_calendar() {
        let mut html = String::from("<table>");
        html.push_str("<tr><td>Mo</td><td>Tu</td><td>We</td><td>Th</td><td>Fr</td><td>Sa</td><td>Su</td></tr>");
        for week in 0..4 {
            html.push_str("<tr>");
            for d in 1..=7 {
                html.push_str(&format!("<td>{}</td>", week * 7 + d));
            }
            html.push_str("</tr>");
        }
        html.push_str("</table>");
        let t = raw(&html);
        assert_eq!(classify(&t), Err(Rejection::Calendar));
    }

    #[test]
    fn rejects_prose_layout() {
        let para = "lorem ipsum ".repeat(30);
        let t = raw(&format!(
            "<table><tr><td>{para}</td><td>{para}</td></tr><tr><td>{para}</td><td>{para}</td></tr></table>"
        ));
        assert_eq!(classify(&t), Err(Rejection::ProseCells));
    }

    #[test]
    fn rejects_mostly_empty() {
        let t = raw("<table><tr><td></td><td></td><td></td><td>x</td></tr>\
                     <tr><td></td><td></td><td></td><td></td></tr></table>");
        assert_eq!(classify(&t), Err(Rejection::Empty));
    }

    #[test]
    fn rejects_ragged_layout() {
        let t = raw("<table><tr><td>a</td></tr>\
                     <tr><td>a</td><td>b</td><td>c</td><td>d</td><td>e</td></tr>\
                     <tr><td>a</td><td>b</td><td>c</td><td>d</td><td>e</td><td>f</td><td>g</td><td>h</td></tr>\
                     <tr><td>x</td><td>y</td><td>z</td></tr></table>");
        assert_eq!(classify(&t), Err(Rejection::RaggedLayout));
    }

    #[test]
    fn numbers_above_31_not_calendarish() {
        let mut html = String::from("<table>");
        for r in 0..5 {
            html.push_str("<tr>");
            for c in 0..6 {
                html.push_str(&format!("<td>{}</td>", 100 + r * 6 + c));
            }
            html.push_str("</tr>");
        }
        html.push_str("</table>");
        assert!(is_data_table(&raw(&html)));
    }
}
