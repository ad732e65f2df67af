//! Response checks against the in-process reference.
//!
//! Only the table a request assigns (or uploads) is compared, so a
//! service that stops echoing the rest of the session stays correct.
//! Name, height and width are checked on every response; the cells on
//! the first response of each class per connection. Cells are compared
//! up to row and column order, which the tabular model does not fix.

use tabular_server::json::{self, Json};

use crate::workload::{Class, Expected};

/// Check one response body. `full` also compares the cells.
pub fn check(
    expected: &Expected,
    class: Class,
    status: u16,
    body: &str,
    full: bool,
) -> Result<(), String> {
    let want_status = if class == Class::UploadE { 201 } else { 200 };
    if status != want_status {
        return Err(format!("{}: status {status}: {}", class.name(), clip(body)));
    }
    let doc = json::parse(body).map_err(|e| format!("{}: bad JSON: {e}", class.name()))?;
    if doc.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("{}: not ok: {}", class.name(), clip(body)));
    }
    let want = &expected[&class];
    if class == Class::UploadE {
        let (h, w, _) = &want[0];
        let got = (
            doc.get("table").and_then(Json::as_str),
            doc.get("height").and_then(Json::as_num),
            doc.get("width").and_then(Json::as_num),
        );
        return if got == (Some(class.target()), Some(*h as f64), Some(*w as f64)) {
            Ok(())
        } else {
            Err(format!("upload: got {got:?}, want E {h}x{w}"))
        };
    }
    let result = doc
        .get("results")
        .and_then(Json::as_arr)
        .and_then(|r| r.first())
        .ok_or_else(|| format!("{}: no results", class.name()))?;
    if result.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("{}: result not ok: {}", class.name(), clip(body)));
    }
    let mut got = Vec::new();
    for t in result.get("tables").and_then(Json::as_arr).unwrap_or(&[]) {
        if t.get("name").and_then(Json::as_str) != Some(class.target()) {
            continue;
        }
        let dim = |k: &str| t.get(k).and_then(Json::as_num).map(|n| n as usize);
        let csv = t.get("csv").and_then(Json::as_str).unwrap_or("");
        got.push((dim("height"), dim("width"), csv));
    }
    let mut got_shapes: Vec<_> = got.iter().map(|(h, w, _)| (*h, *w)).collect();
    let mut want_shapes: Vec<_> = want.iter().map(|(h, w, _)| (Some(*h), Some(*w))).collect();
    got_shapes.sort();
    want_shapes.sort();
    if got_shapes != want_shapes {
        return Err(format!(
            "{}: table {} has shapes {got_shapes:?}, want {want_shapes:?}",
            class.name(),
            class.target()
        ));
    }
    if full {
        let mut got_cells = got.iter().map(|(_, _, c)| canon(c)).collect::<Vec<_>>();
        let mut want_cells = want.iter().map(|(_, _, c)| canon(c)).collect::<Vec<_>>();
        got_cells.sort();
        want_cells.sort();
        if got_cells != want_cells {
            return Err(format!(
                "{}: cells of {} differ from the reference",
                class.name(),
                class.target()
            ));
        }
    }
    Ok(())
}

fn clip(s: &str) -> String {
    s.chars().take(200).collect()
}

/// A table in a form that ignores row and column order: its header
/// cell, then its columns sorted by (attribute, multiset of
/// (row attribute, cell)), then its rows read in that column order and
/// sorted.
type Canon = (String, Vec<String>, Vec<Vec<String>>);

fn canon(csv: &str) -> Canon {
    let records = records(csv);
    let Some((head, rows)) = records.split_first() else {
        return Canon::default();
    };
    let width = head.len().saturating_sub(1);
    let cell = |row: &Vec<String>, j: usize| row.get(j).cloned().unwrap_or_default();
    // (attribute, sorted (row attribute, cell) pairs, column index)
    type Column = (String, Vec<(String, String)>, usize);
    let mut cols: Vec<Column> = (1..=width)
        .map(|j| {
            let mut sig: Vec<(String, String)> =
                rows.iter().map(|r| (cell(r, 0), cell(r, j))).collect();
            sig.sort();
            (head[j].clone(), sig, j)
        })
        .collect();
    cols.sort();
    let mut canon_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            std::iter::once(cell(r, 0))
                .chain(cols.iter().map(|(_, _, j)| cell(r, *j)))
                .collect()
        })
        .collect();
    canon_rows.sort();
    (
        head[0].clone(),
        cols.into_iter().map(|(a, _, _)| a).collect(),
        canon_rows,
    )
}

/// Split CSV text into records (RFC-4180 quoting, as `io::to_csv`
/// writes it).
fn records(csv: &str) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    let mut record = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut chars = csv.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                field.push('"');
                chars.next();
            }
            '"' => quoted = !quoted,
            ',' if !quoted => record.push(std::mem::take(&mut field)),
            '\n' if !quoted => {
                record.push(std::mem::take(&mut field));
                out.push(std::mem::take(&mut record));
            }
            c => field.push(c),
        }
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        out.push(record);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{reference, Inputs};

    /// A response shaped like the service's, holding `tables` as
    /// `(name, height, width, csv)`.
    fn response(tables: &[(&str, usize, usize, &str)]) -> String {
        let tables: Vec<String> = tables
            .iter()
            .map(|(n, h, w, csv)| {
                format!(
                    "{{\"name\":\"{n}\",\"height\":{h},\"width\":{w},\"csv\":\"{}\"}}",
                    json::escape(csv)
                )
            })
            .collect();
        format!(
            "{{\"ok\":true,\"results\":[{{\"ok\":true,\"tables\":[{}],\"stats\":{{}}}}]}}",
            tables.join(",")
        )
    }

    fn tc_reference() -> (Expected, usize, usize, String) {
        let expected = reference(&Inputs::generate(11)).unwrap();
        let (h, w, csv) = expected[&Class::Tc][0].clone();
        (expected, h, w, csv)
    }

    #[test]
    fn rejects_a_wrong_tc_height() {
        let (expected, h, w, csv) = tc_reference();
        let body = response(&[("E", 24, 2, "E,A,B\n"), ("TC", h - 1, w, &csv)]);
        let err = check(&expected, Class::Tc, 200, &body, false).unwrap_err();
        assert!(err.contains("shapes"), "{err}");
    }

    #[test]
    fn accepts_a_response_without_the_other_session_tables() {
        let (expected, h, w, csv) = tc_reference();
        let only_tc = response(&[("TC", h, w, &csv)]);
        check(&expected, Class::Tc, 200, &only_tc, true).unwrap();
        let echoed = response(&[("Sales", 1, 1, "Sales,X\nr0,y\n"), ("TC", h, w, &csv)]);
        check(&expected, Class::Tc, 200, &echoed, true).unwrap();
    }

    #[test]
    fn cells_compare_up_to_row_and_column_order() {
        let (expected, h, w, csv) = tc_reference();
        let mut lines: Vec<&str> = csv.lines().collect();
        lines[1..].reverse();
        let reordered = lines.join("\n") + "\n";
        let body = response(&[("TC", h, w, &reordered)]);
        check(&expected, Class::Tc, 200, &body, true).unwrap();

        let swapped: String = csv
            .lines()
            .map(|l| {
                let f: Vec<&str> = l.split(',').collect();
                format!("{},{},{}\n", f[0], f[2], f[1])
            })
            .collect();
        let body = response(&[("TC", h, w, &swapped)]);
        check(&expected, Class::Tc, 200, &body, true).unwrap();

        let wrong = csv.replacen(",n", ",x", 1);
        let body = response(&[("TC", h, w, &wrong)]);
        assert!(check(&expected, Class::Tc, 200, &body, true).is_err());
        // Shape checks alone do not look at cells.
        check(&expected, Class::Tc, 200, &body, false).unwrap();
    }

    #[test]
    fn rejects_errors_and_trips() {
        let (expected, ..) = tc_reference();
        let trip = "{\"ok\":false,\"results\":[{\"ok\":false,\"error\":\"budget\"}]}";
        assert!(check(&expected, Class::Tc, 408, trip, false).is_err());
        assert!(check(&expected, Class::Tc, 200, trip, false).is_err());
        assert!(check(&expected, Class::Tc, 200, &response(&[]), false).is_err());
        let upload = "{\"ok\":true,\"table\":\"E\",\"height\":24,\"width\":2}";
        check(&expected, Class::UploadE, 201, upload, true).unwrap();
        let short = "{\"ok\":true,\"table\":\"E\",\"height\":23,\"width\":2}";
        assert!(check(&expected, Class::UploadE, 201, short, true).is_err());
    }

    #[test]
    fn quoted_csv_fields() {
        assert_eq!(
            records("T,\"a,b\"\nr0,\"x\"\"y\"\n"),
            vec![vec!["T", "a,b"], vec!["r0", "x\"y"]]
        );
    }
}
