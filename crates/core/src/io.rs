//! CSV import/export for tables.
//!
//! The grid maps directly onto CSV: the first record holds the table name
//! followed by the column attributes; each further record holds a row
//! attribute followed by the data entries. Cells use the same syntax as
//! [`Table::from_grid`] (`_` for ⊥, `n:`/`v:` sort tags, positional
//! defaults), so sorts round-trip exactly.

use std::fmt;

use crate::error::CoreError;
use crate::symbol::{cell_parts, parse_cell, Symbol};
use crate::table::Table;

/// Render a table as CSV (RFC-4180-style quoting; cells in the grid cell
/// syntax).
pub fn to_csv(t: &Table) -> String {
    let mut out = String::new();
    write_csv(t, &mut out).expect("writing to a String cannot fail");
    out
}

/// Write [`to_csv`]'s bytes straight into `out`, one cell at a time: no
/// per-cell allocation, so a caller can stream a table into a buffer it
/// already owns (or through an escaping adapter).
pub fn write_csv<W: fmt::Write + ?Sized>(t: &Table, out: &mut W) -> fmt::Result {
    for i in 0..=t.height() {
        for (j, &sym) in t.storage_row(i).iter().enumerate() {
            if j > 0 {
                out.write_char(',')?;
            }
            let (tag, text) = cell_parts(sym, i == 0 || j == 0);
            // Tags are `n:`/`v:`, so only the text can need quoting.
            if text.contains([',', '"', '\n']) {
                out.write_char('"')?;
                out.write_str(tag)?;
                for (k, piece) in text.split('"').enumerate() {
                    if k > 0 {
                        out.write_str("\"\"")?;
                    }
                    out.write_str(piece)?;
                }
                out.write_char('"')?;
            } else {
                out.write_str(tag)?;
                out.write_str(text)?;
            }
        }
        out.write_char('\n')?;
    }
    Ok(())
}

/// Parse a table from CSV produced by [`to_csv`] (or hand-written in the
/// same convention). All records must have the same field count.
pub fn from_csv(src: &str) -> Result<Table, CoreError> {
    let records = parse_records(src)?;
    if records.is_empty() || records[0].is_empty() {
        return Err(CoreError::EmptyGrid);
    }
    let width = records[0].len() - 1;
    for (i, rec) in records.iter().enumerate() {
        if rec.len() != width + 1 {
            return Err(CoreError::RaggedGrid {
                row: i,
                got: rec.len(),
                expected: width + 1,
            });
        }
    }
    let mut t = Table::new(Symbol::Null, records.len() - 1, width);
    for (i, rec) in records.iter().enumerate() {
        for (j, cell) in rec.iter().enumerate() {
            if crate::interner::is_reserved(cell) {
                return Err(CoreError::ReservedSymbol(cell.clone()));
            }
            let default: fn(&str) -> Symbol = if i == 0 || j == 0 {
                Symbol::name
            } else {
                Symbol::value
            };
            t.set(i, j, parse_cell(cell, default));
        }
    }
    Ok(t)
}

/// A minimal RFC-4180 record parser (quotes, escaped quotes, embedded
/// newlines inside quoted fields).
fn parse_records(src: &str) -> Result<Vec<Vec<String>>, CoreError> {
    let mut records: Vec<Vec<String>> = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = src.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;

    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' => in_quotes = true,
            ',' => {
                record.push(std::mem::take(&mut field));
            }
            '\r' => {}
            '\n' => {
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
            }
            _ => field.push(c),
        }
    }
    if in_quotes {
        return Err(CoreError::EmptyGrid); // unterminated quote: no valid grid
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    if !any {
        return Err(CoreError::EmptyGrid);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::symbol::render_cell;
    use proptest::prelude::*;

    /// The two-allocations-per-cell encoder `write_csv` replaced, kept as
    /// the byte-for-byte oracle for it.
    fn to_csv_reference(t: &Table) -> String {
        fn quote(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        }
        let mut out = String::new();
        for i in 0..=t.height() {
            for j in 0..=t.width() {
                if j > 0 {
                    out.push(',');
                }
                let cell = render_cell(t.get(i, j), i == 0 || j == 0);
                out.push_str(&quote(&cell));
            }
            out.push('\n');
        }
        out
    }

    /// A symbol whose text is built to trip the encoder: sort-tag
    /// look-alikes (`n:`, `v:`, `_`, `⊥`), quotes, commas, newlines and
    /// carriage returns, as a name, a value or ⊥.
    fn messy_symbol() -> impl Strategy<Value = Symbol> {
        fn text() -> impl Strategy<Value = String> {
            prop_oneof![
                3 => "[a-c_:nv,\"\n\r ]{0,5}",
                1 => "[nv]:[a-b,\"]{0,3}",
                1 => "[_⊥京]{1,2}",
            ]
        }
        prop_oneof![
            3 => text().prop_map(|s| Symbol::name(&s)),
            3 => text().prop_map(|s| Symbol::value(&s)),
            1 => Just(Symbol::Null),
        ]
    }

    fn messy_table() -> impl Strategy<Value = Table> {
        (0usize..4, 0usize..4).prop_flat_map(|(h, w)| {
            proptest::collection::vec(messy_symbol(), (h + 1) * (w + 1)).prop_map(move |cells| {
                let mut t = Table::new(Symbol::Null, h, w);
                for (k, sym) in cells.into_iter().enumerate() {
                    t.set(k / (w + 1), k % (w + 1), sym);
                }
                t
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn write_csv_matches_the_reference_encoder(t in messy_table()) {
            let mut streamed = String::new();
            write_csv(&t, &mut streamed).unwrap();
            let reference = to_csv_reference(&t);
            prop_assert_eq!(&streamed, &reference);
            prop_assert_eq!(to_csv(&t), reference);
        }
    }

    #[test]
    fn fixtures_round_trip() {
        for db in [
            fixtures::sales_info1_full(),
            fixtures::sales_info2_full(),
            fixtures::sales_info3_full(),
            fixtures::sales_info4_full(),
        ] {
            for t in db.tables() {
                let csv = to_csv(t);
                let back = from_csv(&csv).unwrap();
                assert_eq!(&back, t, "csv:\n{csv}");
            }
        }
    }

    #[test]
    fn csv_shape_is_human_readable() {
        let csv = to_csv(&fixtures::sales_relation());
        let first = csv.lines().next().unwrap();
        assert_eq!(first, "Sales,Part,Region,Sold");
        assert!(csv.lines().nth(1).unwrap().starts_with("_,nuts,"));
    }

    #[test]
    fn quoting_round_trips() {
        let t = Table::from_grid(&[&["T", "v:a,b", "n:say \"hi\""], &["r", "x\ny", "_"]]).unwrap();
        let csv = to_csv(&t);
        assert!(csv.contains("\"v:a,b\""));
        let back = from_csv(&csv).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn hand_written_csv_parses() {
        let t = from_csv("Sales,Part,Sold\n_,nuts,50\n_,bolts,70\n").unwrap();
        assert_eq!(t.height(), 2);
        assert_eq!(t.get(2, 2), Symbol::value("70"));
        assert!(t.get(1, 0).is_null());
        // Missing trailing newline is fine.
        let t2 = from_csv("Sales,Part,Sold\n_,nuts,50").unwrap();
        assert_eq!(t2.height(), 1);
    }

    #[test]
    fn malformed_csv_is_rejected() {
        assert!(matches!(from_csv(""), Err(CoreError::EmptyGrid)));
        assert!(matches!(
            from_csv("T,A\nx\n"),
            Err(CoreError::RaggedGrid { .. })
        ));
        assert!(from_csv("T,\"unterminated\n").is_err());
        let reserved = "T,\u{1F}x\n_,1\n".to_string();
        assert!(matches!(
            from_csv(&reserved),
            Err(CoreError::ReservedSymbol(_))
        ));
    }

    #[test]
    fn empty_cells_are_empty_string_symbols() {
        // An empty unquoted cell is the empty-string name/value, not ⊥
        // (⊥ is spelled `_`). This keeps the mapping bijective.
        let t = from_csv("T,A\n_,\n").unwrap();
        assert_eq!(t.get(1, 1), Symbol::value(""));
    }
}
