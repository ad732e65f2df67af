//! The fused restructuring kernel behind
//! [`OpKind::FusedRestructure`](crate::program::OpKind::FusedRestructure):
//! `PURGE ∘ CLEAN-UP ∘ GROUP` (the paper's §4.3 pivot chain) in one
//! traversal of the input, never materializing the grouped intermediate.
//!
//! `GROUP by 𝒜 on ℬ` blows an `m`-row table up to `|𝒞| + m·|ℬ|` columns
//! (one copy block per data row); the staged pipeline then rescans that
//! quadratic intermediate twice — once to merge rows (clean-up), once to
//! merge columns (purge). But under the applicability conditions checked
//! here, both merges are fully determined by the *original* rows:
//!
//! * the clean-up groups data rows by `(row attribute, 𝒞-subtuple)` — the
//!   same key is readable off the input, and because each input row owns a
//!   disjoint copy block, the group join can never conflict;
//! * the purge merges block columns by `(attribute, header tuple)` — the
//!   header tuple of row `i`'s block is just `ρᵢ(𝒜)`, also readable off
//!   the input, so each merged output cell is the informational join of
//!   the matching input entries.
//!
//! The kernel therefore emits the final cross-tab directly:
//! `O(|input| + |output|)` cells touched, versus the staged pipeline's
//! `O(m²·|ℬ|)` peak. Whenever any condition fails — or a merged cell's
//! join conflicts, in which case the staged purge would *retain* the
//! unmerged columns — the kernel abstains by returning `None` and the
//! caller replays the exact staged semantics, so fused and unfused runs
//! are byte-identical (the unit tests compare with `assert_eq!`, not
//! `equiv`).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use tabular_core::{Symbol, SymbolSet, Table};

/// The denoted parameter sets of a `GROUP → CLEAN-UP (→ PURGE)` chain, as
/// recognized by the planner's `fuse-restructure` rule and evaluated by
/// the fused kernel.
#[derive(Clone, Debug)]
pub struct RestructureSpec {
    /// `GROUP by` — the grouping attributes (header rows of the grouped
    /// intermediate).
    pub group_by: SymbolSet,
    /// `GROUP on` — the grouped attributes (the per-row copy blocks).
    pub group_on: SymbolSet,
    /// `CLEAN-UP by` — grouping *column* attributes over the intermediate.
    pub cleanup_by: SymbolSet,
    /// `CLEAN-UP on` — participating *row* attributes over the
    /// intermediate.
    pub cleanup_on: SymbolSet,
    /// `PURGE (on, by)` closing a 3-op chain; `None` for the 2-op prefix
    /// `CLEAN-UP ∘ GROUP`.
    pub purge: Option<(SymbolSet, SymbolSet)>,
}

/// Clean-up groups over the *original* data rows: rows whose row attribute
/// participates are keyed by `(row attribute, 𝒞-subtuple)`; everything
/// else is its own singleton (clean-up passes it through unchanged).
/// Groups come out ordered by their first member, which is exactly the
/// staged emission order.
struct Group {
    first_row: usize,
    rows: Vec<usize>,
}

fn cleanup_groups(r: &Table, c_cols: &[usize], cleanup_on: &SymbolSet) -> Vec<Group> {
    let mut keys: HashMap<Vec<Symbol>, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for i in 1..=r.height() {
        let attr = r.get(i, 0);
        if !cleanup_on.contains(attr) {
            groups.push(Group {
                first_row: i,
                rows: vec![i],
            });
            continue;
        }
        let mut key = Vec::with_capacity(c_cols.len() + 1);
        key.push(attr);
        key.extend(c_cols.iter().map(|&j| r.get(i, j)));
        match keys.entry(key) {
            Entry::Occupied(e) => groups[*e.get()].rows.push(i),
            Entry::Vacant(e) => {
                e.insert(groups.len());
                groups.push(Group {
                    first_row: i,
                    rows: vec![i],
                });
            }
        }
    }
    groups
}

/// Evaluate the chain described by `spec` over `r` in a single pass, or
/// return `None` when the single-pass model does not apply (the caller
/// must then run the staged pipeline, whose result is the operation's
/// definition).
///
/// Applicability — each condition rules out a way the staged pipeline
/// could deviate from the model above:
///
/// 1. no header attribute lies in `cleanup_on` (header rows must pass
///    through the clean-up untouched);
/// 2. every carried (𝒞) column attribute lies in `cleanup_by` and no
///    block (ℬ) column attribute does — so the clean-up key over the
///    intermediate is exactly `(row attribute, 𝒞-subtuple)` and group
///    joins cannot conflict (copy blocks are disjoint);
/// 3. with a purge: every header attribute lies in `purge by` and no data
///    row attribute does (header rows, and only they, key the column
///    merge), no 𝒞 attribute lies in `purge on` and every ℬ attribute
///    does (carried columns pass through, every block column merges);
/// 4. no merged output cell receives two distinct non-⊥ contributions —
///    a conflict means the staged purge would retain the unmerged
///    columns, a shape this kernel cannot produce.
pub fn fused_restructure(r: &Table, spec: &RestructureSpec, name: Symbol) -> Option<Table> {
    let grouped_attrs = spec.group_by.union(&spec.group_on);
    let c_cols = r.cols_not_in(&grouped_attrs);
    let b_cols = r.cols_in(&spec.group_on);
    let m = r.height();

    // Header attributes, leftmost occurrence first — one grouped header
    // row each, sourced from the leftmost column so named (as in `group`).
    let mut header: Vec<(Symbol, usize)> = Vec::new();
    let mut seen = SymbolSet::new();
    for j in r.cols_in(&spec.group_by) {
        let a = r.col_attr(j);
        if !seen.contains(a) {
            seen.insert(a);
            header.push((a, j));
        }
    }

    if header.iter().any(|&(a, _)| spec.cleanup_on.contains(a)) {
        return None; // header rows would participate in the clean-up
    }
    if c_cols
        .iter()
        .any(|&j| !spec.cleanup_by.contains(r.col_attr(j)))
    {
        return None; // the clean-up key must pin every carried column
    }
    if b_cols
        .iter()
        .any(|&j| spec.cleanup_by.contains(r.col_attr(j)))
    {
        return None; // the clean-up key must exclude the copy blocks
    }
    if let Some((p_on, p_by)) = &spec.purge {
        if header.iter().any(|&(a, _)| !p_by.contains(a)) {
            return None; // every header row must key the column merge
        }
        if c_cols.iter().any(|&j| p_on.contains(r.col_attr(j))) {
            return None; // carried columns must pass through the purge
        }
        if b_cols.iter().any(|&j| !p_on.contains(r.col_attr(j))) {
            return None; // every block column must participate
        }
        if (1..=m).any(|i| p_by.contains(r.get(i, 0))) {
            return None; // data rows must not key the column merge
        }
    }

    let groups = cleanup_groups(r, &c_cols, &spec.cleanup_on);

    if spec.purge.is_none() {
        // 2-op chain: the grouped layout (𝒞 columns then m copy blocks),
        // one row per clean-up group instead of one per input row.
        let width = c_cols.len() + m * b_cols.len();
        let mut t = Table::new(name, 0, width);
        for (k, &j) in c_cols.iter().enumerate() {
            t.set(0, k + 1, r.col_attr(j));
        }
        for block in 0..m {
            for (k, &j) in b_cols.iter().enumerate() {
                t.set(
                    0,
                    c_cols.len() + block * b_cols.len() + k + 1,
                    r.col_attr(j),
                );
            }
        }
        for &(a, j) in &header {
            let mut row = vec![Symbol::Null; width + 1];
            row[0] = a;
            for (block, i) in (1..=m).enumerate() {
                for k in 0..b_cols.len() {
                    row[c_cols.len() + block * b_cols.len() + k + 1] = r.get(i, j);
                }
            }
            t.push_row(row);
        }
        for g in &groups {
            let mut row = vec![Symbol::Null; width + 1];
            row[0] = r.get(g.first_row, 0);
            for (k, &j) in c_cols.iter().enumerate() {
                row[k + 1] = r.get(g.first_row, j);
            }
            for &i in &g.rows {
                let block = i - 1;
                for (k, &j) in b_cols.iter().enumerate() {
                    row[c_cols.len() + block * b_cols.len() + k + 1] = r.get(i, j);
                }
            }
            t.push_row(row);
        }
        return Some(t);
    }

    // 3-op chain: one output column per distinct (block attribute, header
    // tuple), in first-occurrence order — exactly where the staged purge
    // emits each merged column (the position of its leftmost member).
    let mut htups: Vec<Vec<Symbol>> = Vec::new();
    let mut hids: HashMap<Vec<Symbol>, usize> = HashMap::new();
    let mut out_cols: Vec<(Symbol, usize)> = Vec::new();
    let mut col_of: HashMap<(Symbol, usize), usize> = HashMap::new();
    // Per data row, per block column: which output column it lands in.
    let mut col_ix: Vec<Vec<usize>> = Vec::with_capacity(m);
    for i in 1..=m {
        let h: Vec<Symbol> = header.iter().map(|&(_, j)| r.get(i, j)).collect();
        let hid = match hids.entry(h) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let hid = htups.len();
                htups.push(e.key().clone());
                e.insert(hid);
                hid
            }
        };
        let mut ix = Vec::with_capacity(b_cols.len());
        for &j in &b_cols {
            let key = (r.col_attr(j), hid);
            let c = match col_of.entry(key) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let c = out_cols.len();
                    out_cols.push(key);
                    e.insert(c);
                    c
                }
            };
            ix.push(c);
        }
        col_ix.push(ix);
    }

    let width = c_cols.len() + out_cols.len();
    let mut t = Table::new(name, 0, width);
    for (k, &j) in c_cols.iter().enumerate() {
        t.set(0, k + 1, r.col_attr(j));
    }
    for (k, &(b, _)) in out_cols.iter().enumerate() {
        t.set(0, c_cols.len() + k + 1, b);
    }
    for (a_idx, &(a, _)) in header.iter().enumerate() {
        let mut row = vec![Symbol::Null; width + 1];
        row[0] = a;
        for (k, &(_, hid)) in out_cols.iter().enumerate() {
            row[c_cols.len() + k + 1] = htups[hid][a_idx];
        }
        t.push_row(row);
    }
    for g in &groups {
        let mut row = vec![Symbol::Null; width + 1];
        row[0] = r.get(g.first_row, 0);
        for (k, &j) in c_cols.iter().enumerate() {
            row[k + 1] = r.get(g.first_row, j);
        }
        for &i in &g.rows {
            for (k, &j) in b_cols.iter().enumerate() {
                let slot = c_cols.len() + col_ix[i - 1][k] + 1;
                match row[slot].join(r.get(i, j)) {
                    Some(joined) => row[slot] = joined,
                    None => return None, // condition 4: the staged purge would retain columns
                }
            }
        }
        t.push_row(row);
    }
    Some(t)
}

/// Cells the grouped intermediate `GROUP by 𝒜 on ℬ (R)` would
/// materialize — `(m + |headers| + 1) × (|𝒞| + m·|ℬ| + 1)`, counting the
/// attribute row and the row-attribute column. Used to pre-size the
/// staged fallback against the cell limit before anything is built, and
/// by the benchmark harness to report avoided work.
pub fn grouped_cells(r: &Table, group_by: &SymbolSet, group_on: &SymbolSet) -> usize {
    let grouped = group_by.union(group_on);
    let c = r.cols_not_in(&grouped).len();
    let b = r.cols_in(group_on).len();
    let m = r.height();
    let mut seen = SymbolSet::new();
    let mut headers = 0usize;
    for j in r.cols_in(group_by) {
        let a = r.col_attr(j);
        if !seen.contains(a) {
            seen.insert(a);
            headers += 1;
        }
    }
    (m + headers + 1).saturating_mul(c + m.saturating_mul(b) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::redundancy::{cleanup, purge};
    use crate::ops::restructure::group;
    use tabular_core::fixtures;

    fn nm(x: &str) -> Symbol {
        Symbol::name(x)
    }

    fn set(xs: &[&str]) -> SymbolSet {
        SymbolSet::from_iter(xs.iter().map(|x| nm(x)))
    }

    fn null_set() -> SymbolSet {
        SymbolSet::from_iter([Symbol::Null])
    }

    /// The definition the kernel must reproduce byte-for-byte.
    fn staged(r: &Table, spec: &RestructureSpec, name: Symbol) -> Table {
        let g = group(r, &spec.group_by, &spec.group_on, name);
        let c = cleanup(&g, &spec.cleanup_by, &spec.cleanup_on, name);
        match &spec.purge {
            Some((on, by)) => purge(&c, on, by, name),
            None => c,
        }
    }

    fn pivot_spec(keys: &[&str], col: &str, val: &str) -> RestructureSpec {
        RestructureSpec {
            group_by: set(&[col]),
            group_on: set(&[val]),
            cleanup_by: set(keys),
            cleanup_on: null_set(),
            purge: Some((set(&[val]), set(&[col]))),
        }
    }

    #[test]
    fn fused_pivot_matches_staged_byte_for_byte() {
        let rel = fixtures::sales_relation();
        let spec = pivot_spec(&["Part"], "Region", "Sold");
        let fused = fused_restructure(&rel, &spec, nm("Sales")).expect("pivot chain is fusable");
        assert_eq!(fused, staged(&rel, &spec, nm("Sales")));
        let info2 = fixtures::sales_info2();
        assert!(fused.equiv(info2.table_str("Sales").unwrap()));
    }

    #[test]
    fn fused_pivot_matches_staged_across_sizes() {
        for (parts, regions) in [(1, 1), (3, 4), (10, 7), (16, 8)] {
            let rel = fixtures::make_sales_relation(parts, regions);
            let spec = pivot_spec(&["Part"], "Region", "Sold");
            let fused = fused_restructure(&rel, &spec, nm("Sales")).expect("fusable");
            assert_eq!(fused, staged(&rel, &spec, nm("Sales")), "{parts}×{regions}");
        }
    }

    #[test]
    fn fused_two_op_prefix_matches_staged() {
        let rel = fixtures::sales_relation();
        let spec = RestructureSpec {
            purge: None,
            ..pivot_spec(&["Part"], "Region", "Sold")
        };
        let fused = fused_restructure(&rel, &spec, nm("Sales")).expect("fusable");
        assert_eq!(fused, staged(&rel, &spec, nm("Sales")));
    }

    #[test]
    fn fused_handles_duplicate_block_attributes() {
        // Two Sold columns in one copy block merge under the same
        // (attribute, header tuple) output column.
        let rel = Table::from_grid(&[
            &["R", "Part", "Region", "Sold", "Sold"],
            &["_", "p1", "east", "10", "_"],
            &["_", "p2", "west", "_", "20"],
        ])
        .unwrap();
        let spec = pivot_spec(&["Part"], "Region", "Sold");
        let fused = fused_restructure(&rel, &spec, nm("T")).expect("fusable");
        assert_eq!(fused, staged(&rel, &spec, nm("T")));
    }

    #[test]
    fn fused_handles_degenerate_tables() {
        let spec = pivot_spec(&["Part"], "Region", "Sold");
        // Empty table: header rows only.
        let empty = Table::relational("R", &["Part", "Region", "Sold"], &[]);
        let fused = fused_restructure(&empty, &spec, nm("T")).expect("fusable");
        assert_eq!(fused, staged(&empty, &spec, nm("T")));
        // A table missing the pivot attributes entirely: no blocks, no
        // headers, every column carried — fusable when the carried
        // columns are pinned by the clean-up key...
        let only_keys = Table::relational("R", &["Part"], &[&["p1"], &["p2"]]);
        let fused = fused_restructure(&only_keys, &spec, nm("T")).expect("fusable");
        assert_eq!(fused, staged(&only_keys, &spec, nm("T")));
        // ...and abstained from when they are not (the staged clean-up
        // could then merge rows this kernel keeps apart).
        let off = Table::relational("R", &["A"], &[&["1"]]);
        assert!(fused_restructure(&off, &spec, nm("T")).is_none());
        // Empty group-by: no header rows, a single merged block.
        let rel = fixtures::sales_relation();
        let spec = RestructureSpec {
            group_by: SymbolSet::new(),
            group_on: set(&["Sold"]),
            cleanup_by: set(&["Part", "Region"]),
            cleanup_on: null_set(),
            purge: Some((set(&["Sold"]), SymbolSet::new())),
        };
        let fused = fused_restructure(&rel, &spec, nm("T")).expect("fusable");
        assert_eq!(fused, staged(&rel, &spec, nm("T")));
    }

    #[test]
    fn kernel_abstains_when_the_cleanup_key_misses_a_carried_column() {
        // Part is carried (outside by ∪ on) but absent from the clean-up
        // key: the staged clean-up could merge rows with different parts.
        let rel = fixtures::sales_relation();
        let spec = RestructureSpec {
            cleanup_by: SymbolSet::new(),
            ..pivot_spec(&["Part"], "Region", "Sold")
        };
        assert!(fused_restructure(&rel, &spec, nm("T")).is_none());
    }

    #[test]
    fn kernel_abstains_when_header_rows_would_clean_up() {
        let rel = fixtures::sales_relation();
        let spec = RestructureSpec {
            cleanup_on: SymbolSet::from_iter([Symbol::Null, nm("Region")]),
            ..pivot_spec(&["Part"], "Region", "Sold")
        };
        assert!(fused_restructure(&rel, &spec, nm("T")).is_none());
    }

    #[test]
    fn kernel_abstains_on_a_conflicting_column_merge() {
        // Two rows with the same part and region but different Sold: the
        // purge join conflicts and the staged pipeline retains both
        // columns — the kernel must abstain rather than guess.
        let rel = Table::relational(
            "R",
            &["Part", "Region", "Sold"],
            &[&["p1", "east", "10"], &["p1", "east", "20"]],
        );
        let spec = pivot_spec(&["Part"], "Region", "Sold");
        assert!(fused_restructure(&rel, &spec, nm("T")).is_none());
        // And the staged result indeed keeps the unmerged columns: Part
        // plus both Sold columns.
        assert_eq!(staged(&rel, &spec, nm("T")).width(), 3);
    }

    #[test]
    fn grouped_cells_matches_the_real_intermediate() {
        let rel = fixtures::sales_relation();
        let (by, on) = (set(&["Region"]), set(&["Sold"]));
        let g = group(&rel, &by, &on, nm("T"));
        assert_eq!(
            grouped_cells(&rel, &by, &on),
            (g.height() + 1) * (g.width() + 1)
        );
    }
}
