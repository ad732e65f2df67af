//! Redundancy removal (paper §3.4): **clean-up** and its dual **purge**.
//!
//! `CLEAN-UP by 𝒜 on ℬ (R)` merges groups of data rows that agree on their
//! `𝒜`-subtuple (their entries under the columns named in `𝒜`) and whose
//! row attribute lies in `ℬ`, whenever all rows of a group are subsumed by
//! a common tuple; the group is then replaced by the *least* such tuple.
//! Clean-up generalizes duplicate-row elimination; purge is its
//! column-wise dual via transposition.
//!
//! Deterministic refinement (documented in DESIGN.md): the least common
//! subsuming tuple is computed as the componentwise informational join
//! (⊥ ⊔ v = v); if any component has two distinct non-⊥ entries the group
//! has no join and the original rows are retained, exactly as the paper
//! prescribes for groups without a common subsumer. Groups are keyed by
//! (row attribute, 𝒜-subtuple), so rows with different row attributes are
//! never merged.

use tabular_core::{Symbol, SymbolSet, Table};

/// `T ← CLEAN-UP by 𝒜 on ℬ (R)`. `by` names grouping *column* attributes,
/// `on` names participating *row* attributes (⊥ included via
/// `SymbolSet::from_iter([Symbol::Null])`).
#[allow(clippy::needless_range_loop)] // rows are addressed by table index throughout
pub fn cleanup(r: &Table, by: &SymbolSet, on: &SymbolSet, name: Symbol) -> Table {
    let by_cols = r.cols_in(by);

    // Group participating rows by (row attribute, 𝒜-subtuple); remember
    // the position of each group's first member so replacement is stable.
    struct Group {
        first_row: usize,
        rows: Vec<usize>,
    }
    let mut keys: std::collections::HashMap<Vec<Symbol>, usize> = std::collections::HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    let mut group_of_row: Vec<Option<usize>> = vec![None; r.height() + 1];

    for i in 1..=r.height() {
        if !on.contains(r.get(i, 0)) {
            continue;
        }
        let mut key = Vec::with_capacity(by_cols.len() + 1);
        key.push(r.get(i, 0));
        key.extend(by_cols.iter().map(|&j| r.get(i, j)));
        let g = match keys.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let g = *e.get();
                groups[g].rows.push(i);
                g
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                groups.push(Group {
                    first_row: i,
                    rows: vec![i],
                });
                *e.insert(groups.len() - 1)
            }
        };
        group_of_row[i] = Some(g);
    }

    // Componentwise join per group.
    let joined: Vec<Option<Vec<Symbol>>> = groups
        .iter()
        .map(|g| {
            let mut acc = r.storage_row(g.rows[0]).to_vec();
            for &i in &g.rows[1..] {
                for (a, &b) in acc.iter_mut().zip(r.storage_row(i)) {
                    match a.join(b) {
                        Some(j) => *a = j,
                        None => return None,
                    }
                }
            }
            Some(acc)
        })
        .collect();

    let mut t = Table::new(name, 0, r.width());
    for j in 1..=r.width() {
        t.set(0, j, r.col_attr(j));
    }
    t.append_rows(|rows| {
        for i in 1..=r.height() {
            match group_of_row[i] {
                None => rows.push_row(r.storage_row(i)),
                Some(g) => match &joined[g] {
                    // Merged group: emit the join at the first member's slot.
                    Some(join) => {
                        if groups[g].first_row == i {
                            rows.push_row(join);
                        }
                    }
                    // No common subsumer: retain the original rows.
                    None => rows.push_row(r.storage_row(i)),
                },
            }
        }
    });
    t
}

/// `T ← PURGE on ℬ by 𝒜 (R)` — the dual of clean-up (paper §3.4), merging
/// *columns* instead of rows: columns whose attribute lies in `on` and
/// that agree on their entries in the rows whose row attribute lies in
/// `by` are replaced by their join when it exists.
///
/// Implemented, per the paper's duality principle (§3.3), as
/// `transpose ∘ clean-up ∘ transpose`.
pub fn purge(r: &Table, on: &SymbolSet, by: &SymbolSet, name: Symbol) -> Table {
    let flipped = r.transpose();
    let cleaned = cleanup(&flipped, by, on, name);
    let mut t = cleaned.transpose();
    t.set_name(name);
    t
}

/// Classical (duplicate-free, scheme-respecting) union of two tables
/// representing union-compatible relations: tabular union, then purge to
/// eliminate the redundant column block, then clean-up to eliminate
/// duplicate rows (paper §3.4, last paragraph).
///
/// When both operands carry the same column-attribute sequence with
/// pairwise-distinct attributes, the pipeline collapses to a hash pass.
/// Purge then pairs each `A` column of `ρ` with the one `A` column of
/// `σ`; one side of every pair is ⊥ in every row, so each pair merges
/// without conflict and the purged table is `ρ`'s rows followed by
/// `σ`'s, row attributes included. Clean-up keyed by the whole scheme on
/// the full row scheme then keys each row by its whole storage row, and
/// a group of identical rows joins to that row at its first member's
/// slot. So the result is "concatenate, then drop repeated storage rows,
/// keeping the first" — for any row attributes and any ⊥ data cells —
/// computed in `O(|ρ| + |σ|)` without the width-doubled union or its
/// two transposes. Other operands take the staged pipeline.
pub fn classical_union(r: &Table, s: &Table, name: Symbol) -> Table {
    if !super::traditional::aligned_distinct_schemes(r, s) {
        return staged_classical_union(r, s, name);
    }
    let mut t = Table::new(name, 0, r.width());
    for j in 1..=r.width() {
        t.set(0, j, r.col_attr(j));
    }
    let rows = (1..=r.height())
        .map(|i| r.storage_row(i))
        .chain((1..=s.height()).map(|k| s.storage_row(k)));
    let mut seen: std::collections::HashSet<&[Symbol]> =
        std::collections::HashSet::with_capacity(r.height() + s.height());
    t.append_rows(|out| {
        for row in rows {
            if seen.insert(row) {
                out.push_row(row);
            }
        }
    });
    t
}

/// The §3.4 definition of classical union, stage by stage: the fallback
/// of [`classical_union`] and the oracle its hash pass is tested against.
fn staged_classical_union(r: &Table, s: &Table, name: Symbol) -> Table {
    let u = super::traditional::union(r, s, name);
    let purged = purge(&u, &u.scheme(), &SymbolSet::new(), name);
    cleanup(&purged, &purged.scheme(), &purged.row_scheme(), name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::restructure::group;
    use proptest::prelude::Strategy;
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

    /// The paper's §3.4 walk-through: clean-up by Part on ⊥ applied to the
    /// Figure 4 result groups the information per part into one row each;
    /// purge on Sold by Region then recovers the bold SalesInfo2 table.
    #[test]
    fn cleanup_then_purge_recovers_sales_info2() {
        let grouped = fixtures::figure4_grouped();
        let cleaned = cleanup(&grouped, &set(&["Part"]), &null_set(), nm("Sales"));
        // Region header row + one row per part.
        assert_eq!(cleaned.height(), 4);
        let purged = purge(&cleaned, &set(&["Sold"]), &set(&["Region"]), nm("Sales"));
        let info2 = fixtures::sales_info2();
        let expected = info2.table_str("Sales").unwrap();
        assert!(
            purged.equiv(expected),
            "purge mismatch:\n{purged}\nexpected:\n{expected}"
        );
    }

    #[test]
    fn cleanup_is_duplicate_elimination_on_relations() {
        let t = Table::relational("R", &["A", "B"], &[&["1", "2"], &["1", "2"], &["3", "4"]]);
        let c = cleanup(&t, &t.scheme(), &null_set(), nm("R"));
        assert_eq!(c.height(), 2);
    }

    #[test]
    fn cleanup_retains_groups_without_common_subsumer() {
        // Two rows agree on A but conflict on B: no join, keep both.
        let t = Table::from_grid(&[&["R", "A", "B"], &["_", "1", "2"], &["_", "1", "3"]]).unwrap();
        let c = cleanup(&t, &set(&["A"]), &null_set(), nm("R"));
        assert_eq!(c.height(), 2);
    }

    #[test]
    fn cleanup_joins_complementary_rows() {
        let t = Table::from_grid(&[
            &["R", "A", "B", "C"],
            &["_", "1", "2", "_"],
            &["_", "1", "_", "3"],
        ])
        .unwrap();
        let c = cleanup(&t, &set(&["A"]), &null_set(), nm("R"));
        assert_eq!(c.height(), 1);
        assert_eq!(
            c.data_row(1),
            &[Symbol::value("1"), Symbol::value("2"), Symbol::value("3")]
        );
    }

    #[test]
    fn cleanup_leaves_rows_outside_on_untouched() {
        let grouped = fixtures::figure4_grouped();
        let cleaned = cleanup(&grouped, &set(&["Part"]), &null_set(), nm("Sales"));
        // The Region header row (row attribute Region ∉ {⊥}) survives as-is.
        assert_eq!(cleaned.get(1, 0), nm("Region"));
        assert_eq!(cleaned.get(1, 2), Symbol::value("east"));
    }

    #[test]
    fn cleanup_never_merges_across_row_attributes() {
        let t = Table::from_grid(&[&["R", "A", "B"], &["x", "1", "2"], &["y", "1", "_"]]).unwrap();
        let c = cleanup(
            &t,
            &set(&["A"]),
            &SymbolSet::from_iter([nm("x"), nm("y")]),
            nm("R"),
        );
        assert_eq!(c.height(), 2);
    }

    #[test]
    fn cleanup_is_idempotent() {
        let grouped = group(
            &fixtures::sales_relation(),
            &set(&["Region"]),
            &set(&["Sold"]),
            nm("Sales"),
        );
        let once = cleanup(&grouped, &set(&["Part"]), &null_set(), nm("Sales"));
        let twice = cleanup(&once, &set(&["Part"]), &null_set(), nm("Sales"));
        assert_eq!(once, twice);
    }

    #[test]
    fn merged_row_subsumes_every_group_member() {
        let grouped = fixtures::figure4_grouped();
        let cleaned = cleanup(&grouped, &set(&["Part"]), &null_set(), nm("Sales"));
        for i in 1..=grouped.height() {
            if grouped.get(i, 0) != Symbol::Null {
                continue;
            }
            assert!(
                (1..=cleaned.height()).any(|k| grouped.row_subsumed_by(i, &cleaned, k)),
                "row {i} of the input is not subsumed in the output"
            );
        }
    }

    #[test]
    fn purge_merges_duplicate_columns_by_attribute() {
        // The union of two one-column tables has two A columns with
        // complementary ⊥ patterns; purging with empty `by` joins them.
        let a = Table::relational("R", &["A"], &[&["1"]]);
        let b = Table::relational("S", &["A"], &[&["2"]]);
        let u = crate::ops::traditional::union(&a, &b, nm("T"));
        assert_eq!(u.width(), 2);
        let p = purge(&u, &u.scheme(), &SymbolSet::new(), nm("T"));
        assert_eq!(p.width(), 1);
        assert_eq!(p.height(), 2);
    }

    #[test]
    fn classical_union_on_relations() {
        let a = Table::relational("R", &["A", "B"], &[&["1", "2"], &["3", "4"]]);
        let b = Table::relational("S", &["A", "B"], &[&["1", "2"], &["5", "6"]]);
        let u = classical_union(&a, &b, nm("T"));
        assert_eq!(u.width(), 2);
        assert_eq!(u.height(), 3);
        assert!(u.is_relational());
    }

    #[test]
    fn classical_union_keeps_row_attributes_and_first_occurrences() {
        let r =
            Table::from_grid(&[&["R", "A", "B"], &["r1", "1", "_"], &["r2", "3", "4"]]).unwrap();
        let s =
            Table::from_grid(&[&["S", "A", "B"], &["r2", "3", "4"], &["r1", "3", "4"]]).unwrap();
        let u = classical_union(&r, &s, nm("T"));
        let expected = Table::from_grid(&[
            &["T", "A", "B"],
            &["r1", "1", "_"],
            &["r2", "3", "4"],
            &["r1", "3", "4"],
        ])
        .unwrap();
        assert_eq!(u, expected);
        assert_eq!(u, staged_classical_union(&r, &s, nm("T")));
    }

    #[test]
    fn classical_union_is_commutative_up_to_permutation() {
        let a = Table::relational("R", &["A"], &[&["1"]]);
        let b = Table::relational("S", &["A"], &[&["2"]]);
        let u1 = classical_union(&a, &b, nm("T"));
        let u2 = classical_union(&b, &a, nm("T"));
        assert!(u1.equiv(&u2));
    }

    /// Operands for the classical-union oracle, as `(shape, ρ, σ)`.
    /// Shape 0 gives both operands one column-attribute sequence with
    /// distinct attributes (the hash pass); shape 1 permutes `σ`'s
    /// columns and shape 2 repeats an attribute in both (the staged
    /// fallback). Row attributes come from `{⊥, r1, r2, r3}` and cells
    /// from `{⊥, v1, v2, v3}`, so rows repeat within and across operands.
    fn arb_operands() -> impl Strategy<Value = (usize, Table, Table)> {
        use proptest::collection::vec;
        let row = || (0usize..4, vec(0usize..4, 4));
        (0usize..3, 0usize..5, vec(row(), 0..7), vec(row(), 0..7)).prop_map(
            |(shape, width, r_rows, s_rows)| {
                let width = if shape == 0 { width } else { width.max(2) };
                let mut attrs: Vec<Symbol> = (0..width).map(|j| nm(&format!("A{j}"))).collect();
                if shape == 2 {
                    attrs[1] = attrs[0];
                }
                let s_attrs = if shape == 1 {
                    let mut p = attrs.clone();
                    p.swap(0, 1);
                    p
                } else {
                    attrs.clone()
                };
                let sym = |k: usize, mk: fn(&str) -> Symbol, prefix: &str| {
                    if k == 0 {
                        Symbol::Null
                    } else {
                        mk(&format!("{prefix}{k}"))
                    }
                };
                let table = |name: &str, attrs: &[Symbol], rows: &[(usize, Vec<usize>)]| {
                    let mut t = Table::new(nm(name), rows.len(), attrs.len());
                    for (j, &a) in attrs.iter().enumerate() {
                        t.set(0, j + 1, a);
                    }
                    for (i, (attr, cells)) in rows.iter().enumerate() {
                        t.set(i + 1, 0, sym(*attr, Symbol::name, "r"));
                        for (j, &cell) in cells.iter().take(attrs.len()).enumerate() {
                            t.set(i + 1, j + 1, sym(cell, Symbol::value, "v"));
                        }
                    }
                    t
                };
                (
                    shape,
                    table("R", &attrs, &r_rows),
                    table("S", &s_attrs, &s_rows),
                )
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The hash pass is the §3.4 pipeline, cell for cell: exact
        /// equality with union → purge → clean-up, not equivalence.
        #[test]
        fn classical_union_matches_the_staged_definition((shape, r, s) in arb_operands()) {
            proptest::prop_assert_eq!(
                crate::ops::traditional::aligned_distinct_schemes(&r, &s),
                shape == 0,
                "shape {} must {} the hash pass",
                shape,
                if shape == 0 { "take" } else { "skip" }
            );
            proptest::prop_assert_eq!(
                classical_union(&r, &s, nm("T")),
                staged_classical_union(&r, &s, nm("T"))
            );
        }
    }
}
