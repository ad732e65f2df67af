//! Programs in the tabular algebra (paper §3.6): sequences of assignment
//! statements `T ← op(params)(args)` and `while R ≠ ∅ do P` loops.

use crate::param::{Item, Param};
use tabular_core::Symbol;

/// The operation of an assignment statement, with its operation-specific
/// parameters. Arguments (table-name parameters) live on the enclosing
/// [`Assignment`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// Tabular union (binary, §3.1).
    Union,
    /// Tabular difference (binary, §3.1).
    Difference,
    /// Intersection — derived from difference (§3.1).
    Intersect,
    /// Cartesian product (binary, §3.1).
    Product,
    /// `RENAME_{to←from}` (§3.1).
    Rename {
        /// Attribute to rename.
        from: Param,
        /// New attribute.
        to: Param,
    },
    /// `PROJECT_𝒜` (§3.1).
    Project {
        /// Attribute set to keep.
        attrs: Param,
    },
    /// `SELECT_{A=B}` with weak equality (§3.1).
    Select {
        /// Left attribute.
        a: Param,
        /// Right attribute.
        b: Param,
    },
    /// Constant selection `σ_{A=v}` — derived via switch (§3.3).
    SelectConst {
        /// Attribute.
        a: Param,
        /// Constant (entry parameter).
        v: Param,
    },
    /// `GROUP by 𝒜 on ℬ` (§3.2, Figure 4).
    Group {
        /// Grouping attributes.
        by: Param,
        /// Grouped attributes.
        on: Param,
    },
    /// `MERGE on ℬ by 𝒜` (§3.2, Figure 5).
    Merge {
        /// Merged data attributes.
        on: Param,
        /// Header-row attributes.
        by: Param,
    },
    /// `SPLIT on 𝒜` (§3.2).
    Split {
        /// Splitting attributes.
        on: Param,
    },
    /// `COLLAPSE by 𝒜` (§3.2) — consumes *all* tables matching the
    /// argument collectively.
    Collapse {
        /// Header-row attributes.
        by: Param,
    },
    /// `TRANSPOSE` (§3.3).
    Transpose,
    /// `SWITCH_V` (§3.3).
    Switch {
        /// Entry parameter designating the pivot occurrence.
        entry: Param,
    },
    /// `CLEAN-UP by 𝒜 on ℬ` (§3.4).
    CleanUp {
        /// Grouping column attributes.
        by: Param,
        /// Participating row attributes.
        on: Param,
    },
    /// `PURGE on ℬ by 𝒜` (§3.4) — dual of clean-up.
    Purge {
        /// Participating column attributes.
        on: Param,
        /// Grouping row attributes.
        by: Param,
    },
    /// `TUPLENEW_A` (§3.5).
    TupleNew {
        /// New column attribute.
        attr: Param,
    },
    /// `SETNEW_A` (§3.5) — exponential; guarded by `EvalLimits`.
    SetNew {
        /// New column attribute.
        attr: Param,
    },
    /// Fused `SELECT_{A=B} ∘ PRODUCT` — an internal hash-join operator the
    /// optimizer introduces for single-use scratch `s ← PRODUCT(R,S);
    /// T ← SELECT[A=B](s)` chains; semantically identical to the unfused
    /// pipeline but never materializes the cross product when the
    /// attributes resolve to one column on each operand.
    FusedJoin {
        /// Left attribute.
        a: Param,
        /// Right attribute.
        b: Param,
    },
    /// Fused `PURGE ∘ CLEAN-UP ∘ GROUP` (or the 2-op `CLEAN-UP ∘ GROUP`
    /// prefix when `purge` is `None`) — an internal restructuring operator
    /// the optimizer introduces for single-use scratch pivot chains;
    /// semantically identical to the staged pipeline but evaluated in one
    /// pass when the single-pass model applies, never materializing the
    /// quadratic grouped intermediate.
    /// The five parameter slots are boxed ([`RestructureChain`]) so this
    /// widest variant does not balloon every `OpKind` and `Statement`.
    FusedRestructure(Box<RestructureChain>),
    /// Copy under a new name — derived (`RENAME_{A←A}`).
    Copy,
    /// Classical union — derived (union ∘ purge ∘ clean-up, §3.4).
    ClassicalUnion,
}

/// The parameter block of an [`OpKind::FusedRestructure`] chain. Boxed
/// inside the variant: five `Param`s inline would make it by far the
/// widest `OpKind` and bloat every `Statement`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RestructureChain {
    /// `GROUP by` — grouping attributes.
    pub group_by: Param,
    /// `GROUP on` — grouped attributes.
    pub group_on: Param,
    /// `CLEAN-UP by` — grouping column attributes (over the
    /// intermediate).
    pub cleanup_by: Param,
    /// `CLEAN-UP on` — participating row attributes (over the
    /// intermediate).
    pub cleanup_on: Param,
    /// `PURGE (on, by)` closing the chain, if present.
    pub purge: Option<(Param, Param)>,
}

impl OpKind {
    /// Number of table arguments the operation takes.
    pub fn arity(&self) -> usize {
        match self {
            OpKind::Union
            | OpKind::Difference
            | OpKind::Intersect
            | OpKind::Product
            | OpKind::FusedJoin { .. }
            | OpKind::ClassicalUnion => 2,
            _ => 1,
        }
    }

    /// Operation name as written in the textual language.
    pub fn keyword(&self) -> &'static str {
        match self {
            OpKind::Union => "UNION",
            OpKind::Difference => "DIFFERENCE",
            OpKind::Intersect => "INTERSECT",
            OpKind::Product => "PRODUCT",
            OpKind::Rename { .. } => "RENAME",
            OpKind::Project { .. } => "PROJECT",
            OpKind::Select { .. } => "SELECT",
            OpKind::SelectConst { .. } => "SELECTCONST",
            OpKind::Group { .. } => "GROUP",
            OpKind::Merge { .. } => "MERGE",
            OpKind::Split { .. } => "SPLIT",
            OpKind::Collapse { .. } => "COLLAPSE",
            OpKind::Transpose => "TRANSPOSE",
            OpKind::Switch { .. } => "SWITCH",
            OpKind::CleanUp { .. } => "CLEANUP",
            OpKind::Purge { .. } => "PURGE",
            OpKind::TupleNew { .. } => "TUPLENEW",
            OpKind::SetNew { .. } => "SETNEW",
            OpKind::FusedJoin { .. } => "FUSEDJOIN",
            OpKind::FusedRestructure { .. } => "FUSEDRESTRUCTURE",
            OpKind::Copy => "COPY",
            OpKind::ClassicalUnion => "CLASSICALUNION",
        }
    }
}

/// An assignment statement `target ← op(args)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Assignment {
    /// Name (or bound wildcard) for the result tables.
    pub target: Param,
    /// The operation and its parameters.
    pub op: OpKind,
    /// Table-name parameters selecting the argument tables.
    pub args: Vec<Param>,
}

/// A statement: an assignment or a `while` loop.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Statement {
    /// `T ← op(...)(R, ...)`.
    Assign(Assignment),
    /// `while R ≠ ∅ do P od`: loop while some table named by the condition
    /// has at least one data row.
    While {
        /// Table-name condition.
        cond: Param,
        /// Loop body.
        body: Vec<Statement>,
    },
}

/// A tabular algebra program.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// The statements, executed in order.
    pub statements: Vec<Statement>,
}

impl Program {
    /// The empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Append an assignment statement (builder style).
    pub fn assign(mut self, target: Param, op: OpKind, args: Vec<Param>) -> Program {
        self.statements
            .push(Statement::Assign(Assignment { target, op, args }));
        self
    }

    /// Append a `while` loop (builder style).
    pub fn while_nonempty(mut self, cond: Param, body: Program) -> Program {
        self.statements.push(Statement::While {
            cond,
            body: body.statements,
        });
        self
    }

    /// Concatenate two programs.
    pub fn then(mut self, other: Program) -> Program {
        self.statements.extend(other.statements);
        self
    }

    /// Number of statements, counting nested `while` bodies.
    pub fn len(&self) -> usize {
        fn count(stmts: &[Statement]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Statement::Assign(_) => 1,
                    Statement::While { body, .. } => 1 + count(body),
                })
                .sum()
        }
        count(&self.statements)
    }

    /// True if the program has no statements.
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// The program's output names (§3.6: "the names of output tables
    /// should be specified as part of the program"): the literal target
    /// of every assignment, `while` bodies included, each once in order
    /// of first assignment. `None` when some target is not one literal
    /// symbol (a wildcard or a set-valued parameter), since the names it
    /// writes are then known only at run time.
    pub fn output_names(&self) -> Option<Vec<Symbol>> {
        fn collect(stmts: &[Statement], out: &mut Vec<Symbol>) -> Option<()> {
            for stmt in stmts {
                match stmt {
                    Statement::Assign(a) => {
                        let name =
                            match (a.target.positive.as_slice(), a.target.negative.as_slice()) {
                                ([Item::Sym(s)], []) => *s,
                                ([Item::Null], []) => Symbol::Null,
                                _ => return None,
                            };
                        if !out.contains(&name) {
                            out.push(name);
                        }
                    }
                    Statement::While { body, .. } => collect(body, out)?,
                }
            }
            Some(())
        }
        let mut out = Vec::new();
        collect(&self.statements, &mut out)?;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arities() {
        assert_eq!(OpKind::Union.arity(), 2);
        assert_eq!(OpKind::Transpose.arity(), 1);
        assert_eq!(
            OpKind::Group {
                by: Param::star(),
                on: Param::star()
            }
            .arity(),
            1
        );
        assert_eq!(OpKind::ClassicalUnion.arity(), 2);
    }

    #[test]
    fn builder_composes() {
        let p = Program::new()
            .assign(Param::name("T"), OpKind::Transpose, vec![Param::name("R")])
            .while_nonempty(
                Param::name("T"),
                Program::new().assign(
                    Param::name("T"),
                    OpKind::Difference,
                    vec![Param::name("T"), Param::name("T")],
                ),
            );
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn output_names_are_the_literal_targets() {
        let parse = |src| crate::parser::parse(src).unwrap();
        let nm = Symbol::name;
        assert_eq!(parse("").output_names(), Some(vec![]));
        // Every assignment counts once, in first-assignment order, and
        // loop bodies are walked.
        let p = parse(
            "T <- COPY(R)
             while T do
               U <- TRANSPOSE(T)
               T <- DIFFERENCE(T, T)
             end
             V <- COPY(U)",
        );
        assert_eq!(p.output_names(), Some(vec![nm("T"), nm("U"), nm("V")]));
        // A wildcard target, anywhere, leaves the outputs to run time.
        assert_eq!(parse("*1 <- TRANSPOSE(*1)").output_names(), None);
        assert_eq!(
            parse("T <- COPY(R)\nwhile T do *1 <- COPY(*1) end").output_names(),
            None
        );
        // So does a set-valued target.
        let set = Program::new().assign(
            Param::names(&["A", "B"]),
            OpKind::Copy,
            vec![Param::name("R")],
        );
        assert_eq!(set.output_names(), None);
        let minus = Program::new().assign(
            Param::name("A").minus(Param::name("B")),
            OpKind::Copy,
            vec![Param::name("R")],
        );
        assert_eq!(minus.output_names(), None);
    }
}
