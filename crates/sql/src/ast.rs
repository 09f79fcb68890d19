//! SQL abstract syntax: the expression and statement forms Cocoon emits.
//!
//! Each cleaning step in the paper compiles to one of a small family of SQL
//! shapes: `CASE WHEN` value maps (string outliers, DMVs, FD repairs,
//! numeric thresholds), `CAST` (column types), `REGEXP_REPLACE` (pattern
//! outliers), `SELECT DISTINCT` (duplication) and a `ROW_NUMBER()` window
//! filter (column uniqueness). This module models exactly that family.

use cocoon_table::{DataType, Value};

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical `NOT`.
    Not,
    /// Arithmetic negation.
    Neg,
    /// `IS NULL` postfix test.
    IsNull,
    /// `IS NOT NULL` postfix test.
    IsNotNull,
}

/// Binary operators, in SQL spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinaryOp {
    /// SQL token for this operator.
    pub fn sql(&self) -> &'static str {
        match self {
            BinaryOp::Eq => "=",
            BinaryOp::Ne => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        }
    }
}

/// A scalar SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(String),
    /// Literal value.
    Literal(Value),
    /// Unary operator application (prefix `NOT`/`-`, postfix null tests).
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// Binary operator application.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`.
    ///
    /// With an operand this is the "simple" form (`CASE col WHEN 'a' THEN
    /// 'b' …`), otherwise the "searched" form (`CASE WHEN cond THEN …`).
    Case {
        /// Simple-form scrutinee; `None` selects the searched form.
        operand: Option<Box<Expr>>,
        /// `WHEN … THEN …` pairs, tried in order.
        arms: Vec<(Expr, Expr)>,
        /// `ELSE` result; omitting it yields NULL when no arm matches.
        otherwise: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`; `lenient` renders as `TRY_CAST` and yields NULL
    /// instead of erroring on bad input.
    Cast {
        /// Value being converted.
        expr: Box<Expr>,
        /// Target type.
        ty: DataType,
        /// `true` renders as `TRY_CAST`: bad input becomes NULL, not an error.
        lenient: bool,
    },
    /// Scalar function call (uppercase canonical name).
    Func {
        /// Canonical (uppercase) function name.
        name: String,
        /// Positional arguments.
        args: Vec<Expr>,
    },
    /// `expr [NOT] IN (v1, v2, …)`.
    InList {
        /// Value being tested for membership.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// `true` spells `NOT IN`.
        negated: bool,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Literal value.
    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Literal(value.into())
    }

    /// The NULL literal.
    pub fn null() -> Expr {
        Expr::Literal(Value::Null)
    }

    /// `left op right`.
    pub fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    /// `left = right`.
    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinaryOp::Eq, left, right)
    }

    /// `left AND right`.
    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinaryOp::And, left, right)
    }

    /// `left OR right`.
    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinaryOp::Or, left, right)
    }

    /// `expr IS NULL`.
    pub fn is_null(expr: Expr) -> Expr {
        Expr::Unary { op: UnaryOp::IsNull, expr: Box::new(expr) }
    }

    /// Function call; the name is canonicalised to uppercase.
    pub fn func(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Func { name: name.to_ascii_uppercase(), args }
    }

    /// `CAST(expr AS ty)` — errors on unconvertible input.
    pub fn cast(expr: Expr, ty: DataType) -> Expr {
        Expr::Cast { expr: Box::new(expr), ty, lenient: false }
    }

    /// `TRY_CAST(expr AS ty)` — NULL on unconvertible input.
    pub fn try_cast(expr: Expr, ty: DataType) -> Expr {
        Expr::Cast { expr: Box::new(expr), ty, lenient: true }
    }

    /// Builds the workhorse of Cocoon cleaning: a simple-CASE value map
    /// `CASE col WHEN old THEN new … ELSE col END`.
    pub fn value_map(column: &str, mapping: &[(Value, Value)]) -> Expr {
        Expr::Case {
            operand: Some(Box::new(Expr::col(column))),
            arms: mapping
                .iter()
                .map(|(old, new)| (Expr::Literal(old.clone()), Expr::Literal(new.clone())))
                .collect(),
            otherwise: Some(Box::new(Expr::col(column))),
        }
    }

    /// Builds the FD repair of §2.1.6: a group-scoped searched CASE
    /// `CASE WHEN lhs = v AND rhs = old THEN new … ELSE rhs END`, one arm
    /// per `(v, old, new)`, so `old` becomes `new` only in rows whose
    /// `lhs` is `v`.
    pub fn pair_map(lhs: &str, rhs: &str, mapping: &[(Value, Value, Value)]) -> Expr {
        Expr::Case {
            operand: None,
            arms: mapping
                .iter()
                .map(|(group, old, new)| {
                    let condition = Expr::and(
                        Expr::eq(Expr::col(lhs), Expr::Literal(group.clone())),
                        Expr::eq(Expr::col(rhs), Expr::Literal(old.clone())),
                    );
                    (condition, Expr::Literal(new.clone()))
                })
                .collect(),
            otherwise: Some(Box::new(Expr::col(rhs))),
        }
    }

    /// Columns referenced anywhere in this expression.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column(name) = e {
                out.push(name.as_str());
            }
        });
        out
    }

    /// Pre-order traversal.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Expr)) {
        visit(self);
        match self {
            Expr::Column(_) | Expr::Literal(_) => {}
            Expr::Unary { expr, .. } => expr.walk(visit),
            Expr::Binary { left, right, .. } => {
                left.walk(visit);
                right.walk(visit);
            }
            Expr::Case { operand, arms, otherwise } => {
                if let Some(op) = operand {
                    op.walk(visit);
                }
                for (when, then) in arms {
                    when.walk(visit);
                    then.walk(visit);
                }
                if let Some(o) = otherwise {
                    o.walk(visit);
                }
            }
            Expr::Cast { expr, .. } => expr.walk(visit),
            Expr::Func { args, .. } => {
                for a in args {
                    a.walk(visit);
                }
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(visit);
                for item in list {
                    item.walk(visit);
                }
            }
        }
    }
}

/// Sort direction for window ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending (`ASC`).
    Asc,
    /// Descending (`DESC`).
    Desc,
}

/// `ROW_NUMBER() OVER (PARTITION BY … ORDER BY …) <= keep` filter — the
/// dedup window of §2.1.8.
#[derive(Debug, Clone, PartialEq)]
pub struct RowNumberFilter {
    /// Duplicate-group key: rows agreeing on these expressions compete.
    pub partition_by: Vec<Expr>,
    /// Ranking within each partition — the first `keep` rows survive.
    pub order_by: Vec<(Expr, SortOrder)>,
    /// Rows kept per partition (1 = keep best row only).
    pub keep: usize,
}

/// One output column of a `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `*` — every input column unchanged.
    Star,
    /// An expression with an optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Output column name; defaults to the rendered expression.
        alias: Option<String>,
    },
}

impl Projection {
    /// `expr AS alias`.
    pub fn aliased(expr: Expr, alias: impl Into<String>) -> Projection {
        Projection::Expr { expr, alias: Some(alias.into()) }
    }
}

/// A single-table `SELECT` statement (the only statement Cocoon emits).
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `SELECT DISTINCT` — the paper's table-level dedup step.
    pub distinct: bool,
    /// Output columns, in order.
    pub projections: Vec<Projection>,
    /// Source table name (documentation only; the executor binds a table).
    pub from: String,
    /// Row filter (`WHERE`).
    pub where_clause: Option<Expr>,
    /// Post-window filter (`QUALIFY`), used for keyed dedup.
    pub qualify: Option<RowNumberFilter>,
    /// Human-readable reasoning rendered as a leading SQL comment
    /// (the paper's Figure 5 "well-commented SQL queries").
    pub comment: Option<String>,
}

impl Select {
    /// `SELECT * FROM name`.
    pub fn star(from: impl Into<String>) -> Select {
        Select {
            distinct: false,
            projections: vec![Projection::Star],
            from: from.into(),
            where_clause: None,
            qualify: None,
            comment: None,
        }
    }

    /// Attaches the human-readable reasoning comment.
    pub fn with_comment(mut self, comment: impl Into<String>) -> Select {
        self.comment = Some(comment.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_map_shape() {
        let map = Expr::value_map("lang", &[(Value::from("English"), Value::from("eng"))]);
        match &map {
            Expr::Case { operand: Some(op), arms, otherwise: Some(other) } => {
                assert_eq!(**op, Expr::col("lang"));
                assert_eq!(arms.len(), 1);
                assert_eq!(**other, Expr::col("lang"));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn pair_map_shape() {
        let map = Expr::pair_map(
            "zip",
            "city",
            &[(Value::from("35000"), Value::from("birminghxm"), Value::from("birmingham"))],
        );
        let arm = (
            Expr::and(
                Expr::eq(Expr::col("zip"), Expr::lit("35000")),
                Expr::eq(Expr::col("city"), Expr::lit("birminghxm")),
            ),
            Expr::lit("birmingham"),
        );
        let expected = Expr::Case {
            operand: None,
            arms: vec![arm],
            otherwise: Some(Box::new(Expr::col("city"))),
        };
        assert_eq!(map, expected);
    }

    #[test]
    fn referenced_columns_collects() {
        let e = Expr::and(Expr::eq(Expr::col("a"), Expr::lit(1i64)), Expr::is_null(Expr::col("b")));
        let mut cols = e.referenced_columns();
        cols.sort_unstable();
        assert_eq!(cols, vec!["a", "b"]);
    }

    #[test]
    fn builder_helpers() {
        let e = Expr::func("trim", vec![Expr::col("x")]);
        match &e {
            Expr::Func { name, args } => {
                assert_eq!(name, "TRIM");
                assert_eq!(args.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(Expr::null(), Expr::Literal(Value::Null));
    }

    #[test]
    fn select_star_defaults() {
        let s = Select::star("t").with_comment("why");
        assert!(!s.distinct);
        assert_eq!(s.projections, vec![Projection::Star]);
        assert_eq!(s.comment.as_deref(), Some("why"));
    }

    #[test]
    fn operator_spellings() {
        assert_eq!(BinaryOp::Ne.sql(), "<>");
        assert_eq!(BinaryOp::And.sql(), "AND");
    }
}
