//! Expression evaluation against table rows.
//!
//! Implements SQL-style three-valued logic: comparisons involving NULL yield
//! NULL, `AND`/`OR` follow Kleene logic, and a `WHERE` keeps a row only when
//! its predicate is exactly TRUE.

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::error::{Result, SqlError};
use crate::functions;
use cocoon_table::{Column, DataType, Schema, Table, Value};
use std::collections::{HashMap, HashSet};

/// A row-binding context for expression evaluation.
pub struct RowContext<'a> {
    table: &'a Table,
    row: usize,
}

impl<'a> RowContext<'a> {
    /// Binds evaluation to `row` of `table`.
    pub fn new(table: &'a Table, row: usize) -> Self {
        RowContext { table, row }
    }

    fn column_value(&self, name: &str) -> Result<Value> {
        let idx = self
            .table
            .schema()
            .index_of(name)
            .map_err(|_| SqlError::UnknownColumn(name.to_string()))?;
        Ok(self.table.cell(self.row, idx)?.clone())
    }
}

/// Evaluates `expr` for one row.
pub fn eval(expr: &Expr, ctx: &RowContext<'_>) -> Result<Value> {
    match expr {
        Expr::Column(name) => ctx.column_value(name),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Unary { op, expr } => {
            let v = eval(expr, ctx)?;
            eval_unary(*op, v)
        }
        Expr::Binary { op, left, right } => {
            // Short-circuit logical operators must respect 3VL.
            match op {
                BinaryOp::And | BinaryOp::Or => {
                    let l = eval(left, ctx)?;
                    let r = eval(right, ctx)?;
                    Ok(eval_logic(*op, l, r))
                }
                _ => {
                    let l = eval(left, ctx)?;
                    let r = eval(right, ctx)?;
                    eval_binary(*op, l, r)
                }
            }
        }
        Expr::Case { operand, arms, otherwise } => {
            match operand {
                Some(op) => {
                    let subject = eval(op, ctx)?;
                    for (when, then) in arms {
                        let candidate = eval(when, ctx)?;
                        if subject.sql_eq(&candidate) {
                            return eval(then, ctx);
                        }
                    }
                }
                None => {
                    for (when, then) in arms {
                        if matches!(eval(when, ctx)?, Value::Bool(true)) {
                            return eval(then, ctx);
                        }
                    }
                }
            }
            match otherwise {
                Some(e) => eval(e, ctx),
                None => Ok(Value::Null),
            }
        }
        Expr::Cast { expr, ty, lenient } => {
            let v = eval(expr, ctx)?;
            match v.cast(*ty) {
                Ok(cast) => Ok(cast),
                Err(_) if *lenient => Ok(Value::Null),
                Err(e) => Err(SqlError::Type {
                    context: format!("CAST to {}", ty.sql_name()),
                    value: e.to_string(),
                }),
            }
        }
        Expr::Func { name, args } => {
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                values.push(eval(a, ctx)?);
            }
            functions::call(name, &values)
        }
        Expr::InList { expr, list, negated } => {
            let subject = eval(expr, ctx)?;
            if subject.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let candidate = eval(item, ctx)?;
                if candidate.is_null() {
                    saw_null = true;
                } else if subject == candidate {
                    return Ok(Value::Bool(!negated));
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
    }
}

fn eval_unary(op: UnaryOp, v: Value) -> Result<Value> {
    Ok(match op {
        UnaryOp::IsNull => Value::Bool(v.is_null()),
        UnaryOp::IsNotNull => Value::Bool(!v.is_null()),
        UnaryOp::Not => match v {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(!b),
            other => return Err(SqlError::Type { context: "NOT".into(), value: other.render() }),
        },
        UnaryOp::Neg => match v {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(-i),
            Value::Float(f) => Value::Float(-f),
            other => {
                return Err(SqlError::Type { context: "negation".into(), value: other.render() })
            }
        },
    })
}

fn eval_logic(op: BinaryOp, l: Value, r: Value) -> Value {
    let lb = l.as_bool();
    let rb = r.as_bool();
    match op {
        BinaryOp::And => match (lb, rb, l.is_null(), r.is_null()) {
            (Some(false), _, _, _) | (_, Some(false), _, _) => Value::Bool(false),
            (Some(true), Some(true), _, _) => Value::Bool(true),
            _ => Value::Null,
        },
        BinaryOp::Or => match (lb, rb) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        _ => unreachable!("eval_logic only handles AND/OR"),
    }
}

fn eval_binary(op: BinaryOp, l: Value, r: Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        BinaryOp::Eq => Ok(Value::Bool(l == r)),
        BinaryOp::Ne => Ok(Value::Bool(l != r)),
        BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
            let ord = compare(&l, &r)?;
            Ok(Value::Bool(match op {
                BinaryOp::Lt => ord.is_lt(),
                BinaryOp::Le => ord.is_le(),
                BinaryOp::Gt => ord.is_gt(),
                _ => ord.is_ge(),
            }))
        }
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div => arithmetic(op, &l, &r),
        BinaryOp::And | BinaryOp::Or => unreachable!("handled by eval_logic"),
    }
}

fn compare(l: &Value, r: &Value) -> Result<std::cmp::Ordering> {
    // Numeric cross-type comparison, otherwise same-type ordering.
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => a
            .partial_cmp(&b)
            .ok_or(SqlError::Type { context: "comparison".into(), value: "NaN".into() }),
        _ => {
            if l.data_type() == r.data_type() {
                Ok(l.cmp(r))
            } else {
                Err(SqlError::Type {
                    context: "comparison".into(),
                    value: format!("{} vs {}", l.render(), r.render()),
                })
            }
        }
    }
}

fn arithmetic(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            BinaryOp::Add => Ok(Value::Int(a.wrapping_add(*b))),
            BinaryOp::Sub => Ok(Value::Int(a.wrapping_sub(*b))),
            BinaryOp::Mul => Ok(Value::Int(a.wrapping_mul(*b))),
            BinaryOp::Div => {
                if *b == 0 {
                    Err(SqlError::DivisionByZero)
                } else {
                    Ok(Value::Int(a / b))
                }
            }
            _ => unreachable!(),
        },
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(SqlError::Type {
                        context: "arithmetic".into(),
                        value: format!("{} {} {}", l.render(), op.sql(), r.render()),
                    })
                }
            };
            Ok(Value::Float(match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Div => {
                    if b == 0.0 {
                        return Err(SqlError::DivisionByZero);
                    }
                    a / b
                }
                _ => unreachable!(),
            }))
        }
    }
}

/// The set of rows a columnar operator works over: either every row of the
/// table (the common case, which enables zero-copy column pass-through) or
/// an explicit ordered subset (the survivors of `WHERE` / `QUALIFY`).
#[derive(Debug, Clone)]
pub enum Selection<'a> {
    /// All rows of a table with this height.
    All(usize),
    /// An explicit subset, in output order.
    Rows(&'a [usize]),
}

impl Selection<'_> {
    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match self {
            Selection::All(n) => *n,
            Selection::Rows(rows) => rows.len(),
        }
    }

    /// True when no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the selection covers every row in original order, so a
    /// pass-through projection can share the column instead of gathering.
    pub fn is_all(&self) -> bool {
        matches!(self, Selection::All(_))
    }

    /// Iterates the selected row indices in output order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (range, rows) = match self {
            Selection::All(n) => (0..*n, [].as_slice()),
            Selection::Rows(rows) => (0..0, *rows),
        };
        range.chain(rows.iter().copied())
    }
}

/// Evaluates `expr` column-at-a-time over the selected rows of `table`.
///
/// Literals, column references, casts, unary and binary operators
/// (comparison, arithmetic, `AND`/`OR`), function calls, and every `CASE`
/// shape are computed vectorised. Two `CASE` shapes compile to one hash
/// probe per row:
///
/// - literal value maps (`CASE col WHEN 'a' THEN 'b' … ELSE …`, the
///   workhorse of Cocoon cleaning, built by [`Expr::value_map`]);
/// - pair-key maps (`CASE WHEN a = v AND b = 'old' THEN 'new' … ELSE b
///   END`, the FD repair built by [`Expr::pair_map`]), probed on the
///   row's `(a, b)` cells.
///
/// Every other `CASE`, searched or simple, runs arm by arm. Only `IN`
/// lists with non-literal items still fall back to the row-wise [`eval`],
/// which also serves as the semantic oracle for the differential tests.
///
/// Fast paths preserve row-wise *success* semantics exactly, and error
/// exactly when the row-wise path would — though when several rows or
/// nested subexpressions fail, expression-at-a-time evaluation may surface
/// a different one of those errors than the strictly row-ordered oracle.
/// Sequential-`CASE` laziness is preserved by evaluating each arm only
/// over the rows no earlier arm matched (see `eval_case_lazy`).
pub fn eval_column(expr: &Expr, table: &Table, sel: &Selection<'_>) -> Result<Column> {
    match expr {
        Expr::Literal(v) => Ok(Column::new(vec![v.clone(); sel.len()])),
        Expr::Column(name) => {
            let values = column_cells(name, table)?;
            Ok(match sel {
                Selection::All(_) => Column::new(values.to_vec()),
                Selection::Rows(rows) => rows.iter().map(|&r| values[r].clone()).collect(),
            })
        }
        Expr::Cast { expr, ty, lenient } => {
            let input = eval_column(expr, table, sel)?;
            let mut out = Vec::with_capacity(input.len());
            for v in input.values() {
                match v.cast(*ty) {
                    Ok(cast) => out.push(cast),
                    Err(_) if *lenient => out.push(Value::Null),
                    Err(e) => {
                        return Err(SqlError::Type {
                            context: format!("CAST to {}", ty.sql_name()),
                            value: e.to_string(),
                        })
                    }
                }
            }
            Ok(Column::new(out))
        }
        Expr::Unary { op, expr } => {
            // Unary operators are value-wise: evaluate the operand column
            // once, then map. `IS [NOT] NULL` never errors; `NOT`/negation
            // error on exactly the rows the row-wise path would reject.
            let input = eval_column(expr, table, sel)?;
            input.into_values().into_iter().map(|v| eval_unary(*op, v)).collect()
        }
        Expr::Binary { op, left, right } => {
            // Binary operators are pairwise over their operand columns. The
            // row-wise evaluator computes both operands unconditionally
            // (`AND`/`OR` included — 3VL needs both sides), so evaluating
            // each side column-at-a-time preserves success/error semantics;
            // only *which* of several row errors surfaces may differ, as
            // the eval_column contract already allows.
            let lhs = eval_column(left, table, sel)?.into_values();
            let rhs = eval_column(right, table, sel)?.into_values();
            let zipped = lhs.into_iter().zip(rhs);
            match op {
                BinaryOp::And | BinaryOp::Or => {
                    Ok(zipped.map(|(l, r)| eval_logic(*op, l, r)).collect())
                }
                _ => zipped.map(|(l, r)| eval_binary(*op, l, r)).collect(),
            }
        }
        Expr::Case { operand: Some(operand), arms, otherwise }
            if arms
                .iter()
                .all(|(w, t)| matches!(w, Expr::Literal(_)) && matches!(t, Expr::Literal(_)))
                && fallback_is_safe(otherwise.as_deref(), &[operand]) =>
        {
            eval_value_map(operand, arms, otherwise.as_deref(), table, sel)
        }
        Expr::InList { expr, list, negated }
            if list.iter().all(|item| matches!(item, Expr::Literal(_))) =>
        {
            // Literal-only `IN` lists (the shape every compiled Cocoon
            // filter emits): one hash probe per row instead of a linear
            // scan of the list. `Value`'s `Hash`/`Eq` agree with the
            // row-wise `==` (Int/Float cross-type included); NULL literals
            // never enter the set — under 3VL they only turn a miss into
            // NULL, exactly as the row-wise scan does.
            let mut set: HashSet<&Value> = HashSet::with_capacity(list.len());
            let mut saw_null = false;
            for item in list {
                let Expr::Literal(v) = item else { unreachable!("guarded by the match arm") };
                if v.is_null() {
                    saw_null = true;
                } else {
                    set.insert(v);
                }
            }
            let subject = eval_column(expr, table, sel)?;
            Ok(subject
                .into_values()
                .into_iter()
                .map(|v| {
                    if v.is_null() {
                        Value::Null
                    } else if set.contains(&v) {
                        Value::Bool(!negated)
                    } else if saw_null {
                        Value::Null
                    } else {
                        Value::Bool(*negated)
                    }
                })
                .collect())
        }
        Expr::Case { operand: None, arms, otherwise } => {
            match PairKeyMap::recognise(arms, otherwise.as_deref()) {
                Some(map) => map.eval(table, sel),
                None => eval_case_lazy(None, arms, otherwise.as_deref(), table, sel),
            }
        }
        Expr::Case { operand, arms, otherwise } => {
            eval_case_lazy(operand.as_deref(), arms, otherwise.as_deref(), table, sel)
        }
        Expr::Func { name, args } => {
            // Row-wise `Func` evaluates every argument unconditionally, so
            // computing each argument column-at-a-time preserves
            // success/error semantics; the scalar function itself is then
            // applied per row (the functions are cheap — the win is the
            // vectorised argument evaluation underneath).
            let cols =
                args.iter().map(|a| eval_column(a, table, sel)).collect::<Result<Vec<Column>>>()?;
            let mut out = Vec::with_capacity(sel.len());
            let mut row_args = Vec::with_capacity(cols.len());
            for i in 0..sel.len() {
                row_args.clear();
                row_args.extend(cols.iter().map(|c| c.values()[i].clone()));
                out.push(functions::call(name, &row_args)?);
            }
            Ok(Column::new(out))
        }
        _ => sel.iter().map(|row| eval(expr, &RowContext::new(table, row))).collect(),
    }
}

/// Vectorised general `CASE`, preserving sequential laziness: each arm's
/// `WHEN` is evaluated only over the rows no earlier arm matched, each
/// `THEN` only over the rows its arm matched, and `ELSE` only over the
/// rows left after every arm — exactly the rows on which the row-wise
/// evaluator would touch those subexpressions, so an error in a branch a
/// row never reaches cannot leak into that row's result.
fn eval_case_lazy(
    operand: Option<&Expr>,
    arms: &[(Expr, Expr)],
    otherwise: Option<&Expr>,
    table: &Table,
    sel: &Selection<'_>,
) -> Result<Column> {
    let n = sel.len();
    let mut out: Vec<Value> = vec![Value::Null; n];
    // Unmatched rows, paired with their slots in the output column. Both
    // shrink together as arms claim rows.
    let mut rows: Vec<usize> = sel.iter().collect();
    let mut slots: Vec<usize> = (0..n).collect();
    // Simple CASE evaluates its subject first on every row, match or not.
    let subject = match operand {
        Some(op) => Some(eval_column(op, table, sel)?),
        None => None,
    };
    for (when, then) in arms {
        if rows.is_empty() {
            break;
        }
        let cond = eval_column(when, table, &Selection::Rows(&rows))?;
        let cond = cond.values();
        let (mut hit_rows, mut hit_slots) = (Vec::new(), Vec::new());
        let (mut miss_rows, mut miss_slots) = (Vec::new(), Vec::new());
        for (i, (&row, &slot)) in rows.iter().zip(&slots).enumerate() {
            let matched = match &subject {
                Some(subject) => subject.values()[slot].sql_eq(&cond[i]),
                None => matches!(cond[i], Value::Bool(true)),
            };
            if matched {
                hit_rows.push(row);
                hit_slots.push(slot);
            } else {
                miss_rows.push(row);
                miss_slots.push(slot);
            }
        }
        if !hit_rows.is_empty() {
            let then_col = eval_column(then, table, &Selection::Rows(&hit_rows))?;
            for (v, slot) in then_col.into_values().into_iter().zip(hit_slots) {
                out[slot] = v;
            }
        }
        rows = miss_rows;
        slots = miss_slots;
    }
    if let Some(otherwise) = otherwise {
        if !rows.is_empty() {
            let other = eval_column(otherwise, table, &Selection::Rows(&rows))?;
            for (v, slot) in other.into_values().into_iter().zip(slots) {
                out[slot] = v;
            }
        }
    }
    Ok(Column::new(out))
}

/// The `CASE` hash-probe fast paths evaluate `otherwise` for *every* row,
/// while sequential CASE only reaches it on rows no arm matched. That is
/// only safe when `otherwise` cannot raise an evaluation error: absent, a
/// literal, or one of the `evaluated` expressions the row-wise path already
/// computes on every row — the simple-CASE operand (the subject), or the
/// two columns of a pair-key map (its first arm reads both). Anything else
/// takes the lazy path.
fn fallback_is_safe(otherwise: Option<&Expr>, evaluated: &[&Expr]) -> bool {
    match otherwise {
        None | Some(Expr::Literal(_)) => true,
        Some(o) => evaluated.contains(&o),
    }
}

/// The cells of column `name`, borrowed from `table`.
fn column_cells<'t>(name: &str, table: &'t Table) -> Result<&'t [Value]> {
    let idx =
        table.schema().index_of(name).map_err(|_| SqlError::UnknownColumn(name.to_string()))?;
    Ok(table.column(idx)?.values())
}

/// Vectorised literal value map: one hash lookup per cell instead of a
/// linear scan of the arms. `Value`'s `Hash`/`Eq` agree with `sql_eq` for
/// non-null values (Int/Float cross-type included), and a NULL subject
/// matches no arm under `sql_eq` — so routing NULL subjects to the
/// `otherwise` branch reproduces simple-`CASE` semantics exactly.
fn eval_value_map(
    operand: &Expr,
    arms: &[(Expr, Expr)],
    otherwise: Option<&Expr>,
    table: &Table,
    sel: &Selection<'_>,
) -> Result<Column> {
    let mut map: HashMap<&Value, &Value> = HashMap::with_capacity(arms.len());
    for (when, then) in arms {
        let (Expr::Literal(w), Expr::Literal(t)) = (when, then) else {
            unreachable!("guarded by the caller");
        };
        if !w.is_null() {
            // First arm wins on duplicate keys, as in sequential CASE.
            map.entry(w).or_insert(t);
        }
    }
    let subject = eval_column(operand, table, sel)?;
    // The common cleaning shape ends `ELSE <operand>`; reuse the already
    // materialised subject column instead of evaluating it again.
    let reuse_subject = otherwise == Some(operand);
    let fallback: Option<Column> = match otherwise {
        Some(o) if !reuse_subject => Some(eval_column(o, table, sel)?),
        _ => None,
    };
    let out = subject
        .into_values()
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            if !v.is_null() {
                if let Some(mapped) = map.get(&v) {
                    return (*mapped).clone();
                }
            }
            if reuse_subject {
                v
            } else {
                fallback.as_ref().map_or(Value::Null, |f| f.values()[i].clone())
            }
        })
        .collect();
    Ok(out)
}

/// A searched `CASE` whose every arm is `a = v AND b = old THEN new` over
/// one column pair `(a, b)`, with literal `v`, `old` and `new` — the FD
/// repair [`Expr::pair_map`] builds — compiled to a lookup table keyed on
/// `(v, old)`. A row matches an arm exactly when its non-null `(a, b)`
/// cells equal the arm's key, so the first arm it matches is the one the
/// table holds for its cells: one probe per row instead of one pass over
/// the unmatched rows per arm. The rules are [`eval_value_map`]'s, per
/// component: `Value`'s `Hash`/`Eq` agree with `=` on non-null values,
/// the first arm wins on duplicate keys, and an arm with a NULL key
/// literal never fires, so it is left out. With no NULL in any key, a row
/// with a NULL key cell finds no arm and goes to `otherwise`.
struct PairKeyMap<'e> {
    lhs: &'e str,
    rhs: &'e str,
    map: HashMap<(&'e Value, &'e Value), &'e Value>,
    otherwise: Option<&'e Expr>,
}

impl<'e> PairKeyMap<'e> {
    /// The pair-key map of a searched `CASE`, or `None` when some arm
    /// strays from the shape (another column pair, `lit = col`, a
    /// non-literal `THEN`), there are no arms, or `otherwise` could error
    /// (see [`fallback_is_safe`]).
    fn recognise(arms: &'e [(Expr, Expr)], otherwise: Option<&'e Expr>) -> Option<Self> {
        let mut columns: Option<(&Expr, &Expr)> = None;
        let mut map = HashMap::with_capacity(arms.len());
        for (when, then) in arms {
            let Expr::Binary { op: BinaryOp::And, left, right } = when else { return None };
            let ((lhs, group), (rhs, old)) = (column_eq_literal(left)?, column_eq_literal(right)?);
            let Expr::Literal(new) = then else { return None };
            if *columns.get_or_insert((lhs, rhs)) != (lhs, rhs) {
                return None;
            }
            if !group.is_null() && !old.is_null() {
                map.entry((group, old)).or_insert(new);
            }
        }
        let (lhs, rhs) = columns?;
        if !fallback_is_safe(otherwise, &[lhs, rhs]) {
            return None;
        }
        let (Expr::Column(lhs), Expr::Column(rhs)) = (lhs, rhs) else { return None };
        Some(PairKeyMap { lhs, rhs, map, otherwise })
    }

    fn eval(&self, table: &Table, sel: &Selection<'_>) -> Result<Column> {
        // With no rows, no arm is evaluated and no column is read.
        if sel.is_empty() {
            return Ok(Column::new(Vec::new()));
        }
        let (lhs, rhs) = (column_cells(self.lhs, table)?, column_cells(self.rhs, table)?);
        let mut out = match self.otherwise {
            Some(o) => eval_column(o, table, sel)?.into_values(),
            None => vec![Value::Null; sel.len()],
        };
        for (slot, row) in sel.iter().enumerate() {
            if let Some(new) = self.map.get(&(&lhs[row], &rhs[row])) {
                out[slot] = (*new).clone();
            }
        }
        Ok(Column::new(out))
    }
}

/// `column = literal`, as `(column, literal)`.
fn column_eq_literal(expr: &Expr) -> Option<(&Expr, &Value)> {
    let Expr::Binary { op: BinaryOp::Eq, left, right } = expr else { return None };
    match (&**left, &**right) {
        (column @ Expr::Column(_), Expr::Literal(v)) => Some((column, v)),
        _ => None,
    }
}

/// Infers the output type of an expression against a schema (used to type
/// the columns of executed `SELECT`s).
pub fn infer_expr_type(expr: &Expr, schema: &Schema) -> DataType {
    match expr {
        Expr::Column(name) => {
            schema.field_by_name(name).map(|f| f.data_type()).unwrap_or(DataType::Text)
        }
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Text),
        Expr::Cast { ty, .. } => *ty,
        Expr::Unary { op, .. } => match op {
            UnaryOp::IsNull | UnaryOp::IsNotNull | UnaryOp::Not => DataType::Bool,
            UnaryOp::Neg => DataType::Float,
        },
        Expr::Binary { op, left, .. } => match op {
            BinaryOp::And
            | BinaryOp::Or
            | BinaryOp::Eq
            | BinaryOp::Ne
            | BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge => DataType::Bool,
            _ => infer_expr_type(left, schema),
        },
        Expr::Case { arms, otherwise, .. } => {
            // Literal NULL branches carry no type information; the first
            // typed branch decides (e.g. `CASE WHEN … THEN NULL ELSE col
            // END` keeps col's type).
            let mut branches: Vec<&Expr> = arms.iter().map(|(_, then)| then).collect();
            if let Some(o) = otherwise {
                branches.push(o);
            }
            branches
                .iter()
                .find(|b| !matches!(b, Expr::Literal(Value::Null)))
                .map(|b| infer_expr_type(b, schema))
                .unwrap_or(DataType::Text)
        }
        Expr::Func { name, .. } => match name.as_str() {
            "LENGTH" => DataType::Int,
            "REGEXP_MATCHES" | "REGEXP_FULL_MATCH" => DataType::Bool,
            "ABS" | "ROUND" => DataType::Float,
            _ => DataType::Text,
        },
        Expr::InList { .. } => DataType::Bool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let rows: Vec<Vec<String>> =
            vec![vec!["1".into(), "eng".into()], vec!["2".into(), "English".into()]];
        let mut t = Table::from_text_rows(&["id", "lang"], &rows).unwrap();
        t.set_cell(1, 0, Value::Int(2)).unwrap();
        t
    }

    fn eval_on(expr: &Expr, row: usize) -> Result<Value> {
        let t = table();
        let ctx = RowContext::new(&t, row);
        eval(expr, &ctx)
    }

    #[test]
    fn column_and_literal() {
        assert_eq!(eval_on(&Expr::col("lang"), 0).unwrap(), Value::from("eng"));
        assert_eq!(eval_on(&Expr::lit(5i64), 0).unwrap(), Value::Int(5));
        assert!(matches!(eval_on(&Expr::col("missing"), 0), Err(SqlError::UnknownColumn(_))));
    }

    #[test]
    fn case_value_map() {
        let map = Expr::value_map("lang", &[(Value::from("English"), Value::from("eng"))]);
        assert_eq!(eval_on(&map, 0).unwrap(), Value::from("eng"));
        assert_eq!(eval_on(&map, 1).unwrap(), Value::from("eng"));
    }

    #[test]
    fn searched_case_falls_through() {
        let e = Expr::Case {
            operand: None,
            arms: vec![(Expr::eq(Expr::col("lang"), Expr::lit("zzz")), Expr::lit("matched"))],
            otherwise: None,
        };
        assert_eq!(eval_on(&e, 0).unwrap(), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        let null = Expr::null();
        let truth = Expr::lit(true);
        let falsity = Expr::lit(false);
        assert_eq!(
            eval_on(&Expr::and(null.clone(), falsity.clone()), 0).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(eval_on(&Expr::and(null.clone(), truth.clone()), 0).unwrap(), Value::Null);
        assert_eq!(eval_on(&Expr::or(null.clone(), truth), 0).unwrap(), Value::Bool(true));
        assert_eq!(eval_on(&Expr::or(null.clone(), falsity), 0).unwrap(), Value::Null);
        // NULL = NULL is NULL, not true.
        assert_eq!(eval_on(&Expr::eq(null.clone(), null), 0).unwrap(), Value::Null);
    }

    #[test]
    fn comparisons_and_arithmetic() {
        let e = Expr::binary(BinaryOp::Lt, Expr::lit(1i64), Expr::lit(2i64));
        assert_eq!(eval_on(&e, 0).unwrap(), Value::Bool(true));
        let e = Expr::binary(BinaryOp::Add, Expr::lit(1i64), Expr::lit(2i64));
        assert_eq!(eval_on(&e, 0).unwrap(), Value::Int(3));
        let e = Expr::binary(BinaryOp::Div, Expr::lit(1i64), Expr::lit(0i64));
        assert!(matches!(eval_on(&e, 0), Err(SqlError::DivisionByZero)));
        let e = Expr::binary(BinaryOp::Mul, Expr::lit(2.5), Expr::lit(2i64));
        assert_eq!(eval_on(&e, 0).unwrap(), Value::Float(5.0));
    }

    #[test]
    fn cast_strict_vs_lenient() {
        let strict = Expr::cast(Expr::col("lang"), DataType::Int);
        assert!(eval_on(&strict, 0).is_err());
        let lenient = Expr::try_cast(Expr::col("lang"), DataType::Int);
        assert_eq!(eval_on(&lenient, 0).unwrap(), Value::Null);
        let ok = Expr::cast(Expr::col("id"), DataType::Int);
        assert_eq!(eval_on(&ok, 0).unwrap(), Value::Int(1));
    }

    #[test]
    fn in_list_semantics() {
        let e = Expr::InList {
            expr: Box::new(Expr::col("lang")),
            list: vec![Expr::lit("eng"), Expr::lit("fre")],
            negated: false,
        };
        assert_eq!(eval_on(&e, 0).unwrap(), Value::Bool(true));
        assert_eq!(eval_on(&e, 1).unwrap(), Value::Bool(false));
        // NULL in list makes a miss NULL.
        let e = Expr::InList {
            expr: Box::new(Expr::col("lang")),
            list: vec![Expr::lit("zzz"), Expr::null()],
            negated: false,
        };
        assert_eq!(eval_on(&e, 0).unwrap(), Value::Null);
    }

    #[test]
    fn is_null_checks() {
        assert_eq!(eval_on(&Expr::is_null(Expr::null()), 0).unwrap(), Value::Bool(true));
        assert_eq!(eval_on(&Expr::is_null(Expr::col("lang")), 0).unwrap(), Value::Bool(false));
    }

    #[test]
    fn unary_exprs_vectorise_and_match_rowwise() {
        let mut t = table();
        t.set_cell(0, 1, Value::Null).unwrap();
        for expr in [
            Expr::is_null(Expr::col("lang")),
            Expr::Unary { op: UnaryOp::IsNotNull, expr: Box::new(Expr::col("lang")) },
            Expr::Unary { op: UnaryOp::Not, expr: Box::new(Expr::is_null(Expr::col("lang"))) },
            Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(Expr::try_cast(Expr::col("id"), DataType::Int)),
            },
        ] {
            for sel in [Selection::All(t.height()), Selection::Rows(&[1]), Selection::Rows(&[])] {
                let columnar = eval_column(&expr, &t, &sel).unwrap();
                let rowwise: Vec<Value> =
                    sel.iter().map(|row| eval(&expr, &RowContext::new(&t, row)).unwrap()).collect();
                assert_eq!(columnar.values(), &rowwise[..], "{expr:?}");
            }
        }
    }

    #[test]
    fn binary_exprs_vectorise_and_match_rowwise() {
        let mut t = table();
        t.set_cell(0, 1, Value::Null).unwrap();
        let id_int = || Expr::try_cast(Expr::col("id"), DataType::Int);
        for expr in [
            Expr::eq(Expr::col("lang"), Expr::lit("eng")),
            Expr::binary(BinaryOp::Ne, Expr::col("lang"), Expr::lit("eng")),
            Expr::binary(BinaryOp::Lt, id_int(), Expr::lit(2i64)),
            Expr::binary(BinaryOp::Ge, id_int(), Expr::lit(2i64)),
            Expr::binary(BinaryOp::Add, id_int(), Expr::lit(10i64)),
            Expr::binary(BinaryOp::Mul, id_int(), Expr::lit(2.5)),
            Expr::and(Expr::is_null(Expr::col("lang")), Expr::lit(true)),
            Expr::or(Expr::is_null(Expr::col("lang")), Expr::null()),
            // Nested: (id + 1) = 2 AND lang IS NOT NULL.
            Expr::and(
                Expr::eq(Expr::binary(BinaryOp::Add, id_int(), Expr::lit(1i64)), Expr::lit(2i64)),
                Expr::Unary { op: UnaryOp::IsNotNull, expr: Box::new(Expr::col("lang")) },
            ),
        ] {
            for sel in [Selection::All(t.height()), Selection::Rows(&[1]), Selection::Rows(&[])] {
                let columnar = eval_column(&expr, &t, &sel).unwrap();
                let rowwise: Vec<Value> =
                    sel.iter().map(|row| eval(&expr, &RowContext::new(&t, row)).unwrap()).collect();
                assert_eq!(columnar.values(), &rowwise[..], "{expr:?}");
            }
        }
    }

    #[test]
    fn in_list_vectorises_and_matches_rowwise() {
        let mut t = table();
        t.set_cell(0, 1, Value::Null).unwrap();
        let in_list = |expr: Expr, list: Vec<Expr>, negated: bool| Expr::InList {
            expr: Box::new(expr),
            list,
            negated,
        };
        let id_int = || Expr::try_cast(Expr::col("id"), DataType::Int);
        for expr in [
            in_list(Expr::col("lang"), vec![Expr::lit("eng"), Expr::lit("fre")], false),
            in_list(Expr::col("lang"), vec![Expr::lit("eng"), Expr::lit("fre")], true),
            // NULL subject row 0 → NULL either way.
            in_list(Expr::col("lang"), vec![Expr::lit("English")], false),
            // NULL in the list turns misses into NULL, hits stay Bool.
            in_list(Expr::col("lang"), vec![Expr::lit("English"), Expr::null()], false),
            in_list(Expr::col("lang"), vec![Expr::lit("zzz"), Expr::null()], true),
            // Int/Float cross-type hash agreement.
            in_list(id_int(), vec![Expr::lit(1.0), Expr::lit(7i64)], false),
            // Empty list: always a (possibly negated) miss.
            in_list(Expr::col("lang"), vec![], false),
            // Non-literal list items take the row-wise fallback.
            in_list(Expr::col("lang"), vec![Expr::col("lang")], false),
        ] {
            for sel in [Selection::All(t.height()), Selection::Rows(&[1]), Selection::Rows(&[])] {
                let columnar = eval_column(&expr, &t, &sel).unwrap();
                let rowwise: Vec<Value> =
                    sel.iter().map(|row| eval(&expr, &RowContext::new(&t, row)).unwrap()).collect();
                assert_eq!(columnar.values(), &rowwise[..], "{expr:?}");
            }
        }
    }

    #[test]
    fn searched_case_vectorises_and_matches_rowwise() {
        let mut t = table();
        t.set_cell(0, 1, Value::Null).unwrap();
        let id_int = || Expr::try_cast(Expr::col("id"), DataType::Int);
        for expr in [
            // Plain searched CASE with fall-through and ELSE.
            Expr::Case {
                operand: None,
                arms: vec![
                    (Expr::eq(Expr::col("lang"), Expr::lit("English")), Expr::lit("eng")),
                    (Expr::binary(BinaryOp::Lt, id_int(), Expr::lit(2i64)), Expr::lit("low")),
                ],
                otherwise: Some(Box::new(Expr::col("lang"))),
            },
            // No ELSE: unmatched rows yield NULL.
            Expr::Case {
                operand: None,
                arms: vec![(Expr::eq(id_int(), Expr::lit(1i64)), Expr::col("lang"))],
                otherwise: None,
            },
            // NULL condition counts as a miss, like row-wise.
            Expr::Case {
                operand: None,
                arms: vec![(Expr::is_null(Expr::col("lang")), Expr::lit("was null"))],
                otherwise: Some(Box::new(Expr::lit("had text"))),
            },
            // Simple CASE whose arms are not literals (outside the
            // value-map fast path): compares via sql_eq per arm.
            Expr::Case {
                operand: Some(Box::new(Expr::col("lang"))),
                arms: vec![(Expr::col("lang"), Expr::lit("self"))],
                otherwise: Some(Box::new(Expr::lit("null subject"))),
            },
            // Nested CASE in a THEN branch.
            Expr::Case {
                operand: None,
                arms: vec![(
                    Expr::Unary { op: UnaryOp::IsNotNull, expr: Box::new(Expr::col("lang")) },
                    Expr::Case {
                        operand: None,
                        arms: vec![(
                            Expr::eq(Expr::col("lang"), Expr::lit("English")),
                            Expr::lit("eng"),
                        )],
                        otherwise: Some(Box::new(Expr::col("lang"))),
                    },
                )],
                otherwise: None,
            },
        ] {
            for sel in [Selection::All(t.height()), Selection::Rows(&[1]), Selection::Rows(&[])] {
                let columnar = eval_column(&expr, &t, &sel).unwrap();
                let rowwise: Vec<Value> =
                    sel.iter().map(|row| eval(&expr, &RowContext::new(&t, row)).unwrap()).collect();
                assert_eq!(columnar.values(), &rowwise[..], "{expr:?}");
            }
        }
    }

    #[test]
    fn case_arms_stay_lazy_per_row() {
        // Row 0 ("eng") matches arm 1; arm 2's CAST would error on it but
        // must never be evaluated there — only row 1 ("5") reaches arm 2.
        let rows: Vec<Vec<String>> = vec![vec!["eng".into()], vec!["5".into()]];
        let t = Table::from_text_rows(&["s"], &rows).unwrap();
        let expr = Expr::Case {
            operand: None,
            arms: vec![
                (Expr::eq(Expr::col("s"), Expr::lit("eng")), Expr::lit("hit")),
                (
                    Expr::binary(
                        BinaryOp::Gt,
                        Expr::cast(Expr::col("s"), DataType::Int),
                        Expr::lit(0i64),
                    ),
                    Expr::lit("pos"),
                ),
            ],
            otherwise: None,
        };
        let sel = Selection::All(t.height());
        let columnar = eval_column(&expr, &t, &sel).unwrap();
        assert_eq!(columnar.values(), &[Value::from("hit"), Value::from("pos")]);
        // ELSE likewise: only evaluated on rows no arm claimed.
        let expr = Expr::Case {
            operand: None,
            arms: vec![(Expr::eq(Expr::col("s"), Expr::lit("eng")), Expr::lit("hit"))],
            otherwise: Some(Box::new(Expr::cast(Expr::col("s"), DataType::Int))),
        };
        let columnar = eval_column(&expr, &t, &sel).unwrap();
        assert_eq!(columnar.values(), &[Value::from("hit"), Value::Int(5)]);
        // But an error on a row that genuinely reaches the branch still
        // surfaces, matching row-wise.
        let sel = Selection::Rows(&[0]);
        let expr = Expr::Case {
            operand: None,
            arms: vec![(Expr::lit(true), Expr::cast(Expr::col("s"), DataType::Int))],
            otherwise: None,
        };
        assert!(eval_column(&expr, &t, &sel).is_err());
        assert!(eval(&expr, &RowContext::new(&t, 0)).is_err());
    }

    #[test]
    fn pair_key_maps_probe_and_match_rowwise() {
        // Cells: NULLs on either side, Int/Float cross-type keys, -0.0.
        let a = vec![
            Value::from("z1"),
            Value::from("z1"),
            Value::Null,
            Value::Int(0),
            Value::Float(1.0),
            Value::from("z2"),
        ];
        let b = vec![
            Value::from("x"),
            Value::from("y"),
            Value::from("x"),
            Value::from("x"),
            Value::Int(2),
            Value::Null,
        ];
        let t = Table::new(
            Schema::all_text(&["a", "b"]).unwrap(),
            vec![Column::new(a), Column::new(b)],
        )
        .unwrap();
        let map = Expr::pair_map(
            "a",
            "b",
            &[
                (Value::from("z1"), Value::from("x"), Value::from("first")),
                // Duplicate key: the first arm wins.
                (Value::from("z1"), Value::from("x"), Value::from("second")),
                (Value::Float(-0.0), Value::from("x"), Value::from("zero")),
                (Value::Int(1), Value::Float(2.0), Value::from("one-two")),
                // NULL key literals never fire, NULL cells never match.
                (Value::Null, Value::from("x"), Value::from("null-lhs")),
                (Value::from("z2"), Value::Null, Value::from("null-rhs")),
            ],
        );
        let with_else = |otherwise: Option<Expr>| match &map {
            Expr::Case { arms, .. } => {
                Expr::Case { operand: None, arms: arms.clone(), otherwise: otherwise.map(Box::new) }
            }
            other => panic!("{other:?}"),
        };
        for expr in [
            map.clone(),
            with_else(Some(Expr::col("a"))),
            with_else(Some(Expr::lit("other"))),
            with_else(None),
        ] {
            let Expr::Case { arms, otherwise, .. } = &expr else { unreachable!() };
            assert!(PairKeyMap::recognise(arms, otherwise.as_deref()).is_some(), "{expr:?}");
            for sel in
                [Selection::All(t.height()), Selection::Rows(&[5, 0, 3]), Selection::Rows(&[])]
            {
                let columnar = eval_column(&expr, &t, &sel).unwrap();
                let rowwise: Vec<Value> =
                    sel.iter().map(|row| eval(&expr, &RowContext::new(&t, row)).unwrap()).collect();
                assert_eq!(columnar.values(), &rowwise[..], "{expr:?}");
            }
        }
        let out = eval_column(&map, &t, &Selection::All(t.height())).unwrap();
        assert_eq!(out.values()[0], Value::from("first"));
        assert_eq!(out.values()[3], Value::from("zero"));
        assert_eq!(out.values()[4], Value::from("one-two"));
    }

    #[test]
    fn pair_key_map_near_misses_stay_lazy() {
        let arm = |l: &str, r: &str| {
            Expr::and(
                Expr::eq(Expr::col(l), Expr::lit("eng")),
                Expr::eq(Expr::col(r), Expr::lit("1")),
            )
        };
        let searched = |arms: Vec<(Expr, Expr)>, otherwise: Option<Expr>| Expr::Case {
            operand: None,
            arms,
            otherwise: otherwise.map(Box::new),
        };
        let id = Some(Expr::col("id"));
        for expr in [
            // `lit = col` instead of `col = lit`.
            searched(
                vec![(
                    Expr::and(
                        Expr::eq(Expr::lit("eng"), Expr::col("lang")),
                        Expr::eq(Expr::col("id"), Expr::lit("1")),
                    ),
                    Expr::lit("hit"),
                )],
                id.clone(),
            ),
            // Arms over two different column pairs.
            searched(
                vec![(arm("lang", "id"), Expr::lit("hit")), (arm("id", "lang"), Expr::lit("x"))],
                id.clone(),
            ),
            // A non-literal THEN.
            searched(vec![(arm("lang", "id"), Expr::col("lang"))], id.clone()),
            // An ELSE that can error on rows no arm claims.
            searched(
                vec![(arm("lang", "id"), Expr::lit("hit"))],
                Some(Expr::cast(Expr::col("lang"), DataType::Int)),
            ),
            // No arms at all.
            searched(vec![], id),
        ] {
            let Expr::Case { arms, otherwise, .. } = &expr else { unreachable!() };
            assert!(PairKeyMap::recognise(arms, otherwise.as_deref()).is_none(), "{expr:?}");
        }
    }

    #[test]
    fn func_calls_vectorise_and_match_rowwise() {
        let mut t = table();
        t.set_cell(0, 1, Value::Null).unwrap();
        for expr in [
            Expr::func("LENGTH", vec![Expr::col("lang")]),
            Expr::func("UPPER", vec![Expr::col("lang")]),
            Expr::func("CONCAT", vec![Expr::col("lang"), Expr::lit("!")]),
            Expr::func("COALESCE", vec![Expr::col("lang"), Expr::lit("fallback")]),
            Expr::func("NULLIF", vec![Expr::col("lang"), Expr::lit("English")]),
            Expr::func("ABS", vec![Expr::try_cast(Expr::col("id"), DataType::Int)]),
            // Nested: function of a function.
            Expr::func("LENGTH", vec![Expr::func("TRIM", vec![Expr::col("lang")])]),
        ] {
            for sel in [Selection::All(t.height()), Selection::Rows(&[1]), Selection::Rows(&[])] {
                let columnar = eval_column(&expr, &t, &sel).unwrap();
                let rowwise: Vec<Value> =
                    sel.iter().map(|row| eval(&expr, &RowContext::new(&t, row)).unwrap()).collect();
                assert_eq!(columnar.values(), &rowwise[..], "{expr:?}");
            }
        }
        // Errors surface in both paths: ABS of text, unknown function.
        for expr in [
            Expr::func("ABS", vec![Expr::col("lang")]),
            Expr::func("NO_SUCH_FN", vec![Expr::col("lang")]),
        ] {
            assert!(eval_column(&expr, &t, &Selection::Rows(&[1])).is_err(), "{expr:?}");
            assert!(eval(&expr, &RowContext::new(&t, 1)).is_err(), "{expr:?}");
        }
    }

    #[test]
    fn binary_errors_match_rowwise() {
        let t = table();
        for expr in [
            // Arithmetic on text errors on every row in both paths.
            Expr::binary(BinaryOp::Add, Expr::col("lang"), Expr::lit(1i64)),
            // Division by a zero literal.
            Expr::binary(BinaryOp::Div, Expr::lit(1i64), Expr::lit(0i64)),
            // Untyped comparison: text vs bool.
            Expr::binary(BinaryOp::Lt, Expr::col("lang"), Expr::lit(true)),
        ] {
            assert!(eval_column(&expr, &t, &Selection::All(t.height())).is_err(), "{expr:?}");
            assert!(eval(&expr, &RowContext::new(&t, 0)).is_err(), "{expr:?}");
        }
    }

    #[test]
    fn unary_errors_match_rowwise() {
        let t = table();
        // NOT of a text column errors both paths.
        let expr = Expr::Unary { op: UnaryOp::Not, expr: Box::new(Expr::col("lang")) };
        assert!(eval_column(&expr, &t, &Selection::All(t.height())).is_err());
        assert!(eval(&expr, &RowContext::new(&t, 0)).is_err());
        // Negating text errors too.
        let expr = Expr::Unary { op: UnaryOp::Neg, expr: Box::new(Expr::col("lang")) };
        assert!(eval_column(&expr, &t, &Selection::All(t.height())).is_err());
    }

    #[test]
    fn type_inference() {
        let t = table();
        let schema = t.schema();
        assert_eq!(infer_expr_type(&Expr::col("lang"), schema), DataType::Text);
        assert_eq!(
            infer_expr_type(&Expr::cast(Expr::col("lang"), DataType::Bool), schema),
            DataType::Bool
        );
        assert_eq!(
            infer_expr_type(&Expr::eq(Expr::col("lang"), Expr::lit("x")), schema),
            DataType::Bool
        );
        assert_eq!(
            infer_expr_type(&Expr::func("LENGTH", vec![Expr::col("lang")]), schema),
            DataType::Int
        );
    }
}
