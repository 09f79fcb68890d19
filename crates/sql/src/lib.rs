//! # cocoon-sql
//!
//! SQL substrate for the Cocoon reproduction: the abstract syntax, renderer,
//! parser, evaluator and executor for the SQL dialect the cleaning pipeline
//! emits.
//!
//! The paper's system performs every cleaning step "using SQL queries. The
//! final output is a set of well-commented SQL queries" (§2.2, Figure 5).
//! Each issue type compiles to one of a small family of shapes:
//!
//! | paper step | SQL shape |
//! |---|---|
//! | string outliers / DMV / FD repair / numeric thresholds | `CASE WHEN` |
//! | column type | `CAST` / `TRY_CAST` |
//! | pattern outliers | `REGEXP_REPLACE` |
//! | duplication | `SELECT DISTINCT` |
//! | column uniqueness | `QUALIFY ROW_NUMBER() OVER (…) <= k` |
//!
//! [`ast`] models these, [`render`] pretty-prints them (with the reasoning
//! comments of Figure 5), [`parser`] reads the emitted dialect back, and
//! [`exec`]/[`eval`](mod@eval) run them against [`cocoon_table::Table`]s
//! with SQL
//! NULL/three-valued-logic semantics.

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod eval;
pub mod exec;
pub mod functions;
pub mod lexer;
pub mod parser;
pub mod render;

pub use ast::{BinaryOp, Expr, Projection, RowNumberFilter, Select, SortOrder, UnaryOp};
pub use error::{Result, SqlError};
pub use eval::{eval, eval_column, infer_expr_type, RowContext, Selection};
pub use exec::execute;
pub use parser::{parse_expr, parse_select};
pub use render::{quote_ident, quote_string, render_expr, render_select, render_value};
