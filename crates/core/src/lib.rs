//! # cocoon-core
//!
//! The paper's primary contribution: the Cocoon data-cleaning pipeline
//! ("Data Cleaning Using Large Language Models", ICDE 2025).
//!
//! Cocoon decomposes cleaning along two dimensions (Figure 1): by issue
//! type — [string outliers](issues::string_outlier),
//! [pattern outliers](issues::pattern_outlier),
//! [disguised missing values](issues::dmv),
//! [column types](issues::column_type),
//! [numeric outliers](issues::numeric_outlier),
//! [functional dependencies](issues::functional_dependency),
//! [duplication](issues::duplication) and
//! [uniqueness](issues::uniqueness) — and, within each issue, into
//! statistical detection (via `cocoon-profile`), semantic detection and
//! semantic cleaning (LLM prompts via `cocoon-llm`), compiled to SQL (via
//! `cocoon-sql`).
//!
//! ```
//! use cocoon_core::Cleaner;
//! use cocoon_llm::SimLlm;
//! use cocoon_table::csv;
//!
//! let dirty =
//!     csv::read_str("id,article_language\n1,eng\n2,eng\n3,eng\n4,English\n").unwrap();
//! let run = Cleaner::new(SimLlm::new()).clean(&dirty).unwrap();
//! assert_eq!(run.table.render_cell(3, 1).unwrap(), "eng");
//! println!("{}", run.sql_script()); // the commented SQL artifact
//! ```

#![warn(missing_docs)]

pub mod apply;
pub mod config;
pub mod decision;
pub mod error;
pub mod issues;
pub mod ops;
pub mod pipeline;
pub mod progress;
pub mod report;
mod state;

pub use apply::{apply_and_count, column_rewrite_select};
pub use cocoon_profile::ProfileOptions;
pub use config::{CleanerConfig, IssueToggles};
pub use decision::{
    AutoApprove, CleaningReview, Decision, DecisionHook, DetectionReview, RecordingHook,
    RejectIssues,
};
pub use error::{CoreError, Result};
pub use ops::{CleaningOp, Confidence, IssueKind, DEFAULT_SELF_REPORT};
pub use pipeline::{Cleaner, CleaningRun, STAGE_ORDER};
pub use progress::{ProgressSnapshot, RunProgress, StageObserver, StageTiming};
pub use report::{full_report, issue_summary, workflow_trace};
