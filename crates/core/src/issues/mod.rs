//! The eight issue types of §2.1, each decomposed into statistical
//! detection, semantic detection and semantic cleaning (Figure 1b). The
//! [`Cleaner`](crate::Cleaner) runs them in [`STAGE_ORDER`](crate::STAGE_ORDER);
//! it is the only way to run a stage.
//!
//! Every module follows the same two-phase shape: a read-only detection
//! split at its prompts into `start` and `resume` steps, which run as
//! prompt waves over the columns (or FD candidates, or the whole table) on
//! the stage thread pool and return ordered `Outcome`s, each finding a
//! `Proposal`; and a sequential decide phase that takes every proposal
//! through one repair protocol: the [`DecisionHook`](crate::DecisionHook)'s
//! detection review, then its cleaning review of the statement that would
//! apply the repair, the apply, and the [`CleaningOp`](crate::CleaningOp)
//! it records. A proposal carries its `Repair` (issue, column, evidence,
//! reasoning, self-report), the model's explanation, its mapping (empty
//! where the repair has none), the subject its reviewer notes name, and the
//! rule that compiles the live table and a mapping, proposed or adjusted,
//! into its SQL. Only FD keeps a `decide` of its own, since its evidence
//! counts the groups live at its turn; it runs the same two steps around
//! its mapping ask.
//! Detection sees the table as it stood when the stage began; mutation
//! happens only in the decide phase.

pub mod column_type;
pub mod dmv;
pub mod duplication;
pub mod functional_dependency;
pub mod numeric_outlier;
pub mod pattern_outlier;
pub mod string_outlier;
pub mod uniqueness;
