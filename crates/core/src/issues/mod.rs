//! The eight issue types of §2.1, each decomposed into statistical
//! detection, semantic detection and semantic cleaning (Figure 1b). The
//! [`Cleaner`](crate::Cleaner) runs them in [`STAGE_ORDER`](crate::STAGE_ORDER);
//! it is the only way to run a stage.
//!
//! Every module follows the same two-phase shape: a read-only detection
//! split at its prompts into `start` and `resume` steps, which run as
//! prompt waves over the columns (or FD candidates, or the whole table) on
//! the stage thread pool and return ordered `Outcome`s, and a sequential
//! `decide` that hands each finding to one repair protocol: the
//! [`DecisionHook`](crate::DecisionHook) reviews, then the apply that
//! records the [`CleaningOp`](crate::CleaningOp). A finding carries its
//! `Repair` (issue, column, evidence, reasoning, self-report), built once
//! where detection concludes and moved into the op; only FD builds its own
//! in `decide`, since its evidence counts the groups live at its turn. A
//! stage supplies the subject its reviewer notes name, its compiled SQL
//! and, where its cleaning review shows a mapping, how to compile an
//! adjusted one.
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
