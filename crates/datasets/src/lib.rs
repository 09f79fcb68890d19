//! # cocoon-datasets
//!
//! Synthetic reconstructions of the five benchmarks the paper evaluates on
//! (§3.1): Hospital, Flights, Beers, Rayyan and Movies. The original CSVs
//! are not distributable offline; each generator reproduces the schema,
//! scale, error taxonomy and error rates the paper reports (Table 2 counts
//! are matched exactly for Hospital and Movies), with full cell-level
//! ground truth and annotations. The README's opening section gives the
//! substitution argument: seeded synthetic reconstructions stand in for
//! the five benchmarks, as `SimLlm` stands in for hosted models.
//!
//! | dataset | size | defining property |
//! |---|---|---|
//! | [`hospital`] | 1000 × 19 | FD-rich provider data, 3 typed columns |
//! | [`flights`]  | 2376 × 7  | ambiguous `flight → actual time` FD |
//! | [`beers`]    | 2410 × 11 | `"oz"`/`"ounce"` unit inconsistencies |
//! | [`rayyan`]   | 1000 × 11 | typo-heavy citations, Example 1 languages |
//! | [`movies`]   | 7390 × 17 | language↔country misplacements, durations |

pub mod beers;
pub(crate) mod cache;
pub mod catalog;
pub mod flights;
pub mod hospital;
pub mod inject;
pub mod movies;
pub mod pools;
pub mod rayyan;
pub mod spec;

pub use catalog::{all, by_name, DATASET_NAMES};
pub use spec::{Dataset, ErrorType, InjectedError};
