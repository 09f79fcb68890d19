//! # cocoon-profile
//!
//! Statistical profiling substrate — the *statistical detection* half of
//! Cocoon's per-issue decomposition (Figure 1b of the paper).
//!
//! The paper's LLM prompts never see raw tables; they see statistical
//! summaries produced here:
//!
//! * the per-column value [census] every other per-column
//!   statistic, the FD scan and duplicate grouping are read from,
//! * value [distributions](distribution) (Example 1's `"eng"` 46.4% /
//!   `"English"` 9.5% census),
//! * [numeric ranges and outlier fences](numeric) (§2.1.5),
//! * [entropy-ranked FD candidates](mod@entropy) (§2.1.6),
//! * [uniqueness ratios and duplicate-row counts](uniqueness)
//!   (§2.1.7–2.1.8),
//! * [pattern-shape censuses](patterns) (§2.1.2),
//! * [frequent-value samples and batching](sampling) (§2.1.1),
//! * a [whole-table aggregation](profile) with prompt-ready rendering,
//! * [mergeable partial profiles](partial) — the same statistics
//!   accumulated per row chunk and merged, enabling chunk-parallel
//!   profiling with bit-identical results.

#![warn(missing_docs)]

pub mod census;
pub mod distribution;
pub mod entropy;
pub mod numeric;
pub mod partial;
pub mod patterns;
pub mod profile;
pub mod sampling;
pub mod stats;
pub mod uniqueness;

pub use census::ColumnCensus;
pub use distribution::{Distribution, ValueFrequency};
pub use entropy::{
    conditional_entropy, entropy, fd_candidates, fd_violating_groups, FdCandidate, FdScan,
};
pub use numeric::{numeric_from_distinct, numeric_profile, NumericProfile};
pub use partial::{profile_table_chunked, PartialProfile, DEFAULT_PROFILE_CHUNK_ROWS};
pub use patterns::{pattern_census, pattern_census_from_distinct, PatternBucket, PatternCensus};
pub use profile::{profile_table, ColumnProfile, ProfileOptions, TableProfile};
pub use sampling::{batches, frequent_values, DEFAULT_BATCH_SIZE, DEFAULT_SAMPLE_SIZE};
pub use stats::NumericStats;
pub use uniqueness::{
    duplicate_profile, duplicates_from_censuses, uniqueness_from_distinct, uniqueness_profile,
    DuplicateProfile, UniquenessProfile,
};
