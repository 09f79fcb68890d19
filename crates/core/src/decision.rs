//! Human-in-the-loop decision hooks.
//!
//! "Cocoon is designed to be a human-in-the-loop process for user feedback.
//! For each error detection and data cleaning step, we present the LLM
//! reasoning and ask humans to verify and adjust" (§2.2, Appendix A).
//! The pipeline consults a [`DecisionHook`] at both points; the benchmark
//! runs use [`AutoApprove`] exactly as the paper's experiments "skip these
//! and use the LLM provided ground truth" (§3.1).

use crate::ops::IssueKind;
use cocoon_sql::{render_select, Select};

/// What the human decided about a proposed step.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Apply the step as proposed.
    Approve,
    /// Skip the step entirely.
    Reject,
    /// Apply with an adjusted value mapping (old → new pairs), compiled by
    /// the same rule as the proposed one. A repair whose cleaning review
    /// shows an empty mapping has no mapping to adjust, and its proposed
    /// statement applies; an FD pair applies only inside the groups that
    /// hold `old` and whose most common value is `new`. A detection review
    /// reads it as [`Approve`](Decision::Approve).
    AdjustMapping(Vec<(String, String)>),
}

/// A proposed detection shown to the human.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReview<'a> {
    /// Issue type the detector flagged.
    pub issue: IssueKind,
    /// Column under review; `None` for table-level issues (duplication).
    pub column: Option<&'a str>,
    /// The profiler statistics that triggered the detection.
    pub statistical_evidence: &'a str,
    /// The model's verdict on whether the anomaly is a genuine error.
    pub llm_reasoning: &'a str,
}

/// A proposed cleaning shown to the human, after its detection review: the
/// mapping the repair compiles (empty where it has none) and the statement
/// that applies it.
#[derive(Debug, Clone, PartialEq)]
pub struct CleaningReview<'a> {
    /// Issue type being repaired.
    pub issue: IssueKind,
    /// Column being repaired; `None` for table-level repairs.
    pub column: Option<&'a str>,
    /// The model's explanation of the proposed repair.
    pub llm_explanation: &'a str,
    /// old → new pairs ("" = NULL).
    pub mapping: &'a [(String, String)],
    /// The generated SQL statement, as it would execute.
    pub sql: &'a Select,
}

impl CleaningReview<'_> {
    /// The generated SQL as text. Rendered on each call, so a hook that
    /// never shows it, such as [`AutoApprove`], renders nothing.
    pub fn sql_preview(&self) -> String {
        render_select(self.sql)
    }
}

/// The human-in-the-loop boundary.
///
/// Every stage asks it through one protocol, in its sequential decide
/// phase: a [`DetectionReview`] of each finding, then a [`CleaningReview`]
/// of the statement that would apply its repair. A [`Decision::Reject`] at
/// either point skips the repair and notes "… rejected by reviewer" in the
/// run.
pub trait DecisionHook {
    /// Review a semantic detection verdict before cleaning is attempted.
    fn review_detection(&mut self, review: &DetectionReview<'_>) -> Decision;
    /// Review a proposed cleaning before it is applied.
    fn review_cleaning(&mut self, review: &CleaningReview<'_>) -> Decision;
}

/// Approves everything — the paper's benchmark mode.
#[derive(Debug, Default, Clone)]
pub struct AutoApprove;

impl DecisionHook for AutoApprove {
    fn review_detection(&mut self, _review: &DetectionReview<'_>) -> Decision {
        Decision::Approve
    }

    fn review_cleaning(&mut self, _review: &CleaningReview<'_>) -> Decision {
        Decision::Approve
    }
}

/// Rejects specific issue kinds (e.g. a user who never wants row dedup).
#[derive(Debug, Clone, Default)]
pub struct RejectIssues {
    /// Issue kinds to reject at both review points.
    pub rejected: Vec<IssueKind>,
}

impl DecisionHook for RejectIssues {
    fn review_detection(&mut self, review: &DetectionReview<'_>) -> Decision {
        if self.rejected.contains(&review.issue) {
            Decision::Reject
        } else {
            Decision::Approve
        }
    }

    fn review_cleaning(&mut self, review: &CleaningReview<'_>) -> Decision {
        if self.rejected.contains(&review.issue) {
            Decision::Reject
        } else {
            Decision::Approve
        }
    }
}

/// Records every review it sees (testing aid) while approving.
#[derive(Debug, Default)]
pub struct RecordingHook {
    /// Every detection review seen: issue kind and column.
    pub detections: Vec<(IssueKind, Option<String>)>,
    /// Every cleaning review seen: issue kind and mapping size.
    pub cleanings: Vec<(IssueKind, usize)>,
}

impl DecisionHook for RecordingHook {
    fn review_detection(&mut self, review: &DetectionReview<'_>) -> Decision {
        self.detections.push((review.issue, review.column.map(str::to_string)));
        Decision::Approve
    }

    fn review_cleaning(&mut self, review: &CleaningReview<'_>) -> Decision {
        self.cleanings.push((review.issue, review.mapping.len()));
        Decision::Approve
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_approve_approves() {
        let mut hook = AutoApprove;
        let review = DetectionReview {
            issue: IssueKind::StringOutliers,
            column: Some("x"),
            statistical_evidence: "",
            llm_reasoning: "",
        };
        assert_eq!(hook.review_detection(&review), Decision::Approve);
    }

    #[test]
    fn reject_issues_filters() {
        let mut hook = RejectIssues { rejected: vec![IssueKind::Duplication] };
        let review = DetectionReview {
            issue: IssueKind::Duplication,
            column: None,
            statistical_evidence: "",
            llm_reasoning: "",
        };
        assert_eq!(hook.review_detection(&review), Decision::Reject);
        let review = DetectionReview { issue: IssueKind::ColumnType, ..review };
        assert_eq!(hook.review_detection(&review), Decision::Approve);
    }

    #[test]
    fn recording_hook_records() {
        let mut hook = RecordingHook::default();
        let mapping = vec![("a".to_string(), "b".to_string())];
        let review = CleaningReview {
            issue: IssueKind::StringOutliers,
            column: Some("c"),
            llm_explanation: "e",
            mapping: &mapping,
            sql: &Select::star("t"),
        };
        hook.review_cleaning(&review);
        assert_eq!(hook.cleanings, vec![(IssueKind::StringOutliers, 1)]);
        assert_eq!(review.sql_preview(), render_select(&Select::star("t")));
    }
}
