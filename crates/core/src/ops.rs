//! Cleaning operations: the auditable record of what the pipeline did.
//!
//! Each applied step captures the statistical evidence, the LLM reasoning,
//! and the SQL it compiled to — together they are the "well-commented SQL
//! queries" of Figure 5.

use cocoon_sql::{render_select, Select};
use std::fmt;

/// The issue taxonomy of §2.1, declared in pipeline order
/// ([`STAGE_ORDER`](crate::STAGE_ORDER)), so `kind as usize` is the
/// stage's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssueKind {
    /// Rare string values that are variants of frequent ones (§2.1.1).
    StringOutliers,
    /// Values breaking the column's dominant character pattern (§2.1.2).
    PatternOutliers,
    /// Sentinel strings standing in for NULL (§2.1.3).
    DisguisedMissing,
    /// Text columns that should carry a concrete type (§2.1.4).
    ColumnType,
    /// Numeric values outside plausible bounds (§2.1.5).
    NumericOutliers,
    /// Rows violating discovered functional dependencies (§2.1.6).
    FunctionalDependency,
    /// Exact duplicate rows (§2.1.7).
    Duplication,
    /// Duplicate values in key-like columns (§2.1.8).
    Uniqueness,
}

impl IssueKind {
    /// Human-readable name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            IssueKind::StringOutliers => "String Outliers",
            IssueKind::PatternOutliers => "Pattern Outliers",
            IssueKind::DisguisedMissing => "Disguised Missing Value",
            IssueKind::ColumnType => "Column Type",
            IssueKind::NumericOutliers => "Numeric Outliers",
            IssueKind::FunctionalDependency => "Functional Dependency",
            IssueKind::Duplication => "Duplication",
            IssueKind::Uniqueness => "Column Uniqueness",
        }
    }

    /// The key of this issue's switch in the JSON config's `"issues"`
    /// object ([`CleanerConfig::to_json`](crate::CleanerConfig::to_json)).
    pub fn key(&self) -> &'static str {
        match self {
            IssueKind::StringOutliers => "string_outliers",
            IssueKind::PatternOutliers => "pattern_outliers",
            IssueKind::DisguisedMissing => "disguised_missing",
            IssueKind::ColumnType => "column_type",
            IssueKind::NumericOutliers => "numeric_outliers",
            IssueKind::FunctionalDependency => "functional_dependencies",
            IssueKind::Duplication => "duplication",
            IssueKind::Uniqueness => "uniqueness",
        }
    }

    /// Paper section for the report.
    pub fn section(&self) -> &'static str {
        match self {
            IssueKind::StringOutliers => "2.1.1",
            IssueKind::PatternOutliers => "2.1.2",
            IssueKind::DisguisedMissing => "2.1.3",
            IssueKind::ColumnType => "2.1.4",
            IssueKind::NumericOutliers => "2.1.5",
            IssueKind::FunctionalDependency => "2.1.6",
            IssueKind::Duplication => "2.1.7",
            IssueKind::Uniqueness => "2.1.8",
        }
    }
}

impl fmt::Display for IssueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How sure the pipeline is that a repair is correct.
///
/// Two signals, combined by [`score`](Confidence::score):
///
/// * **self-report** — the model's own 0–1 estimate, parsed from the
///   detection/cleaning completion (absent answers default to
///   [`DEFAULT_SELF_REPORT`]);
/// * **agreement** — for a deterministically sampled subset of repairs, the
///   fraction of independent re-ask variants (sent through the batch path,
///   so a coalescing dispatcher sees them as one flight) that endorse the
///   repair. `None` when the repair was not sampled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Confidence {
    /// The model's self-reported 0–1 confidence.
    pub self_report: f64,
    /// Cross-variant agreement in \[0,1\], when sampled.
    pub agreement: Option<f64>,
}

/// Self-report assumed when a completion carries no `Confidence` field —
/// chosen so legacy models neither auto-fail a strict threshold nor claim
/// certainty they never stated.
pub const DEFAULT_SELF_REPORT: f64 = 0.8;

impl Default for Confidence {
    fn default() -> Self {
        Confidence { self_report: DEFAULT_SELF_REPORT, agreement: None }
    }
}

impl Confidence {
    /// A confidence from an optional parsed self-report, clamped to \[0,1\].
    pub fn self_reported(report: Option<f64>) -> Self {
        Confidence {
            self_report: report.unwrap_or(DEFAULT_SELF_REPORT).clamp(0.0, 1.0),
            agreement: None,
        }
    }

    /// The combined score a threshold policy compares against: the
    /// self-report alone, or its even blend with agreement when the repair
    /// was sampled for cross-variant verification.
    pub fn score(&self) -> f64 {
        match self.agreement {
            Some(agreement) => (self.self_report + agreement) / 2.0,
            None => self.self_report,
        }
    }

    /// One-line rendering for reports and SQL comments.
    pub fn describe(&self) -> String {
        match self.agreement {
            Some(agreement) => format!(
                "{:.3} (self-report {:.2}, agreement {:.2})",
                self.score(),
                self.self_report,
                agreement
            ),
            None => format!("{:.3} (self-report {:.2})", self.score(), self.self_report),
        }
    }
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// One applied cleaning operation.
#[derive(Debug, Clone, PartialEq)]
pub struct CleaningOp {
    /// Which issue type this step repaired.
    pub issue: IssueKind,
    /// Target column, or `None` for whole-table operations.
    pub column: Option<String>,
    /// Statistical evidence that triggered the step.
    pub statistical_evidence: String,
    /// LLM reasoning (detection and/or cleaning explanations).
    pub llm_reasoning: String,
    /// The SQL this step compiled to.
    pub sql: Select,
    /// Cells changed (or rows removed, for row-level ops).
    pub cells_changed: usize,
    /// How sure the pipeline is that this repair is correct.
    pub confidence: Confidence,
}

impl CleaningOp {
    /// The commented SQL text of this operation (Figure 5 style).
    pub fn rendered_sql(&self) -> String {
        let mut sql = self.sql.clone();
        let mut comment = format!(
            "[{} — §{}]{}",
            self.issue.name(),
            self.issue.section(),
            match &self.column {
                Some(c) => format!(" column: {c}"),
                None => String::new(),
            }
        );
        if !self.statistical_evidence.is_empty() {
            comment.push_str(&format!("\nstatistical detection: {}", self.statistical_evidence));
        }
        if !self.llm_reasoning.is_empty() {
            comment.push_str(&format!("\nsemantic reasoning: {}", self.llm_reasoning));
        }
        comment.push_str(&format!("\nconfidence: {}", self.confidence.describe()));
        sql.comment = Some(comment);
        render_select(&sql)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoon_sql::Select;

    #[test]
    fn issue_names_and_sections() {
        assert_eq!(IssueKind::StringOutliers.name(), "String Outliers");
        assert_eq!(IssueKind::Uniqueness.section(), "2.1.8");
        assert_eq!(IssueKind::DisguisedMissing.to_string(), "Disguised Missing Value");
    }

    #[test]
    fn rendered_sql_carries_reasoning() {
        let op = CleaningOp {
            issue: IssueKind::StringOutliers,
            column: Some("lang".into()),
            statistical_evidence: "2 rare values".into(),
            llm_reasoning: "mixed representations".into(),
            sql: Select::star("t"),
            cells_changed: 9,
            confidence: Confidence { self_report: 0.9, agreement: Some(1.0) },
        };
        let sql = op.rendered_sql();
        assert!(sql.contains("-- [String Outliers — §2.1.1] column: lang"));
        assert!(sql.contains("-- statistical detection: 2 rare values"));
        assert!(sql.contains("-- semantic reasoning: mixed representations"));
        assert!(sql.contains("-- confidence: 0.950 (self-report 0.90, agreement 1.00)"));
        assert!(sql.contains("SELECT *"));
    }

    #[test]
    fn confidence_scoring() {
        let plain = Confidence::self_reported(Some(0.7));
        assert_eq!(plain.score(), 0.7);
        assert_eq!(plain.agreement, None);
        // Absent self-reports take the documented default.
        assert_eq!(Confidence::self_reported(None).score(), DEFAULT_SELF_REPORT);
        // Out-of-range reports clamp instead of poisoning thresholds.
        assert_eq!(Confidence::self_reported(Some(7.0)).score(), 1.0);
        assert_eq!(Confidence::self_reported(Some(-1.0)).score(), 0.0);
        // Agreement blends evenly.
        let sampled = Confidence { self_report: 0.6, agreement: Some(1.0) };
        assert!((sampled.score() - 0.8).abs() < 1e-12);
        assert_eq!(sampled.describe(), "0.800 (self-report 0.60, agreement 1.00)");
        assert_eq!(Confidence::default().describe(), "0.800 (self-report 0.80)");
    }
}
