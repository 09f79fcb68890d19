//! Typed parsing of model responses.
//!
//! Every pipeline step's response format is defined here next to a parser
//! that tolerates the usual LLM sloppiness (fences, prose around the
//! payload) but fails loudly on genuinely malformed output, letting the
//! pipeline degrade to statistical-only behaviour.

use crate::error::{LlmError, Result};
use crate::json::{extract, Json};
use crate::yaml;

/// The optional 0–1 self-reported `"Confidence"` field every response
/// format may carry. Absent or non-numeric values parse as `None` (legacy
/// completions keep parsing); numeric values are clamped to \[0,1\].
fn confidence_of(v: &Json) -> Option<f64> {
    v.get("Confidence").and_then(Json::as_f64).and_then(stated_confidence)
}

/// A stated confidence clamped to \[0,1\]. A non-finite value (`nan`,
/// `inf`, an overflowing literal) states nothing and parses as `None`: a
/// NaN would compare false against every threshold.
fn stated_confidence(c: f64) -> Option<f64> {
    c.is_finite().then(|| c.clamp(0.0, 1.0))
}

/// Figure 2 verdict for detection prompts.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectVerdict {
    /// The model's reasoning text, quoted in reports.
    pub reasoning: String,
    /// Whether the values were flagged as unusual.
    pub unusual: bool,
    /// One-line summary of the finding.
    pub summary: String,
    /// Self-reported 0–1 confidence, when stated.
    pub confidence: Option<f64>,
}

/// Parses `{"Reasoning": …, "Unusualness": …, "Summary": …}`.
pub fn parse_detect_verdict(text: &str) -> Result<DetectVerdict> {
    let v = extract(text)?;
    let unusual = v
        .get("Unusualness")
        .and_then(Json::as_bool)
        .ok_or(LlmError::Malformed { expected: "Unusualness bool", detail: text.into() })?;
    Ok(DetectVerdict {
        reasoning: v.get("Reasoning").and_then(Json::as_str).unwrap_or("").to_string(),
        unusual,
        summary: v.get("Summary").and_then(Json::as_str).unwrap_or("").to_string(),
        confidence: confidence_of(&v),
    })
}

/// Figure 3 cleaning map.
#[derive(Debug, Clone, PartialEq)]
pub struct CleaningMap {
    /// The model's explanation of the mapping.
    pub explanation: String,
    /// old value → new value ("" = meaningless, maps to NULL downstream).
    pub mapping: Vec<(String, String)>,
    /// Self-reported 0–1 confidence, when stated.
    pub confidence: Option<f64>,
}

/// Parses the YAML cleaning response.
pub fn parse_cleaning_map(text: &str) -> Result<CleaningMap> {
    let doc = yaml::extract(text)?;
    let mapping = doc
        .mapping("mapping")
        .ok_or(LlmError::Malformed { expected: "mapping block", detail: text.into() })?
        .to_vec();
    let confidence = doc
        .scalar("confidence")
        .and_then(|c| c.trim().parse::<f64>().ok())
        .and_then(stated_confidence);
    Ok(CleaningMap {
        explanation: doc.scalar("explanation").unwrap_or("").to_string(),
        mapping,
        confidence,
    })
}

/// Pattern-review plan (§2.1.2).
#[derive(Debug, Clone, PartialEq)]
pub struct PatternPlan {
    /// The model's reasoning text.
    pub reasoning: String,
    /// Meaningful patterns covering the column.
    pub patterns: Vec<String>,
    /// Whether the column mixes incompatible formats.
    pub inconsistent: bool,
    /// (pattern, replacement) regex transformations to standardise.
    pub transforms: Vec<(String, String)>,
    /// Self-reported 0–1 confidence, when stated.
    pub confidence: Option<f64>,
}

/// Parses the pattern-review JSON.
pub fn parse_pattern_plan(text: &str) -> Result<PatternPlan> {
    let v = extract(text)?;
    let patterns = v
        .get("Patterns")
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(|x| x.as_str().map(str::to_string)).collect())
        .unwrap_or_default();
    let transforms = v
        .get("Transforms")
        .and_then(Json::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|t| {
                    Some((
                        t.get("pattern")?.as_str()?.to_string(),
                        t.get("replacement")?.as_str()?.to_string(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(PatternPlan {
        reasoning: v.get("Reasoning").and_then(Json::as_str).unwrap_or("").to_string(),
        patterns,
        inconsistent: v.get("Inconsistent").and_then(Json::as_bool).unwrap_or(false),
        transforms,
        confidence: confidence_of(&v),
    })
}

/// DMV detection verdict (§2.1.3).
#[derive(Debug, Clone, PartialEq)]
pub struct DmvVerdict {
    /// The model's reasoning text.
    pub reasoning: String,
    /// Tokens judged to be disguised missing values.
    pub tokens: Vec<String>,
    /// Self-reported 0–1 confidence, when stated.
    pub confidence: Option<f64>,
}

/// Parses the DMV JSON.
pub fn parse_dmv_verdict(text: &str) -> Result<DmvVerdict> {
    let v = extract(text)?;
    let tokens = v
        .get("DisguisedMissing")
        .and_then(Json::as_array)
        .ok_or(LlmError::Malformed { expected: "DisguisedMissing array", detail: text.into() })?
        .iter()
        .filter_map(|x| x.as_str().map(str::to_string))
        .collect();
    Ok(DmvVerdict {
        reasoning: v.get("Reasoning").and_then(Json::as_str).unwrap_or("").to_string(),
        tokens,
        confidence: confidence_of(&v),
    })
}

/// Column-type suggestion (§2.1.4).
#[derive(Debug, Clone, PartialEq)]
pub struct TypeVerdict {
    /// The model's reasoning text.
    pub reasoning: String,
    /// SQL type name (BOOLEAN, BIGINT, DOUBLE, DATE, TIME, VARCHAR).
    pub type_name: String,
    /// Self-reported 0–1 confidence, when stated.
    pub confidence: Option<f64>,
}

/// Parses the column-type JSON.
pub fn parse_type_verdict(text: &str) -> Result<TypeVerdict> {
    let v = extract(text)?;
    let type_name = v
        .get("Type")
        .and_then(Json::as_str)
        .ok_or(LlmError::Malformed { expected: "Type string", detail: text.into() })?
        .to_string();
    Ok(TypeVerdict {
        reasoning: v.get("Reasoning").and_then(Json::as_str).unwrap_or("").to_string(),
        type_name,
        confidence: confidence_of(&v),
    })
}

/// Numeric acceptable-range verdict (§2.1.5).
#[derive(Debug, Clone, PartialEq)]
pub struct RangeVerdict {
    /// The model's reasoning text.
    pub reasoning: String,
    /// Lower bound of the acceptable range (`None` = unbounded).
    pub low: Option<f64>,
    /// Upper bound of the acceptable range (`None` = unbounded).
    pub high: Option<f64>,
    /// Self-reported 0–1 confidence, when stated.
    pub confidence: Option<f64>,
}

/// Parses the numeric-range JSON.
pub fn parse_range_verdict(text: &str) -> Result<RangeVerdict> {
    let v = extract(text)?;
    Ok(RangeVerdict {
        reasoning: v.get("Reasoning").and_then(Json::as_str).unwrap_or("").to_string(),
        low: v.get("Low").and_then(Json::as_f64),
        high: v.get("High").and_then(Json::as_f64),
        confidence: confidence_of(&v),
    })
}

/// FD meaningfulness verdict (§2.1.6).
#[derive(Debug, Clone, PartialEq)]
pub struct FdVerdict {
    /// The model's reasoning text.
    pub reasoning: String,
    /// Whether the dependency is semantically meaningful.
    pub meaningful: bool,
    /// Self-reported 0–1 confidence, when stated.
    pub confidence: Option<f64>,
}

/// Parses the FD-review JSON.
pub fn parse_fd_verdict(text: &str) -> Result<FdVerdict> {
    let v = extract(text)?;
    let meaningful = v
        .get("Meaningful")
        .and_then(Json::as_bool)
        .ok_or(LlmError::Malformed { expected: "Meaningful bool", detail: text.into() })?;
    Ok(FdVerdict {
        reasoning: v.get("Reasoning").and_then(Json::as_str).unwrap_or("").to_string(),
        meaningful,
        confidence: confidence_of(&v),
    })
}

/// Duplication acceptability verdict (§2.1.7).
#[derive(Debug, Clone, PartialEq)]
pub struct DupVerdict {
    /// The model's reasoning text.
    pub reasoning: String,
    /// Whether fully duplicate rows are acceptable here.
    pub acceptable: bool,
    /// Self-reported 0–1 confidence, when stated.
    pub confidence: Option<f64>,
}

/// Parses the duplication-review JSON.
pub fn parse_dup_verdict(text: &str) -> Result<DupVerdict> {
    let v = extract(text)?;
    let acceptable = v
        .get("Acceptable")
        .and_then(Json::as_bool)
        .ok_or(LlmError::Malformed { expected: "Acceptable bool", detail: text.into() })?;
    Ok(DupVerdict {
        reasoning: v.get("Reasoning").and_then(Json::as_str).unwrap_or("").to_string(),
        acceptable,
        confidence: confidence_of(&v),
    })
}

/// Column-uniqueness verdict (§2.1.8).
#[derive(Debug, Clone, PartialEq)]
pub struct UniqueVerdict {
    /// The model's reasoning text.
    pub reasoning: String,
    /// Whether the column should hold unique values.
    pub should_be_unique: bool,
    /// Column used to prioritise the surviving record, if any.
    pub order_by: Option<String>,
    /// Self-reported 0–1 confidence, when stated.
    pub confidence: Option<f64>,
}

/// Parses the uniqueness-review JSON.
pub fn parse_unique_verdict(text: &str) -> Result<UniqueVerdict> {
    let v = extract(text)?;
    let should = v
        .get("ShouldBeUnique")
        .and_then(Json::as_bool)
        .ok_or(LlmError::Malformed { expected: "ShouldBeUnique bool", detail: text.into() })?;
    Ok(UniqueVerdict {
        reasoning: v.get("Reasoning").and_then(Json::as_str).unwrap_or("").to_string(),
        should_be_unique: should,
        order_by: v.get("OrderBy").and_then(Json::as_str).map(str::to_string),
        confidence: confidence_of(&v),
    })
}

/// Cross-variant repair-verification verdict (confidence agreement).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairVerdict {
    /// The reviewer variant's reasoning text.
    pub reasoning: String,
    /// Whether the variant endorses the proposed repair.
    pub agree: bool,
    /// Self-reported 0–1 confidence, when stated.
    pub confidence: Option<f64>,
}

/// Parses the repair-verification JSON.
pub fn parse_repair_verdict(text: &str) -> Result<RepairVerdict> {
    let v = extract(text)?;
    let agree = v
        .get("Agree")
        .and_then(Json::as_bool)
        .ok_or(LlmError::Malformed { expected: "Agree bool", detail: text.into() })?;
    Ok(RepairVerdict {
        reasoning: v.get("Reasoning").and_then(Json::as_str).unwrap_or("").to_string(),
        agree,
        confidence: confidence_of(&v),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_verdict_parses_fenced() {
        let text = "```json\n{\"Reasoning\": \"mixed codes\", \"Unusualness\": true, \"Summary\": \"2 values unusual\"}\n```";
        let v = parse_detect_verdict(text).unwrap();
        assert!(v.unusual);
        assert_eq!(v.summary, "2 values unusual");
    }

    #[test]
    fn detect_verdict_requires_unusualness() {
        assert!(parse_detect_verdict("{\"Reasoning\": \"x\"}").is_err());
        assert!(parse_detect_verdict("prose only").is_err());
    }

    #[test]
    fn cleaning_map_parses() {
        let text =
            "```yml\nexplanation: >\n  fix codes\nmapping:\n  English: eng\n  junk: \"\"\n```";
        let m = parse_cleaning_map(text).unwrap();
        assert_eq!(m.mapping.len(), 2);
        assert_eq!(m.mapping[1], ("junk".to_string(), String::new()));
    }

    #[test]
    fn cleaning_map_requires_mapping() {
        assert!(parse_cleaning_map("explanation: x").is_err());
    }

    #[test]
    fn pattern_plan_parses() {
        let text = r#"{"Reasoning": "dates", "Patterns": ["\\d{4}-\\d{2}-\\d{2}"], "Inconsistent": true, "Transforms": [{"pattern": "(\\d{4})-(\\d{2})-(\\d{2})", "replacement": "$2/$3/$1"}]}"#;
        let p = parse_pattern_plan(text).unwrap();
        assert!(p.inconsistent);
        assert_eq!(p.patterns.len(), 1);
        assert_eq!(p.transforms[0].1, "$2/$3/$1");
    }

    #[test]
    fn dmv_and_type_and_range() {
        let v =
            parse_dmv_verdict(r#"{"Reasoning": "r", "DisguisedMissing": ["N/A", "-"]}"#).unwrap();
        assert_eq!(v.tokens, vec!["N/A", "-"]);
        let t = parse_type_verdict(r#"{"Reasoning": "yes/no", "Type": "BOOLEAN"}"#).unwrap();
        assert_eq!(t.type_name, "BOOLEAN");
        let r = parse_range_verdict(r#"{"Reasoning": "scores", "Low": 0, "High": 10}"#).unwrap();
        assert_eq!((r.low, r.high), (Some(0.0), Some(10.0)));
        let r = parse_range_verdict(r#"{"Reasoning": "open", "Low": null, "High": null}"#).unwrap();
        assert_eq!((r.low, r.high), (None, None));
    }

    #[test]
    fn fd_dup_unique_verdicts() {
        assert!(parse_fd_verdict(r#"{"Meaningful": true}"#).unwrap().meaningful);
        assert!(!parse_dup_verdict(r#"{"Acceptable": false}"#).unwrap().acceptable);
        let u = parse_unique_verdict(r#"{"ShouldBeUnique": true, "OrderBy": "updated"}"#).unwrap();
        assert!(u.should_be_unique);
        assert_eq!(u.order_by.as_deref(), Some("updated"));
        let u = parse_unique_verdict(r#"{"ShouldBeUnique": false, "OrderBy": null}"#).unwrap();
        assert_eq!(u.order_by, None);
    }

    #[test]
    fn confidence_is_optional_everywhere() {
        // Legacy completions without the field keep parsing, as None.
        let v = parse_detect_verdict(r#"{"Unusualness": true}"#).unwrap();
        assert_eq!(v.confidence, None);
        // Stated confidences come through, clamped to [0,1].
        let v = parse_detect_verdict(r#"{"Unusualness": true, "Confidence": 0.85}"#).unwrap();
        assert_eq!(v.confidence, Some(0.85));
        let v = parse_detect_verdict(r#"{"Unusualness": true, "Confidence": 7}"#).unwrap();
        assert_eq!(v.confidence, Some(1.0));
        // Non-numeric confidence degrades to None rather than erroring.
        let v = parse_detect_verdict(r#"{"Unusualness": true, "Confidence": "high"}"#).unwrap();
        assert_eq!(v.confidence, None);
        let t = parse_type_verdict(r#"{"Type": "BOOLEAN", "Confidence": 0.95}"#).unwrap();
        assert_eq!(t.confidence, Some(0.95));
        assert_eq!(
            parse_fd_verdict(r#"{"Meaningful": true, "Confidence": 0.6}"#).unwrap().confidence,
            Some(0.6)
        );
    }

    #[test]
    fn cleaning_map_confidence_scalar() {
        let text =
            "```yml\nexplanation: >\n  fix codes\nconfidence: 0.72\nmapping:\n  English: eng\n```";
        let m = parse_cleaning_map(text).unwrap();
        assert_eq!(m.confidence, Some(0.72));
        let legacy = "```yml\nexplanation: >\n  fix\nmapping:\n  a: b\n```";
        assert_eq!(parse_cleaning_map(legacy).unwrap().confidence, None);
    }

    #[test]
    fn non_finite_confidence_is_not_stated() {
        // `"nan".parse::<f64>()` succeeds, and clamping keeps NaN.
        for stated in ["nan", "NaN", "inf", "-inf", "infinity", "1e999"] {
            let text = format!("explanation: x\nconfidence: {stated}\nmapping:\n  a: b\n");
            assert_eq!(parse_cleaning_map(&text).unwrap().confidence, None, "{stated}");
        }
        // The JSON reader turns an overflowing literal into infinity.
        let v = parse_detect_verdict(r#"{"Unusualness": true, "Confidence": 1e999}"#).unwrap();
        assert_eq!(v.confidence, None);
        let v = parse_detect_verdict(r#"{"Unusualness": true, "Confidence": -1e999}"#).unwrap();
        assert_eq!(v.confidence, None);
    }

    #[test]
    fn repair_verdict_parses() {
        let v = parse_repair_verdict(
            r#"{"Reasoning": "checks out", "Agree": true, "Confidence": 0.9}"#,
        )
        .unwrap();
        assert!(v.agree);
        assert_eq!(v.confidence, Some(0.9));
        let v = parse_repair_verdict(r#"{"Agree": false}"#).unwrap();
        assert!(!v.agree);
        assert!(parse_repair_verdict(r#"{"Reasoning": "no verdict"}"#).is_err());
    }
}
