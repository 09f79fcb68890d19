//! Pipeline configuration, including the serialisable wire form a cleaning
//! service accepts (`CleanerConfig::from_json` / `to_json`).

use crate::error::{CoreError, Result};
use cocoon_llm::Json;
use cocoon_profile::ProfileOptions;

/// Which issue types (§2.1.1–2.1.8) the pipeline runs. All on by default;
/// the ablation benches toggle these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssueToggles {
    /// §2.1.1 — rare string values that are typos of frequent ones.
    pub string_outliers: bool,
    /// §2.1.2 — values breaking the column's dominant character pattern.
    pub pattern_outliers: bool,
    /// §2.1.3 — sentinel strings standing in for NULL ("N/A", "-").
    pub disguised_missing: bool,
    /// §2.1.4 — text columns that should be typed (int, date, …).
    pub column_type: bool,
    /// §2.1.5 — numeric values outside plausible bounds.
    pub numeric_outliers: bool,
    /// §2.1.6 — rows violating discovered functional dependencies.
    pub functional_dependencies: bool,
    /// §2.1.7 — exact duplicate rows.
    pub duplication: bool,
    /// §2.1.8 — duplicate values in key-like columns.
    pub uniqueness: bool,
}

impl Default for IssueToggles {
    fn default() -> Self {
        IssueToggles {
            string_outliers: true,
            pattern_outliers: true,
            disguised_missing: true,
            column_type: true,
            numeric_outliers: true,
            functional_dependencies: true,
            duplication: true,
            uniqueness: true,
        }
    }
}

/// Tunables of the cleaning pipeline; defaults follow the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct CleanerConfig {
    /// Frequent distinct values sampled for string-outlier review
    /// (paper default 1000).
    pub sample_size: usize,
    /// Distinct values cleaned per LLM call (paper default 1000).
    pub batch_size: usize,
    /// Minimum entropy strength for FD candidates handed to the LLM.
    pub fd_min_strength: f64,
    /// Key-likeness cutoff for FD left-hand sides.
    pub fd_max_unique_ratio: f64,
    /// Type-inference tolerance (fraction of values that must parse).
    pub type_tolerance: f64,
    /// Unique-ratio threshold above which a column is reviewed for
    /// semantic uniqueness (§2.1.8).
    pub uniqueness_review_threshold: f64,
    /// Minimum combined [`Confidence`](crate::Confidence) score a repair
    /// needs to apply automatically. Repairs scoring below are **withheld**:
    /// the table is left untouched and the op lands in
    /// [`CleaningRun::pending`](crate::CleaningRun::pending) for
    /// human-in-the-loop review (`/v1/reviews` on `cocoon-server`). The
    /// default `0.0` applies everything — confidence stays purely
    /// observational until a policy opts in.
    pub confidence_threshold: f64,
    /// Which issues run.
    pub issues: IssueToggles,
    /// Include statistical profiles in prompts (ablation: the paper's claim
    /// is that statistics give the LLM context; turning this off degrades
    /// detection).
    pub statistical_context: bool,
    /// Worker threads for the per-stage detection fan-out. `None` defers to
    /// the `COCOON_THREADS` environment variable, falling back to the
    /// machine's available parallelism.
    ///
    /// With a model whose answers are a pure function of the prompt
    /// (`SimLlm`, `CachedLlm` over one) output is byte-identical at any
    /// thread count — threads only trade wall-clock for cores. Models with
    /// call-order state (`ScriptedLlm`'s positional script, a sampling API
    /// backend) lose that guarantee above 1 thread, because concurrent
    /// detection workers consume answers in completion order; pin
    /// `threads: Some(1)` to script multi-column interactions.
    pub threads: Option<usize>,
}

impl Default for CleanerConfig {
    fn default() -> Self {
        CleanerConfig {
            sample_size: 1000,
            batch_size: 1000,
            fd_min_strength: 0.6,
            fd_max_unique_ratio: 0.95,
            type_tolerance: 0.90,
            uniqueness_review_threshold: 0.95,
            confidence_threshold: 0.0,
            issues: IssueToggles::default(),
            statistical_context: true,
            threads: None,
        }
    }
}

impl CleanerConfig {
    /// Validates ranges, returning self for chaining.
    pub fn validated(self) -> Result<Self> {
        if self.sample_size == 0 {
            return Err(CoreError::Config("sample_size must be positive".into()));
        }
        if self.threads == Some(0) {
            return Err(CoreError::Config("threads must be positive when set".into()));
        }
        for (name, v) in [
            ("fd_min_strength", self.fd_min_strength),
            ("fd_max_unique_ratio", self.fd_max_unique_ratio),
            ("type_tolerance", self.type_tolerance),
            ("uniqueness_review_threshold", self.uniqueness_review_threshold),
            ("confidence_threshold", self.confidence_threshold),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(CoreError::Config(format!("{name} must be in [0,1], got {v}")));
            }
        }
        Ok(self)
    }

    /// Builds a config from its JSON wire form: the paper defaults overlaid
    /// with whatever subset of fields the object provides, then validated.
    ///
    /// This is the request-config format of `cocoon-server`'s clean
    /// endpoints. Partial objects are the norm (`{"threads": 1}` pins the
    /// fan-out, everything else stays default); unknown keys are rejected
    /// so client typos fail loudly instead of silently running defaults.
    pub fn from_json(json: &Json) -> Result<Self> {
        let mut config = CleanerConfig::default();
        let Some(members) = json.as_object() else {
            return Err(CoreError::Config(format!("config must be a JSON object, got {json}")));
        };
        for (key, value) in members {
            match key.as_str() {
                "sample_size" => config.sample_size = usize_field(key, value)?,
                "batch_size" => config.batch_size = usize_field(key, value)?,
                "fd_min_strength" => config.fd_min_strength = f64_field(key, value)?,
                "fd_max_unique_ratio" => config.fd_max_unique_ratio = f64_field(key, value)?,
                "type_tolerance" => config.type_tolerance = f64_field(key, value)?,
                "uniqueness_review_threshold" => {
                    config.uniqueness_review_threshold = f64_field(key, value)?
                }
                "confidence_threshold" => config.confidence_threshold = f64_field(key, value)?,
                "statistical_context" => config.statistical_context = bool_field(key, value)?,
                "threads" => {
                    config.threads = match value {
                        Json::Null => None,
                        other => Some(usize_field(key, other)?),
                    }
                }
                "issues" => apply_issue_toggles(&mut config.issues, value)?,
                other => {
                    return Err(CoreError::Config(format!("unknown config field \"{other}\"")))
                }
            }
        }
        config.validated()
    }

    /// The JSON wire form of this config (round-trips through
    /// [`from_json`](Self::from_json)).
    pub fn to_json(&self) -> Json {
        let issues = Json::object([
            ("string_outliers".into(), Json::Bool(self.issues.string_outliers)),
            ("pattern_outliers".into(), Json::Bool(self.issues.pattern_outliers)),
            ("disguised_missing".into(), Json::Bool(self.issues.disguised_missing)),
            ("column_type".into(), Json::Bool(self.issues.column_type)),
            ("numeric_outliers".into(), Json::Bool(self.issues.numeric_outliers)),
            ("functional_dependencies".into(), Json::Bool(self.issues.functional_dependencies)),
            ("duplication".into(), Json::Bool(self.issues.duplication)),
            ("uniqueness".into(), Json::Bool(self.issues.uniqueness)),
        ]);
        Json::object([
            ("sample_size".into(), Json::Number(self.sample_size as f64)),
            ("batch_size".into(), Json::Number(self.batch_size as f64)),
            ("fd_min_strength".into(), Json::Number(self.fd_min_strength)),
            ("fd_max_unique_ratio".into(), Json::Number(self.fd_max_unique_ratio)),
            ("type_tolerance".into(), Json::Number(self.type_tolerance)),
            ("uniqueness_review_threshold".into(), Json::Number(self.uniqueness_review_threshold)),
            ("confidence_threshold".into(), Json::Number(self.confidence_threshold)),
            ("statistical_context".into(), Json::Bool(self.statistical_context)),
            (
                "threads".into(),
                match self.threads {
                    Some(n) => Json::Number(n as f64),
                    None => Json::Null,
                },
            ),
            ("issues".into(), issues),
        ])
    }

    /// The profiling options this configuration implies — the bridge from
    /// pipeline thresholds to [`ProfileOptions`]. A
    /// [`TableProfile`](cocoon_profile::TableProfile) computed under these
    /// options holds the same statistics the pipeline's stages derive from
    /// the live table in their detect phases.
    pub fn profile_options(&self) -> ProfileOptions {
        ProfileOptions {
            type_tolerance: self.type_tolerance,
            fd_min_strength: self.fd_min_strength,
            fd_max_unique_ratio: self.fd_max_unique_ratio,
            exact_patterns: true,
        }
    }

    /// A configuration with every semantic step disabled except `only` —
    /// used by ablations.
    pub fn only_issue(issue: &str) -> Self {
        let mut toggles = IssueToggles {
            string_outliers: false,
            pattern_outliers: false,
            disguised_missing: false,
            column_type: false,
            numeric_outliers: false,
            functional_dependencies: false,
            duplication: false,
            uniqueness: false,
        };
        match issue {
            "string_outliers" => toggles.string_outliers = true,
            "pattern_outliers" => toggles.pattern_outliers = true,
            "disguised_missing" => toggles.disguised_missing = true,
            "column_type" => toggles.column_type = true,
            "numeric_outliers" => toggles.numeric_outliers = true,
            "functional_dependencies" => toggles.functional_dependencies = true,
            "duplication" => toggles.duplication = true,
            "uniqueness" => toggles.uniqueness = true,
            _ => {}
        }
        CleanerConfig { issues: toggles, ..CleanerConfig::default() }
    }
}

fn bool_field(key: &str, value: &Json) -> Result<bool> {
    value
        .as_bool()
        .ok_or_else(|| CoreError::Config(format!("\"{key}\" must be a boolean, got {value}")))
}

fn f64_field(key: &str, value: &Json) -> Result<f64> {
    value
        .as_f64()
        .ok_or_else(|| CoreError::Config(format!("\"{key}\" must be a number, got {value}")))
}

fn usize_field(key: &str, value: &Json) -> Result<usize> {
    let n = f64_field(key, value)?;
    if n < 0.0 || n.fract() != 0.0 || n > usize::MAX as f64 {
        return Err(CoreError::Config(format!(
            "\"{key}\" must be a non-negative integer, got {value}"
        )));
    }
    Ok(n as usize)
}

fn apply_issue_toggles(toggles: &mut IssueToggles, json: &Json) -> Result<()> {
    let Some(members) = json.as_object() else {
        return Err(CoreError::Config(format!("\"issues\" must be a JSON object, got {json}")));
    };
    for (key, value) in members {
        let on = bool_field(key, value)?;
        match key.as_str() {
            "string_outliers" => toggles.string_outliers = on,
            "pattern_outliers" => toggles.pattern_outliers = on,
            "disguised_missing" => toggles.disguised_missing = on,
            "column_type" => toggles.column_type = on,
            "numeric_outliers" => toggles.numeric_outliers = on,
            "functional_dependencies" => toggles.functional_dependencies = on,
            "duplication" => toggles.duplication = on,
            "uniqueness" => toggles.uniqueness = on,
            other => return Err(CoreError::Config(format!("unknown issue toggle \"{other}\""))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let c = CleanerConfig::default();
        assert_eq!(c.sample_size, 1000);
        assert_eq!(c.batch_size, 1000);
        assert!(c.issues.string_outliers && c.issues.uniqueness);
    }

    #[test]
    fn validation() {
        assert!(CleanerConfig::default().validated().is_ok());
        let bad = CleanerConfig { sample_size: 0, ..CleanerConfig::default() };
        assert!(bad.validated().is_err());
        let bad = CleanerConfig { fd_min_strength: 1.5, ..CleanerConfig::default() };
        assert!(bad.validated().is_err());
        let bad = CleanerConfig { confidence_threshold: 1.5, ..CleanerConfig::default() };
        assert!(bad.validated().is_err());
        let ok = CleanerConfig { confidence_threshold: 0.9, ..CleanerConfig::default() };
        assert!(ok.validated().is_ok());
        let bad = CleanerConfig { threads: Some(0), ..CleanerConfig::default() };
        assert!(bad.validated().is_err());
        let ok = CleanerConfig { threads: Some(8), ..CleanerConfig::default() };
        assert!(ok.validated().is_ok());
    }

    #[test]
    fn json_round_trip_preserves_config() {
        let config = CleanerConfig {
            sample_size: 42,
            threads: Some(3),
            statistical_context: false,
            confidence_threshold: 0.75,
            issues: CleanerConfig::only_issue("column_type").issues,
            ..CleanerConfig::default()
        };
        let round = CleanerConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(round, config);
    }

    #[test]
    fn partial_json_overlays_defaults() {
        let json = cocoon_llm::json::parse(
            r#"{"threads": 1, "issues": {"functional_dependencies": false}}"#,
        )
        .unwrap();
        let config = CleanerConfig::from_json(&json).unwrap();
        assert_eq!(config.threads, Some(1));
        assert!(!config.issues.functional_dependencies);
        // Everything else keeps the paper defaults.
        assert_eq!(config.sample_size, 1000);
        assert!(config.issues.string_outliers);
    }

    #[test]
    fn empty_object_is_the_default_config() {
        let json = cocoon_llm::json::parse("{}").unwrap();
        assert_eq!(CleanerConfig::from_json(&json).unwrap(), CleanerConfig::default());
    }

    #[test]
    fn bad_json_configs_are_rejected() {
        for (raw, why) in [
            (r#"[1, 2]"#, "not an object"),
            (r#"{"sample_szie": 10}"#, "unknown field"),
            (r#"{"sample_size": "ten"}"#, "wrong type"),
            (r#"{"sample_size": 2.5}"#, "non-integer"),
            (r#"{"threads": -1}"#, "negative"),
            (r#"{"threads": 0}"#, "validation: zero threads"),
            (r#"{"fd_min_strength": 3.0}"#, "validation: out of range"),
            (r#"{"confidence_threshold": -0.5}"#, "validation: threshold out of range"),
            (r#"{"confidence_threshold": "high"}"#, "threshold wrong type"),
            (r#"{"issues": {"string_outliers": "yes"}}"#, "toggle wrong type"),
            (r#"{"issues": {"nope": true}}"#, "unknown toggle"),
            (r#"{"issues": [true]}"#, "toggles not an object"),
        ] {
            let json = cocoon_llm::json::parse(raw).unwrap();
            assert!(CleanerConfig::from_json(&json).is_err(), "{why}: {raw}");
        }
    }

    #[test]
    fn null_threads_means_environment_default() {
        let json = cocoon_llm::json::parse(r#"{"threads": null}"#).unwrap();
        assert_eq!(CleanerConfig::from_json(&json).unwrap().threads, None);
    }

    #[test]
    fn profile_options_mirror_pipeline_thresholds() {
        let config = CleanerConfig {
            type_tolerance: 0.5,
            fd_min_strength: 0.7,
            fd_max_unique_ratio: 0.8,
            ..CleanerConfig::default()
        };
        let options = config.profile_options();
        assert_eq!(options.type_tolerance, 0.5);
        assert_eq!(options.fd_min_strength, 0.7);
        assert_eq!(options.fd_max_unique_ratio, 0.8);
        assert!(options.exact_patterns);
    }

    #[test]
    fn only_issue_isolates() {
        let c = CleanerConfig::only_issue("column_type");
        assert!(c.issues.column_type);
        assert!(!c.issues.string_outliers);
        assert!(!c.issues.functional_dependencies);
    }
}
