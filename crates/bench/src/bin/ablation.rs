//! Ablation harness for four of Cocoon's design choices:
//!
//! 1. statistical context in prompts — on vs off (the paper's claim that
//!    statistics give the LLM the context it needs);
//! 2. string-outlier batch size (paper default 1000) — sweep;
//! 3. issue ordering (§2.1 note) — full pipeline vs column-type-first;
//! 4. per-issue contribution — each issue type alone.
//!
//! ```sh
//! cargo run --release -p cocoon-bench --bin ablation
//! ```

use cocoon_core::{Cleaner, CleanerConfig, IssueKind, STAGE_ORDER};
use cocoon_eval::{evaluate, Equivalence, Prf};
use cocoon_llm::{SimLlm, Transcript};

/// Scores one clean, with what it asked of the model.
fn score(config: CleanerConfig, dataset: &cocoon_datasets::Dataset) -> (Prf, String) {
    let cleaner =
        Cleaner::with_config(Transcript::new(SimLlm::new()), config).expect("valid config");
    let run = cleaner.clean(&dataset.dirty).expect("pipeline");
    let eval = evaluate(&dataset.dirty, &run.table, &dataset.truth, Equivalence::Lenient);
    let llm = cleaner.llm();
    (eval.prf, format!("{} model round trips, {} prompts", llm.round_trips(), llm.exchange_count()))
}

fn main() {
    let hospital = cocoon_datasets::hospital::generate();
    let rayyan = cocoon_datasets::rayyan::generate();

    println!("== Ablation 1: statistical context in prompts (Hospital, Rayyan)");
    for (name, dataset) in [("Hospital", &hospital), ("Rayyan", &rayyan)] {
        for statistical_context in [true, false] {
            let config = CleanerConfig { statistical_context, ..CleanerConfig::default() };
            let (prf, usage) = score(config, dataset);
            println!(
                "  {name:<9} statistics={statistical_context:<5}  P {:.2}  R {:.2}  F {:.2}  ({usage})",
                prf.precision, prf.recall, prf.f1
            );
        }
    }

    println!("\n== Ablation 2: string-outlier batch size (Rayyan)");
    for batch_size in [10usize, 50, 200, 1000, 2000] {
        let config = CleanerConfig { batch_size, ..CleanerConfig::default() };
        let (prf, usage) = score(config, &rayyan);
        println!(
            "  batch {batch_size:>5}  P {:.2}  R {:.2}  F {:.2}  ({usage})",
            prf.precision, prf.recall, prf.f1
        );
    }

    println!("\n== Ablation 3: per-issue contribution (Hospital)");
    // Every stage but the two row-level ones (duplication, uniqueness).
    for &issue in &STAGE_ORDER[..6] {
        let (prf, _) = score(CleanerConfig::only_issue(issue), &hospital);
        println!(
            "  only {:<24}  P {:.2}  R {:.2}  F {:.2}",
            issue.key(),
            prf.precision,
            prf.recall,
            prf.f1
        );
    }
    let (full, _) = score(CleanerConfig::default(), &hospital);
    println!(
        "  full pipeline                 P {:.2}  R {:.2}  F {:.2}",
        full.precision, full.recall, full.f1
    );

    println!("\n== Ablation 4: issue ordering (Hospital; §2.1 note)");
    println!("  The paper argues typos must be fixed before patterns, patterns before");
    println!("  casts, casts before numeric review. Running ONLY the later stages");
    println!("  (no string-outlier pass first) shows the dependency:");
    let mut no_strings = CleanerConfig::default();
    no_strings.issues.set(IssueKind::StringOutliers, false);
    let (prf, _) = score(no_strings, &hospital);
    println!(
        "  without string outliers first  P {:.2}  R {:.2}  F {:.2}",
        prf.precision, prf.recall, prf.f1
    );
    println!(
        "  full order                     P {:.2}  R {:.2}  F {:.2}",
        full.precision, full.recall, full.f1
    );

    println!("\n== Ablation 5: FD entropy threshold (Hospital)");
    for fd_min_strength in [0.95f64, 0.9, 0.8, 0.7, 0.6] {
        let config = CleanerConfig { fd_min_strength, ..CleanerConfig::default() };
        let (prf, _) = score(config, &hospital);
        println!(
            "  strength ≥ {fd_min_strength:.2}  P {:.2}  R {:.2}  F {:.2}",
            prf.precision, prf.recall, prf.f1
        );
    }
}
