//! Clean the Hospital benchmark end to end and score the run against the
//! ground truth, reproducing Cocoon's row of Table 1 for this dataset.
//!
//! ```sh
//! cargo run --release --example hospital_cleaning
//! ```

use cocoon_core::{issue_summary, Cleaner};
use cocoon_eval::{evaluate, Equivalence};
use cocoon_llm::{SimLlm, Transcript};

fn main() {
    let dataset = cocoon_datasets::hospital::generate();
    println!(
        "Hospital benchmark: {} with {} annotated errors",
        dataset.size_label(),
        dataset.annotations.len()
    );

    let cleaner = Cleaner::new(Transcript::new(SimLlm::new()));
    let run = cleaner.clean(&dataset.dirty).expect("pipeline");

    println!("\nrepairs per issue type:");
    for (issue, ops, cells) in issue_summary(&run) {
        println!("  §{} {:<24} {ops:>3} ops, {cells:>5} cells", issue.section(), issue.name());
    }

    let lenient = evaluate(&dataset.dirty, &run.table, &dataset.truth, Equivalence::Lenient);
    let strict = evaluate(&dataset.dirty, &run.table, &dataset.truth, Equivalence::Strict);
    println!("\nTable-1 conventions (lenient): {}   (paper: 0.87 0.93 0.90)", lenient.prf);
    println!("Table-3 conventions (strict) : {}   (paper: 0.99 0.99 0.99)", strict.prf);

    let llm = cleaner.llm();
    println!(
        "\nLLM usage: {} model round trips, {} prompts, {} prompt + {} completion tokens",
        llm.round_trips(),
        llm.exchange_count(),
        llm.total_usage().prompt_tokens,
        llm.total_usage().completion_tokens
    );
}
