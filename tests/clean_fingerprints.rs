//! Output pins for every catalog dataset: the cleaned CSV, the SQL script
//! and the notes of a default clean (canonical seed, cold `SimLlm`) hash to
//! recorded FNV-1a constants.
//!
//! A change that means to keep outputs byte-identical (a speed-up, a
//! refactor) must leave every constant alone. A change that alters output
//! on purpose records the new values here, in the same commit, and says
//! why. Each dataset is its own test so the five cleans run concurrently
//! and a failure names the dataset and the artifact that moved.

use cocoon_core::{Cleaner, CleaningRun};
use cocoon_llm::SimLlm;
use cocoon_table::csv;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// `[cleaned CSV, SQL script, notes]` hashes; notes are joined by `\n`.
fn fingerprints(run: &CleaningRun) -> [u64; 3] {
    [
        fnv1a(csv::write_str(&run.table).as_bytes()),
        fnv1a(run.sql_script().as_bytes()),
        fnv1a(run.notes.join("\n").as_bytes()),
    ]
}

fn check(name: &str, recorded: [u64; 3]) {
    let dataset = cocoon_datasets::catalog::by_name(name).expect("catalog dataset");
    let run = Cleaner::new(SimLlm::new()).clean(&dataset.dirty).expect("clean");
    let actual = fingerprints(&run);
    let moved: Vec<&str> = ["cleaned CSV", "SQL script", "notes"]
        .into_iter()
        .zip(actual.iter().zip(&recorded))
        .filter(|(_, (a, r))| a != r)
        .map(|(artifact, _)| artifact)
        .collect();
    let now = actual.map(|hash| format!("{hash:#018x}")).join(", ");
    assert!(moved.is_empty(), "{name}: {moved:?} moved; fingerprints now [{now}]");
}

#[test]
fn hospital_clean_matches_its_fingerprint() {
    check("Hospital", [0x40dc2be2b6443f71, 0x340f21095834baaa, 0x238b0c2319e1f9cd]);
}

#[test]
fn flights_clean_matches_its_fingerprint() {
    check("Flights", [0xa1a77661ca2a17dc, 0xdff59160d4d9eebe, 0xe644b15b9a211ef9]);
}

#[test]
fn beers_clean_matches_its_fingerprint() {
    check("Beers", [0x800b1e1ffcc36a3d, 0xd22b1dac2578cb33, 0x1bbf84aba8c0b6ad]);
}

#[test]
fn rayyan_clean_matches_its_fingerprint() {
    check("Rayyan", [0xc32d0378a9850893, 0x82cfb534a293050e, 0x399c9b9617c4f4bf]);
}

#[test]
fn movies_clean_matches_its_fingerprint() {
    check("Movies", [0x51514a5e6a740937, 0x53c1d5ad85e8613d, 0xc08d0f58b98ddc37]);
}
