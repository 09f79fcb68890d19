//! Output and prompt pins for every catalog dataset: the cleaned CSV, the
//! SQL script and the notes of a default clean (canonical seed, cold
//! `SimLlm`) hash to recorded FNV-1a constants, and so do the prompts that
//! clean sends, in send order, with their count.
//!
//! The prompt pins matter on their own: `SimLlm` reads only a prompt's
//! parsed context, so a context number written as `1.0` instead of `1`
//! would leave every output alone while it changed every cache key, replay
//! key and token count, and what a hosted model reads.
//!
//! The decide protocol is pinned under hooks too: per dataset, the outputs
//! of a clean under `RejectIssues` over every kind and under a hook that
//! approves every detection and rejects every cleaning review, the
//! sequence of reviews a `RecordingHook` sees, and everything the second
//! hook's reviews show (evidence, reasoning, explanation, mapping, SQL).
//!
//! A change that means to keep outputs byte-identical (a speed-up, a
//! refactor) must leave every constant alone. A change that alters output
//! on purpose records the new values here, in the same commit, and says
//! why. Each dataset is its own test so the five cleans run concurrently
//! and a failure names the dataset and the artifact that moved.

use cocoon_core::{
    Cleaner, CleaningReview, CleaningRun, Decision, DecisionHook, DetectionReview, RecordingHook,
    RejectIssues, STAGE_ORDER,
};
use cocoon_llm::{SimLlm, Transcript};
use cocoon_table::csv;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64-bit, continued from `hash` over `bytes`.
fn fnv1a_from(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// One FNV-1a over every prompt in send order, each prefixed by its byte
/// length so that no two prompt lists share a stream.
fn prompts_fingerprint<'a>(prompts: impl IntoIterator<Item = &'a str>) -> u64 {
    prompts.into_iter().fold(FNV_OFFSET, |hash, prompt| {
        fnv1a_from(fnv1a_from(hash, &(prompt.len() as u64).to_le_bytes()), prompt.as_bytes())
    })
}

/// `[cleaned CSV, SQL script, notes]` hashes; notes are joined by `\n`.
fn fingerprints(run: &CleaningRun) -> [u64; 3] {
    [
        fnv1a(csv::write_str(&run.table).as_bytes()),
        fnv1a(run.sql_script().as_bytes()),
        fnv1a(run.notes.join("\n").as_bytes()),
    ]
}

/// Checks the outputs' `[cleaned CSV, SQL script, notes]` fingerprints and
/// the `(fingerprint, count)` of the prompts sent, which a `Transcript`
/// records in send order (one model call per prompt wave, each listing its
/// prompts in unit order, so the order is the same at any thread count).
fn check(name: &str, outputs: [u64; 3], prompts: (u64, usize)) {
    let dataset = cocoon_datasets::catalog::by_name(name).expect("catalog dataset");
    let cleaner = Cleaner::new(Transcript::new(SimLlm::new()));
    let run = cleaner.clean(&dataset.dirty).expect("clean");
    let actual = fingerprints(&run);
    let mut moved: Vec<&str> = ["cleaned CSV", "SQL script", "notes"]
        .into_iter()
        .zip(actual.iter().zip(&outputs))
        .filter(|(_, (a, r))| a != r)
        .map(|(artifact, _)| artifact)
        .collect();
    let exchanges = cleaner.llm().exchanges();
    let sent = (prompts_fingerprint(exchanges.iter().map(|e| e.prompt.as_str())), exchanges.len());
    if sent.0 != prompts.0 {
        moved.push("prompts");
    }
    if sent.1 != prompts.1 {
        moved.push("prompt count");
    }
    let now = actual.map(|hash| format!("{hash:#018x}")).join(", ");
    assert!(
        moved.is_empty(),
        "{name}: {moved:?} moved; fingerprints now [{now}], prompts now ({:#018x}, {})",
        sent.0,
        sent.1
    );
}

/// Approves every detection and rejects every cleaning review, so no repair
/// applies. Keeps what every review showed, one line each, strings
/// `Debug`-quoted.
#[derive(Default)]
struct RejectCleanings(String);

impl DecisionHook for RejectCleanings {
    fn review_detection(&mut self, review: &DetectionReview<'_>) -> Decision {
        self.0.push_str(&format!(
            "detect {} {:?} {:?} {:?}\n",
            review.issue.key(),
            review.column,
            review.statistical_evidence,
            review.llm_reasoning
        ));
        Decision::Approve
    }

    fn review_cleaning(&mut self, review: &CleaningReview<'_>) -> Decision {
        self.0.push_str(&format!(
            "clean {} {:?} {:?} {:?} {:?}\n",
            review.issue.key(),
            review.column,
            review.llm_explanation,
            review.mapping,
            review.sql_preview()
        ));
        Decision::Reject
    }
}

/// FNV-1a of the reviews `hook` recorded: each detection review's kind and
/// column, then each cleaning review's kind and mapping size, one a line.
fn recorded_reviews(hook: &RecordingHook) -> u64 {
    let detections =
        hook.detections.iter().map(|(kind, column)| format!("detect {} {column:?}\n", kind.key()));
    let cleanings =
        hook.cleanings.iter().map(|(kind, pairs)| format!("clean {} {pairs}\n", kind.key()));
    fnv1a(detections.chain(cleanings).collect::<String>().as_bytes())
}

/// Checks the decide protocol under hooks: the `[cleaned CSV, SQL script,
/// notes]` fingerprints of a clean under `RejectIssues` over every kind and
/// under [`RejectCleanings`], and `[recorded_reviews of a RecordingHook
/// clean, FNV-1a of what RejectCleanings was shown]`. The `RecordingHook`
/// approves everything, so its outputs are the default clean's that
/// `check` pins.
fn check_reviews(
    name: &str,
    reject_issues: [u64; 3],
    reject_cleanings: [u64; 3],
    reviews: [u64; 2],
) {
    let dataset = cocoon_datasets::catalog::by_name(name).expect("catalog dataset");
    let cleaner = Cleaner::new(SimLlm::new());
    let clean_under = |hook: &mut dyn DecisionHook| {
        cleaner.clean_observed(&dataset.dirty, hook, None).expect("clean")
    };
    let mut recorder = RecordingHook::default();
    clean_under(&mut recorder);
    let mut rejecter = RejectCleanings::default();
    let actual = [
        fingerprints(&clean_under(&mut RejectIssues { rejected: STAGE_ORDER.to_vec() })),
        fingerprints(&clean_under(&mut rejecter)),
    ];
    let shown = [recorded_reviews(&recorder), fnv1a(rejecter.0.as_bytes())];
    let hex = |hashes: &[u64]| {
        hashes.iter().map(|hash| format!("{hash:#018x}")).collect::<Vec<_>>().join(", ")
    };
    assert!(
        (actual, shown) == ([reject_issues, reject_cleanings], reviews),
        "{name}: hook pins moved; now [{}], [{}], [{}]",
        hex(&actual[0]),
        hex(&actual[1]),
        hex(&shown)
    );
}

#[test]
fn hospital_clean_matches_its_fingerprint() {
    check(
        "Hospital",
        [0x40dc2be2b6443f71, 0x340f21095834baaa, 0x238b0c2319e1f9cd],
        (0xe81a928e55349800, 174),
    );
}

#[test]
fn flights_clean_matches_its_fingerprint() {
    check(
        "Flights",
        [0xa1a77661ca2a17dc, 0xdff59160d4d9eebe, 0xe644b15b9a211ef9],
        (0x6cadea843c2a9553, 60),
    );
}

#[test]
fn beers_clean_matches_its_fingerprint() {
    check(
        "Beers",
        [0x800b1e1ffcc36a3d, 0xd22b1dac2578cb33, 0x1bbf84aba8c0b6ad],
        (0x1dd7588ee67ac3c5, 67),
    );
}

#[test]
fn rayyan_clean_matches_its_fingerprint() {
    check(
        "Rayyan",
        [0xc32d0378a9850893, 0x82cfb534a293050e, 0x399c9b9617c4f4bf],
        (0x96eb7e30fb117b09, 76),
    );
}

#[test]
fn movies_clean_matches_its_fingerprint() {
    check(
        "Movies",
        [0x51514a5e6a740937, 0x53c1d5ad85e8613d, 0xc08d0f58b98ddc37],
        (0xd35224ec5eaba32a, 118),
    );
}

#[test]
fn hospital_reviews_match_their_fingerprints() {
    check_reviews(
        "Hospital",
        [0x68571234a682e3f3, 0xcbf29ce484222325, 0x68799fbf1fb9ca35],
        [0x68571234a682e3f3, 0xcbf29ce484222325, 0x68799fbf1fb9ca35],
        [0x999db63dda9e71f0, 0xe75b2cb851f78503],
    );
}

#[test]
fn flights_reviews_match_their_fingerprints() {
    check_reviews(
        "Flights",
        [0xbb9edeb04566ffba, 0xcbf29ce484222325, 0x3f1c04f44d32a18b],
        [0xbb9edeb04566ffba, 0xcbf29ce484222325, 0x3f1c04f44d32a18b],
        [0xece14b00b0146f2d, 0xcac97c25e0c821f7],
    );
}

#[test]
fn beers_reviews_match_their_fingerprints() {
    check_reviews(
        "Beers",
        [0xba4aaab553764e54, 0xcbf29ce484222325, 0x1cf685f4fc70fa62],
        [0xba4aaab553764e54, 0xcbf29ce484222325, 0x1cf685f4fc70fa62],
        [0xefa4236c5649658e, 0xc1b30da8446eb373],
    );
}

#[test]
fn rayyan_reviews_match_their_fingerprints() {
    check_reviews(
        "Rayyan",
        [0x72083a6f412525ee, 0xcbf29ce484222325, 0xc003f82e1daa12c9],
        [0x72083a6f412525ee, 0xcbf29ce484222325, 0xc003f82e1daa12c9],
        [0xacc057a050d66a75, 0xb06f9df452c37110],
    );
}

#[test]
fn movies_reviews_match_their_fingerprints() {
    check_reviews(
        "Movies",
        [0x4743be320569030b, 0xcbf29ce484222325, 0x616f34e64db760f4],
        [0x4743be320569030b, 0xcbf29ce484222325, 0x616f34e64db760f4],
        [0x1e81133d78edfd62, 0xe92fdef87d11f58c],
    );
}
