//! Value pools for dataset synthesis.
//!
//! The original benchmark CSVs cannot be fetched offline; the generators
//! compose rows from these pools instead, at the papers' scales and error
//! mixes (the crate docs and the README's opening section give the
//! substitution argument).

/// Hospital condition names (from the real Hospital benchmark's domain).
pub const CONDITIONS: &[&str] = &[
    "Heart Attack",
    "Heart Failure",
    "Pneumonia",
    "Surgical Infection Prevention",
    "Children's Asthma Care",
];

/// (measure code, measure name) pairs, hospital-benchmark style.
pub const MEASURES: &[(&str, &str)] = &[
    ("AMI-1", "aspirin at arrival"),
    ("AMI-2", "aspirin at discharge"),
    ("AMI-3", "ace inhibitor for lvsd"),
    ("AMI-4", "adult smoking cessation advice"),
    ("AMI-5", "beta blocker at discharge"),
    ("HF-1", "discharge instructions"),
    ("HF-2", "evaluation of lvs function"),
    ("HF-3", "ace inhibitor or arb for lvsd"),
    ("HF-4", "adult smoking cessation counseling"),
    ("PN-2", "pneumococcal vaccination"),
    ("PN-3B", "blood culture before antibiotic"),
    ("PN-4", "smoking cessation advice"),
    ("PN-5C", "initial antibiotic within 6 hours"),
    ("PN-6", "appropriate initial antibiotic"),
    ("PN-7", "influenza vaccination"),
    ("SCIP-CARD-2", "beta blocker perioperative"),
    ("SCIP-INF-1", "antibiotic within one hour"),
    ("SCIP-INF-2", "appropriate prophylactic antibiotic"),
    ("SCIP-INF-3", "antibiotic discontinued timely"),
    ("SCIP-VTE-1", "vte prophylaxis ordered"),
];

/// Hospital type / owner domains.
pub const HOSPITAL_TYPES: &[&str] =
    &["acute care hospitals", "critical access hospitals", "childrens hospitals"];
pub const HOSPITAL_OWNERS: &[&str] = &[
    "government - federal",
    "government - state",
    "government - local",
    "voluntary non-profit - private",
    "voluntary non-profit - church",
    "proprietary",
];

/// Street name fragments for addresses.
pub const STREETS: &[&str] = &[
    "main street",
    "oak avenue",
    "university boulevard",
    "washington street",
    "church street",
    "highland avenue",
    "park road",
    "riverside drive",
    "jefferson street",
    "college avenue",
    "maple lane",
    "elm street",
];

/// County names (hospital benchmark counties are real US counties).
pub const COUNTIES: &[&str] = &[
    "jefferson",
    "mobile",
    "madison",
    "montgomery",
    "tuscaloosa",
    "houston",
    "shelby",
    "baldwin",
    "calhoun",
    "etowah",
    "lauderdale",
    "morgan",
    "maricopa",
    "pima",
    "travis",
    "dallas",
    "harris",
    "bexar",
    "king",
    "fulton",
];

/// Airline codes for Flights.
pub const CARRIERS: &[&str] = &["AA", "UA", "DL", "WN", "B6", "AS", "NK", "F9"];

/// Airport codes for Flights.
pub const AIRPORTS: &[&str] = &[
    "ORD", "PHX", "LAX", "JFK", "ATL", "DFW", "DEN", "SFO", "SEA", "MIA", "BOS", "LGA", "IAH",
    "MSP", "DTW", "PHL",
];

/// Flight data sources (the real benchmark aggregates web sources).
pub const FLIGHT_SOURCES: &[&str] =
    &["aa", "airtravelcenter", "flightview", "flightaware", "orbitz", "travelocity"];

/// Beer style names.
pub const BEER_STYLES: &[&str] = &[
    "american ipa",
    "american pale ale",
    "american amber ale",
    "american porter",
    "american stout",
    "hefeweizen",
    "witbier",
    "saison",
    "kolsch",
    "pilsner",
    "american blonde ale",
    "american brown ale",
    "scotch ale",
    "oatmeal stout",
    "fruit beer",
    "english brown ale",
    "cream ale",
    "american double ipa",
];

/// Beer-name fragments.
pub const BEER_ADJECTIVES: &[&str] = &[
    "hoppy", "golden", "dark", "wild", "lazy", "raging", "crooked", "lucky", "iron", "copper",
    "rebel", "noble", "royal", "rustic", "velvet", "amber",
];
pub const BEER_NOUNS: &[&str] = &[
    "trail", "river", "moon", "bear", "fox", "anchor", "hammer", "wolf", "summit", "canyon",
    "harbor", "prairie", "raven", "bison", "lantern", "orchard",
];

/// Brewery-name fragments.
pub const BREWERY_SUFFIXES: &[&str] =
    &["brewing company", "brewery", "beer company", "ales", "brewing cooperative"];

/// Journal titles for Rayyan.
pub const JOURNALS: &[(&str, &str, &str)] = &[
    ("journal of clinical epidemiology", "j clin epidemiol", "0895-4356"),
    ("systematic reviews", "syst rev", "2046-4053"),
    ("annals of internal medicine", "ann intern med", "0003-4819"),
    ("the lancet", "lancet", "0140-6736"),
    ("british medical journal", "bmj", "0959-8138"),
    ("journal of the american medical association", "jama", "0098-7484"),
    ("new england journal of medicine", "n engl j med", "0028-4793"),
    ("cochrane database of systematic reviews", "cochrane db syst rev", "1469-493X"),
    ("plos medicine", "plos med", "1549-1277"),
    ("bmc medicine", "bmc med", "1741-7015"),
    ("american journal of epidemiology", "am j epidemiol", "0002-9262"),
    ("international journal of epidemiology", "int j epidemiol", "0300-5771"),
    ("journal of evidence based medicine", "j evid based med", "1756-5383"),
    ("trials", "trials", "1745-6215"),
    ("clinical trials", "clin trials", "1740-7745"),
];

/// Research-title fragments for Rayyan article titles.
pub const TITLE_TOPICS: &[&str] = &[
    "hypertension",
    "diabetes",
    "asthma",
    "influenza vaccination",
    "stroke",
    "breast cancer screening",
    "smoking cessation",
    "obesity",
    "depression",
    "antibiotic resistance",
    "heart failure",
    "chronic pain",
    "migraine",
    "osteoporosis",
    "dementia",
    "malaria",
    "tuberculosis",
    "hiv prevention",
];
pub const TITLE_PATTERNS: &[&str] = &[
    "a systematic review of {}",
    "randomized controlled trial of {} management",
    "effectiveness of {} interventions",
    "meta-analysis of {} outcomes",
    "cohort study of {} risk factors",
    "clinical guidelines for {}",
];

/// Author surname pool.
pub const SURNAMES: &[&str] = &[
    "smith",
    "johnson",
    "williams",
    "brown",
    "jones",
    "garcia",
    "miller",
    "davis",
    "rodriguez",
    "martinez",
    "wilson",
    "anderson",
    "taylor",
    "thomas",
    "moore",
    "jackson",
    "martin",
    "lee",
    "thompson",
    "white",
    "chen",
    "wang",
    "kumar",
    "patel",
    "kim",
    "nguyen",
    "ali",
    "khan",
];
pub const GIVEN_NAMES: &[&str] = &[
    "james",
    "mary",
    "robert",
    "patricia",
    "john",
    "jennifer",
    "michael",
    "linda",
    "david",
    "elizabeth",
    "william",
    "susan",
    "richard",
    "jessica",
    "wei",
    "priya",
    "ahmed",
    "yuki",
    "carlos",
    "fatima",
];

/// Movie-title fragments.
pub const MOVIE_ADJECTIVES: &[&str] = &[
    "silent",
    "broken",
    "hidden",
    "eternal",
    "crimson",
    "golden",
    "midnight",
    "savage",
    "gentle",
    "burning",
    "frozen",
    "distant",
    "electric",
    "sacred",
    "forgotten",
    "restless",
];
pub const MOVIE_NOUNS: &[&str] = &[
    "river", "empire", "shadow", "garden", "horizon", "promise", "journey", "kingdom", "echo",
    "storm", "harvest", "mirror", "voyage", "legacy", "symphony", "frontier",
];

/// Movie genres.
pub const GENRES: &[&str] = &[
    "Drama",
    "Comedy",
    "Action",
    "Thriller",
    "Romance",
    "Horror",
    "Documentary",
    "Animation",
    "Crime",
    "Adventure",
    "Fantasy",
    "Mystery",
];

/// Movie certificates.
pub const CERTIFICATES: &[&str] = &["G", "PG", "PG-13", "R", "NR", "U", "UA", "A"];

/// (country, language) pairs used for Movies rows; both spellings match the
/// semantic knowledge base so misplacements are repairable.
pub const MOVIE_COUNTRIES: &[(&str, &str)] = &[
    ("USA", "English"),
    ("India", "Hindi"),
    ("France", "French"),
    ("Italy", "Italian"),
    ("Japan", "Japanese"),
    ("Germany", "German"),
    ("China", "Chinese"),
    ("Spain", "Spanish"),
    ("Russia", "Russian"),
    ("South Korea", "Korean"),
];

/// Production-company fragments.
pub const STUDIO_WORDS: &[&str] = &[
    "paragon",
    "northstar",
    "bluebird",
    "monument",
    "silverlake",
    "beacon",
    "crescent",
    "atlas",
    "meridian",
    "pinnacle",
];

/// Deterministic pick from a pool.
pub fn pick<'a, T: ?Sized>(pool: &'a [&'a T], index: usize) -> &'a T {
    pool[index % pool.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_nonempty_and_pick_wraps() {
        assert!(MEASURES.len() >= 20);
        assert_eq!(pick(CONDITIONS, 0), CONDITIONS[0]);
        assert_eq!(pick(CONDITIONS, CONDITIONS.len()), CONDITIONS[0]);
        assert_eq!(pick(CONDITIONS, 7), CONDITIONS[7 % CONDITIONS.len()]);
    }

    #[test]
    fn movie_country_language_pairs_known_to_semantics() {
        for (country, language) in MOVIE_COUNTRIES {
            assert!(
                cocoon_semantic::is_country_token(country),
                "{country} missing from semantic KB"
            );
            assert!(
                cocoon_semantic::is_language_token(language),
                "{language} missing from semantic KB"
            );
        }
    }

    #[test]
    fn journals_have_unique_titles() {
        let mut titles: Vec<&str> = JOURNALS.iter().map(|(t, _, _)| *t).collect();
        titles.sort_unstable();
        titles.dedup();
        assert_eq!(titles.len(), JOURNALS.len());
    }
}
