//! No-panic properties for every parser that reads bytes from outside the
//! process: HTTP framing, streamed CSV, the JSON clean payload, the JSON
//! and YAML model-reply parsers with their typed response parsers, and the
//! SQL parser. Each may reject its input with an error, never panic. Then
//! round-trip properties for the writers whose output those parsers read
//! back: CSV tables and JSON strings.
//!
//! Inputs are arbitrary bytes plus byte strings spliced from fragments of
//! the format under test (framing headers, oversized hex chunk sizes, a
//! lone `"`, half a UTF-8 character), which reach the deep parser states
//! that uniform bytes almost never do.

use cocoon_llm::{json, responses, yaml, Json};
use cocoon_server::api::parse_clean_payload;
use cocoon_server::http::{HttpError, RequestReader};
use cocoon_table::csv::{self, CsvStream};
use cocoon_table::Table;
use proptest::collection;
use proptest::prelude::*;
use std::collections::HashSet;
use std::io::Read;

/// Half of `€` (U+20AC), then the other half: a character split across
/// two reads or two fragments.
const SPLIT_UTF8: [&[u8]; 2] = [b"\xe2\x82", b"\xac"];

/// Up to `parts` fragments, concatenated.
fn picked(fragments: &'static [&'static [u8]], parts: usize) -> BoxedStrategy<Vec<u8>> {
    collection::vec(0..fragments.len(), 0..parts)
        .prop_map(move |picks| picks.iter().flat_map(|&i| fragments[i].to_vec()).collect())
        .boxed()
}

/// Up to `parts` pieces, each a fragment or a few arbitrary bytes.
fn spliced(fragments: &'static [&'static [u8]], parts: usize) -> BoxedStrategy<Vec<u8>> {
    let piece = prop_oneof![3 => picked(fragments, 2), 1 => collection::vec(any::<u8>(), 0..6)];
    collection::vec(piece, 0..parts).prop_map(|pieces| pieces.concat()).boxed()
}

/// Arbitrary bytes or a splice of `fragments`.
fn wire_bytes(fragments: &'static [&'static [u8]]) -> BoxedStrategy<Vec<u8>> {
    prop_oneof![collection::vec(any::<u8>(), 0..512), spliced(fragments, 24)].boxed()
}

/// A reader handing out its bytes `step` at a time, so heads, chunk-size
/// lines and bodies split across reads.
struct Trickle {
    bytes: Vec<u8>,
    at: usize,
    step: usize,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.step).min(self.bytes.len() - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

const FRAMING: &[&[u8]] = &[
    b"Content-Length: 5\r\n",
    b"Content-Length: 99999999999999999999999\r\n",
    b"Transfer-Encoding: gzip\r\n",
    b"",
];

const HEADERS: &[&[u8]] = &[
    b"Content-Length: 6\r\n",
    b"Transfer-Encoding: chunked\r\n",
    b"Connection: close\r\n",
    b"X: \"\r\n",
    b"\n",
    SPLIT_UTF8[0],
];

/// Whole chunks (three valid ones, one whose size overflows the cap
/// arithmetic, two terminators) and fixed-length body bytes.
const BODY: &[&[u8]] = &[
    b"3\r\nabc\r\n",
    b"1;ext=\"\r\nx\r\n",
    b"2\r\n\xe2\x82\r\n",
    b"ffffffffffffffff\r\n",
    b"0\r\n\r\n",
    b"0\r\nTrailer: x\r\n\r\n",
    b"abcde",
];

/// A request line, a framing header (chunked half the time), more headers,
/// a blank line and a body of chunk-size lines and data, twice over for
/// pipelining; or arbitrary bytes.
fn http_bytes() -> BoxedStrategy<Vec<u8>> {
    let framing = prop_oneof![
        1 => Just(b"Transfer-Encoding: chunked\r\n".to_vec()),
        1 => (0..FRAMING.len()).prop_map(|i| FRAMING[i].to_vec()),
    ];
    let message =
        (framing, picked(HEADERS, 3), picked(BODY, 10)).prop_map(|(framing, headers, body)| {
            [b"POST / HTTP/1.1\r\n".to_vec(), framing, headers, b"\r\n".to_vec(), body].concat()
        });
    prop_oneof![
        collection::vec(any::<u8>(), 0..512),
        (message.clone(), message).prop_map(|(a, b)| [a, b].concat()),
    ]
    .boxed()
}

const CSV: &[&[u8]] =
    &[b",", b"\"", b"\"\"", b"\n", b"\r\n", b"\r", b"a", b"12", b"x,y\n", b"\xff"];

const JSON_AND_YAML: &[&[u8]] = &[
    b"```json\n",
    b"```yaml\n",
    b"```\n",
    b"{",
    b"}",
    b"[",
    b"]",
    b"\"",
    b":",
    b",",
    b"null",
    b"true",
    b"1e999",
    b"-",
    b"\\u12",
    b"\\",
    b"\"csv\": ",
    b"\"a\\nx\\n\"",
    b"\"columns\": [\"a\"], \"rows\": [[1]]",
    b"\"config\": {\"threads\": ",
    b"\"meaningful\": ",
    b"\"mapping\": {",
    b"\"confidence\": ",
    b"\"Confidence\": ",
    b"confidence: nan\n",
    b"confidence: 2\n",
    b"key: value\n",
    b"mapping:\n",
    b"  'a': 'b'\n",
    b"- x\n",
    b"  ",
    b"#",
    SPLIT_UTF8[0],
    SPLIT_UTF8[1],
];

const SQL: &[&[u8]] = &[
    b"SELECT ",
    b"*",
    b"a",
    b"\"b c\"",
    b", ",
    b" FROM t",
    b" WHERE ",
    b"CASE WHEN ",
    b" THEN ",
    b" ELSE ",
    b" END",
    b"(",
    b")",
    b"'",
    b"''",
    b"CAST(",
    b"TRY_CAST(",
    b" AS INTEGER",
    b"99999999999999999999",
    b"1e999",
    b"-",
    b" = ",
    b" AND ",
    b"NOT ",
    b" IS NULL",
    b" IN (",
    b" QUALIFY ROW_NUMBER() OVER (PARTITION BY a ORDER BY b) = 1",
    b"REGEXP_REPLACE(",
    SPLIT_UTF8[0],
];

/// A confidence as a model might state it: in range, out of range, or one
/// of the non-finite spellings `f64::from_str` accepts.
fn stated_confidence() -> BoxedStrategy<String> {
    let non_finite = prop_oneof![Just("nan"), Just("NaN"), Just("inf"), Just("-infinity")];
    prop_oneof![(-2.0f64..3.0).prop_map(|c| c.to_string()), non_finite.prop_map(String::from)]
        .boxed()
}

/// Reads every request off `bytes` through the incremental framing API,
/// the way the event loop does, until the stream fails or closes.
fn frame_all(bytes: Vec<u8>, step: usize, max_body: usize) {
    let mut reader = RequestReader::new(Trickle { bytes, at: 0, step }, max_body);
    let mut buf = [0u8; 7];
    loop {
        let Ok(head) = reader.next_head() else { return };
        let mut progress = reader.begin_body(&head);
        loop {
            match reader.read_body(&mut progress, &mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(HttpError::Closed | HttpError::Malformed(_) | HttpError::PayloadTooLarge) => {
                    return
                }
                Err(HttpError::Io(e)) => panic!("an in-memory source cannot fail: {e}"),
            }
        }
        assert!(progress.is_complete(), "Ok(0) means the body is complete");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn http_framing_never_panics(
        bytes in http_bytes(),
        step in 1usize..64,
        max_body in prop_oneof![Just(4usize), Just(64), Just(1 << 20)],
    ) {
        frame_all(bytes, step, max_body);
    }

    #[test]
    fn csv_stream_never_panics(
        bytes in wire_bytes(CSV),
        cuts in collection::vec(any::<usize>(), 0..4),
    ) {
        let mut cuts: Vec<usize> = cuts.iter().map(|cut| cut % (bytes.len() + 1)).collect();
        cuts.sort_unstable();
        let mut stream = CsvStream::new();
        let mut from = 0;
        let mut ok = true;
        for cut in cuts.into_iter().chain([bytes.len()]) {
            if stream.push_bytes(&bytes[from..cut]).is_err() {
                ok = false;
                break;
            }
            from = cut;
        }
        if ok {
            let _ = stream.finish_table();
        }
    }

    #[test]
    fn json_yaml_and_reply_parsers_never_panic(
        bytes in wire_bytes(JSON_AND_YAML),
        stated in stated_confidence(),
    ) {
        let _ = parse_clean_payload(&bytes);
        let text = String::from_utf8_lossy(&bytes);
        let _ = json::parse(&text);
        let _ = json::extract(&text);
        let _ = yaml::parse(&text);
        let _ = yaml::extract(&text);
        // Every confidence a reply parser returns is unstated or in [0, 1],
        // whether the bytes or a well-formed reply state it.
        let map = format!("confidence: {stated}\nmapping:\n  a: b\n");
        let verdict = format!("{{\"Unusualness\": true, \"Confidence\": {stated}}}");
        let confidences = [
            responses::parse_cleaning_map(&map).ok().map(|v| v.confidence),
            responses::parse_detect_verdict(&verdict).ok().map(|v| v.confidence),
            responses::parse_detect_verdict(&text).ok().map(|v| v.confidence),
            responses::parse_cleaning_map(&text).ok().map(|v| v.confidence),
            responses::parse_pattern_plan(&text).ok().map(|v| v.confidence),
            responses::parse_dmv_verdict(&text).ok().map(|v| v.confidence),
            responses::parse_type_verdict(&text).ok().map(|v| v.confidence),
            responses::parse_range_verdict(&text).ok().map(|v| v.confidence),
            responses::parse_fd_verdict(&text).ok().map(|v| v.confidence),
            responses::parse_dup_verdict(&text).ok().map(|v| v.confidence),
            responses::parse_unique_verdict(&text).ok().map(|v| v.confidence),
            responses::parse_repair_verdict(&text).ok().map(|v| v.confidence),
        ];
        for confidence in confidences.into_iter().flatten().flatten() {
            prop_assert!((0.0..=1.0).contains(&confidence), "confidence {confidence} in {text:?}");
        }
    }

    #[test]
    fn sql_parser_never_panics(bytes in wire_bytes(SQL)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = cocoon_sql::parse_select(&text);
        let _ = cocoon_sql::parse_expr(&text);
    }
}

/// Any character: often printable ASCII, sometimes one CSV must quote.
fn text_char() -> BoxedStrategy<char> {
    prop_oneof![
        2 => proptest::char::range('\0', char::MAX),
        2 => proptest::char::range(' ', '~'),
        1 => (0..4usize).prop_map(|i| [',', '"', '\r', '\n'][i]),
    ]
    .boxed()
}

/// Up to `max` characters; the empty string included.
fn text(max: usize) -> BoxedStrategy<String> {
    collection::vec(text_char(), 0..max + 1).prop_map(|chars| chars.into_iter().collect()).boxed()
}

/// An all-text table of 1–4 columns with distinct non-empty names and up
/// to 5 rows.
fn text_table() -> BoxedStrategy<Table> {
    (1usize..5)
        .prop_flat_map(|width| {
            let names = collection::vec(text(4), width).prop_filter("distinct names", |names| {
                let distinct: HashSet<&String> = names.iter().collect();
                distinct.len() == names.len() && names.iter().all(|name| !name.is_empty())
            });
            let rows = collection::vec(collection::vec(text(5), width), 0..6);
            (names, rows).prop_map(|(names, rows)| Table::from_text_rows(&names, &rows).unwrap())
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn csv_round_trips_text_tables(table in text_table()) {
        prop_assert_eq!(csv::read_str(&csv::write_str(&table)).unwrap(), table);
    }

    #[test]
    fn streamed_csv_round_trips_text_tables(
        table in text_table(),
        cuts in collection::vec(any::<usize>(), 0..4),
    ) {
        let bytes = csv::write_str(&table).into_bytes();
        let mut cuts: Vec<usize> = cuts.iter().map(|cut| cut % (bytes.len() + 1)).collect();
        cuts.sort_unstable();
        let mut stream = CsvStream::new();
        let mut from = 0;
        for cut in cuts.into_iter().chain([bytes.len()]) {
            stream.push_bytes(&bytes[from..cut]).unwrap();
            from = cut;
        }
        prop_assert_eq!(stream.finish_table().unwrap(), table);
    }

    #[test]
    fn json_escape_round_trips_strings(text in text(24)) {
        prop_assert_eq!(json::parse(&json::escape(&text)).unwrap(), Json::String(text));
    }

    #[test]
    fn ascii_only_json_strings_parse_back(text in text(24)) {
        prop_assert_eq!(json::parse(&ascii_only_json(&text)).unwrap(), Json::String(text));
    }
}

/// `text` as a JSON string literal in ASCII alone, as Python's `json.dumps`
/// writes by default: every control and non-ASCII character as `\uXXXX`,
/// and one above U+FFFF as its UTF-16 surrogate pair (RFC 8259 §7).
fn ascii_only_json(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            ' '..='~' => out.push(c),
            _ => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
        }
    }
    out.push('"');
    out
}

/// A million `[` is about 1 MB, far below the server's 8 MiB body cap. The
/// parser recurses once per level, and on a 2 MiB stack, the size a server
/// worker thread gets, recursion that deep overflows the stack, which aborts
/// the whole process where a panic would not. It must answer an error.
#[test]
fn a_million_nested_brackets_are_an_error_not_a_stack_overflow() {
    let rejected = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let brackets = "[".repeat(1_000_000);
            let payload = format!("{{\"csv\": {brackets}");
            (json::parse(&brackets).is_err(), parse_clean_payload(payload.as_bytes()).is_err())
        })
        .expect("spawn")
        .join()
        .expect("the parse returns");
    assert_eq!(rejected, (true, true));
}
