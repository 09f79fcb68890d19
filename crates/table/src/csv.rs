//! RFC-4180 CSV reading and writing, whole-document or streaming.
//!
//! The benchmark datasets travel as CSV (the format every baseline in the
//! paper consumes), so the substrate implements a complete quoted-field
//! reader/writer rather than a `split(',')` approximation.
//!
//! Parsing is built on [`CsvStream`], an incremental *push* parser: callers
//! feed it byte chunks of any size (a socket read loop, a chunked HTTP
//! body) and it assembles records without ever holding the whole document
//! as one string. [`parse_records`] and [`read_str`] are thin
//! whole-document wrappers over the same state machine, so the two paths
//! cannot drift apart.

use crate::error::{Result, TableError};
use crate::table::Table;
use std::fs;
use std::io::{Read, Write};
use std::path::Path;

/// An incremental RFC-4180 parser fed by byte chunks.
///
/// Supports quoted fields, embedded commas, embedded quotes (`""`),
/// embedded newlines inside quotes, and both `\n` and `\r\n` record
/// separators — chunk boundaries may fall anywhere, including inside a
/// multi-byte UTF-8 sequence or between the two quotes of a `""` escape.
///
/// ```
/// use cocoon_table::csv::CsvStream;
///
/// let mut stream = CsvStream::new();
/// stream.push_bytes(b"id,na").unwrap();
/// stream.push_bytes(b"me\n1,\"al").unwrap();
/// stream.push_bytes(b"ice\"\n").unwrap();
/// let records = stream.finish_records().unwrap();
/// assert_eq!(records, vec![vec!["id", "name"], vec!["1", "alice"]]);
/// ```
#[derive(Debug)]
pub struct CsvStream {
    records: Vec<Vec<String>>,
    record: Vec<String>,
    field: String,
    in_quotes: bool,
    /// Saw a `"` inside a quoted field; the next char decides whether it
    /// was a `""` escape or the closing quote. Spans chunk boundaries.
    quote_pending: bool,
    line: usize,
    any_char_in_record: bool,
    /// Trailing bytes of an incomplete UTF-8 sequence at a chunk boundary.
    carry: Vec<u8>,
}

/// Length of the UTF-8 sequence introduced by `first`, or `None` when
/// `first` cannot start a sequence.
fn utf8_sequence_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

impl Default for CsvStream {
    fn default() -> Self {
        CsvStream::new()
    }
}

impl CsvStream {
    /// An empty stream positioned at line 1.
    pub fn new() -> Self {
        CsvStream {
            records: Vec::new(),
            record: Vec::new(),
            field: String::new(),
            in_quotes: false,
            quote_pending: false,
            line: 1,
            any_char_in_record: false,
            carry: Vec::new(),
        }
    }

    fn bad_utf8(&self) -> TableError {
        TableError::Csv { line: self.line, message: "invalid utf-8".to_string() }
    }

    /// Feeds one chunk of bytes. Chunk boundaries are arbitrary; bytes that
    /// end mid-character are carried into the next call.
    pub fn push_bytes(&mut self, mut bytes: &[u8]) -> Result<()> {
        if !self.carry.is_empty() {
            // Complete the carried sequence first.
            let need = utf8_sequence_len(self.carry[0]).ok_or_else(|| self.bad_utf8())?;
            let take = (need - self.carry.len()).min(bytes.len());
            self.carry.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.carry.len() < need {
                return Ok(());
            }
            // `carried` is a local, so the parsed &str borrows no part of
            // `self` and can be fed straight back in.
            let carried = std::mem::take(&mut self.carry);
            let text = std::str::from_utf8(&carried).map_err(|_| self.bad_utf8())?;
            self.push_str(text)?;
        }
        match std::str::from_utf8(bytes) {
            Ok(text) => self.push_str(text),
            Err(e) if e.error_len().is_none() => {
                // Incomplete trailing sequence: parse the valid prefix and
                // carry the tail.
                let valid = e.valid_up_to();
                let (head, tail) = bytes.split_at(valid);
                self.carry.extend_from_slice(tail);
                self.push_str(std::str::from_utf8(head).expect("valid prefix"))
            }
            Err(_) => Err(self.bad_utf8()),
        }
    }

    /// Feeds one chunk of text.
    pub fn push_str(&mut self, text: &str) -> Result<()> {
        for c in text.chars() {
            self.push_char(c)?;
        }
        Ok(())
    }

    fn push_char(&mut self, c: char) -> Result<()> {
        if self.quote_pending {
            self.quote_pending = false;
            if c == '"' {
                // `""` escape: a literal quote, still inside the field.
                self.field.push('"');
                return Ok(());
            }
            // The pending quote closed the field; fall through to process
            // `c` outside quotes.
            self.in_quotes = false;
        }
        if self.in_quotes {
            match c {
                '"' => self.quote_pending = true,
                '\n' => {
                    self.field.push('\n');
                    self.line += 1;
                }
                other => self.field.push(other),
            }
            return Ok(());
        }
        match c {
            '"' => {
                if !self.field.is_empty() {
                    return Err(TableError::Csv {
                        line: self.line,
                        message: "quote appears mid-field".to_string(),
                    });
                }
                self.in_quotes = true;
                self.any_char_in_record = true;
            }
            ',' => {
                self.record.push(std::mem::take(&mut self.field));
                self.any_char_in_record = true;
            }
            // Consumed as part of \r\n; a stray \r is treated likewise.
            '\r' => {}
            '\n' => {
                self.line += 1;
                if self.any_char_in_record || !self.field.is_empty() || !self.record.is_empty() {
                    self.record.push(std::mem::take(&mut self.field));
                    self.records.push(std::mem::take(&mut self.record));
                }
                self.any_char_in_record = false;
            }
            other => {
                self.field.push(other);
                self.any_char_in_record = true;
            }
        }
        Ok(())
    }

    /// Ends the stream, returning every parsed record. Fails on an
    /// unterminated quoted field or a truncated UTF-8 sequence.
    pub fn finish_records(mut self) -> Result<Vec<Vec<String>>> {
        if !self.carry.is_empty() {
            return Err(self.bad_utf8());
        }
        if self.quote_pending {
            // A quote at EOF closes the field.
            self.in_quotes = false;
        }
        if self.in_quotes {
            return Err(TableError::Csv {
                line: self.line,
                message: "unterminated quoted field".to_string(),
            });
        }
        if self.any_char_in_record || !self.field.is_empty() || !self.record.is_empty() {
            self.record.push(self.field);
            self.records.push(self.record);
        }
        Ok(self.records)
    }

    /// Ends the stream and builds a [`Table`] (first record = header),
    /// exactly like [`read_str`] on the concatenated input.
    pub fn finish_table(self) -> Result<Table> {
        let line = self.line;
        let mut records = self.finish_records()?;
        if records.is_empty() {
            return Err(TableError::Csv { line, message: "empty document".to_string() });
        }
        let header = records.remove(0);
        Table::from_text_rows(&header, &records)
    }
}

/// Parses a full CSV document into records of fields.
///
/// Supports quoted fields, embedded commas, embedded quotes (`""`), embedded
/// newlines inside quotes, and both `\n` and `\r\n` record separators.
pub fn parse_records(input: &str) -> Result<Vec<Vec<String>>> {
    let mut stream = CsvStream::new();
    stream.push_str(input)?;
    stream.finish_records()
}

/// Quotes a field if it contains a comma, quote, or newline.
pub fn escape_field(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        field.to_string()
    }
}

/// Reads a CSV document (first record = header) into an all-text [`Table`].
pub fn read_str(input: &str) -> Result<Table> {
    let mut records = parse_records(input)?;
    if records.is_empty() {
        return Err(TableError::Csv { line: 1, message: "empty document".to_string() });
    }
    let header = records.remove(0);
    Table::from_text_rows(&header, &records)
}

/// Reads a CSV file into an all-text [`Table`].
pub fn read_path(path: impl AsRef<Path>) -> Result<Table> {
    let text = fs::read_to_string(path)?;
    read_str(&text)
}

/// Streams a CSV document from any reader into an all-text [`Table`]
/// without materialising the document as one string — the ingest path for
/// request bodies arriving over a socket.
pub fn read_reader(mut reader: impl Read) -> Result<Table> {
    let mut stream = CsvStream::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let n = reader.read(&mut chunk)?;
        if n == 0 {
            return stream.finish_table();
        }
        stream.push_bytes(&chunk[..n])?;
    }
}

/// Serialises a table to CSV text, rendering every cell with
/// [`Value::render`](crate::value::Value::render) (NULL ⇒ empty field).
pub fn write_str(table: &Table) -> String {
    let mut out = String::new();
    let header: Vec<String> = table.schema().names().iter().map(|n| escape_field(n)).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in table.rows() {
        let fields: Vec<String> = row.iter().map(|v| escape_field(&v.render())).collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

/// Writes a table to a CSV file.
pub fn write_path(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    let mut file = fs::File::create(path)?;
    file.write_all(write_str(table).as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn parses_simple_document() {
        let recs = parse_records("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[1], vec!["1", "2"]);
    }

    #[test]
    fn parses_quotes_commas_newlines() {
        let recs =
            parse_records("a,b\n\"x,y\",\"line1\nline2\"\n\"he said \"\"hi\"\"\",z\n").unwrap();
        assert_eq!(recs[1][0], "x,y");
        assert_eq!(recs[1][1], "line1\nline2");
        assert_eq!(recs[2][0], "he said \"hi\"");
    }

    #[test]
    fn handles_crlf_and_missing_trailing_newline() {
        let recs = parse_records("a,b\r\n1,2\r\n3,4").unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2], vec!["3", "4"]);
    }

    #[test]
    fn empty_fields_preserved() {
        let recs = parse_records("a,b,c\n,,\nx,,z\n").unwrap();
        assert_eq!(recs[1], vec!["", "", ""]);
        assert_eq!(recs[2], vec!["x", "", "z"]);
    }

    #[test]
    fn unterminated_quote_is_error() {
        let err = parse_records("a\n\"oops\n").unwrap_err();
        assert!(matches!(err, TableError::Csv { .. }));
    }

    #[test]
    fn quote_mid_field_is_error() {
        let err = parse_records("a\nab\"c\n").unwrap_err();
        assert!(matches!(err, TableError::Csv { .. }));
    }

    #[test]
    fn read_str_builds_table() {
        let table = read_str("name,age\nalice,30\nbob,25\n").unwrap();
        assert_eq!(table.width(), 2);
        assert_eq!(table.height(), 2);
        assert_eq!(table.cell(0, 0).unwrap(), &Value::Text("alice".into()));
    }

    #[test]
    fn empty_document_is_error() {
        assert!(read_str("").is_err());
    }

    #[test]
    fn round_trip_preserves_content() {
        let source = "name,notes\nalice,\"likes, commas\"\nbob,\"quote \"\" here\"\n";
        let table = read_str(source).unwrap();
        let written = write_str(&table);
        let reread = read_str(&written).unwrap();
        assert_eq!(table, reread);
    }

    #[test]
    fn write_renders_null_as_empty() {
        let mut table = read_str("a,b\n1,2\n").unwrap();
        table.set_cell(0, 1, Value::Null).unwrap();
        let out = write_str(&table);
        assert_eq!(out, "a,b\n1,\n");
    }

    #[test]
    fn escape_field_quotes_when_needed() {
        assert_eq!(escape_field("plain"), "plain");
        assert_eq!(escape_field("a,b"), "\"a,b\"");
        assert_eq!(escape_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    /// Feeds `input` to a fresh stream in `step`-byte chunks.
    fn stream_records(input: &str, step: usize) -> Result<Vec<Vec<String>>> {
        let mut stream = CsvStream::new();
        for chunk in input.as_bytes().chunks(step) {
            stream.push_bytes(chunk)?;
        }
        stream.finish_records()
    }

    #[test]
    fn streaming_matches_whole_document_parse_at_any_chunk_size() {
        // Every awkward shape at once: quoted commas, `""` escapes, quoted
        // newlines, CRLF, empty fields, multi-byte UTF-8 (2-, 3- and
        // 4-byte), no trailing newline. Chunk steps of 1..8 cut through
        // every boundary, including mid-character and mid-`""`.
        let doc = "a,b,c\r\n\"x,y\",\"he said \"\"hß\"\"\",naïve\n,,\n\"line1\nline2\",🦀♥,done\r\nlast,,";
        let whole = parse_records(doc).unwrap();
        for step in 1..=8 {
            assert_eq!(stream_records(doc, step).unwrap(), whole, "step {step}");
        }
    }

    #[test]
    fn streaming_errors_match_whole_document_errors() {
        for doc in ["a\n\"oops\n", "a\nab\"c\n"] {
            let whole = parse_records(doc).unwrap_err().to_string();
            for step in [1, 2, 5] {
                let streamed = stream_records(doc, step).unwrap_err().to_string();
                assert_eq!(streamed, whole, "{doc:?} step {step}");
            }
        }
    }

    #[test]
    fn streaming_rejects_invalid_and_truncated_utf8() {
        let mut stream = CsvStream::new();
        assert!(stream.push_bytes(&[b'a', 0xFF, b'b']).is_err());

        // A multi-byte sequence cut off at end of stream is an error too.
        let mut stream = CsvStream::new();
        stream.push_bytes("a,caf".as_bytes()).unwrap();
        stream.push_bytes(&[0xC3]).unwrap(); // first byte of 'é'
        assert!(stream.finish_records().is_err());
    }

    #[test]
    fn finish_table_matches_read_str() {
        let doc = "name,age\nalice,30\nbob,25\n";
        let mut stream = CsvStream::new();
        for chunk in doc.as_bytes().chunks(3) {
            stream.push_bytes(chunk).unwrap();
        }
        assert_eq!(stream.finish_table().unwrap(), read_str(doc).unwrap());
        // Empty documents fail the same way.
        assert!(CsvStream::new().finish_table().is_err());
    }

    #[test]
    fn read_reader_streams_a_table() {
        struct Trickle<'a>(&'a [u8]);
        impl std::io::Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = 3.min(self.0.len()).min(buf.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let doc = "name,notes\nalice,\"likes, commas\"\nbob,naïve\n";
        let table = read_reader(Trickle(doc.as_bytes())).unwrap();
        assert_eq!(table, read_str(doc).unwrap());
    }
}
