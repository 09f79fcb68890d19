//! Vendored mini HTTP/1.1 — request parsing, streamed bodies, keep-alive,
//! responses.
//!
//! The build environment has no crates.io access, so in the spirit of the
//! `crates/compat` shims this module implements exactly the protocol slice
//! a JSON+CSV service needs on top of `std::net`:
//!
//! * request-line and header parsing from a byte stream, robust to split
//!   reads (a [`RequestReader`] buffers across `read` calls and carries
//!   pipelined leftovers to the next request),
//! * bodies via `Content-Length` **or** `Transfer-Encoding: chunked`, with
//!   a hard size cap (over-cap → 413, malformed → 400) — read
//!   *incrementally*: head first via [`RequestReader::next_head`], then
//!   body chunks via [`RequestReader::read_body`] as they arrive off the
//!   socket, suspending losslessly on `WouldBlock` (the event loop's path
//!   for every request); [`RequestReader::next_request`] materialises a
//!   whole request in one call,
//! * HTTP/1.1 keep-alive semantics (1.1 persistent by default, 1.0 only
//!   with `Connection: keep-alive`, `Connection: close` always wins),
//! * response serialisation with `Content-Length` framing.
//!
//! TLS, compression, `Expect: 100-continue` and trailers are out of scope —
//! a reverse proxy terminates those in any real deployment.

use std::io::{Read, Write};
use std::sync::Arc;

/// Cap on the request line + headers. Larger heads are rejected as 400.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Default cap on request bodies (8 MiB — comfortably above a Movies-scale
/// CSV). Larger bodies are rejected as 413.
pub const DEFAULT_MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// How a request's body is framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyFraming {
    /// `Content-Length: n` — exactly `n` bytes follow the head.
    Length(usize),
    /// `Transfer-Encoding: chunked` — hex-sized chunks until a zero chunk.
    Chunked,
    /// No body headers at all.
    None,
}

/// A parsed request head — everything before the body, as
/// [`RequestReader::next_head`] reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// Request method, as sent (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Request target with any `?query` suffix stripped.
    pub path: String,
    /// Header name/value pairs in arrival order (names as sent).
    pub headers: Vec<(String, String)>,
    /// How the body (if any) is framed.
    pub framing: BodyFraming,
    keep_alive: bool,
}

impl Head {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this exchange.
    pub fn keep_alive(&self) -> bool {
        self.keep_alive
    }
}

/// A parsed HTTP request with its body fully materialised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request line and headers.
    pub head: Head,
    /// The complete body bytes (empty when the request had none).
    pub body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Clean EOF before the first byte of a request — the peer closed an
    /// idle keep-alive connection; not an error worth a response.
    Closed,
    /// The bytes violate the protocol (bad request line, unparsable
    /// `Content-Length`, truncated body, oversized head) → 400.
    Malformed(String),
    /// The declared or streamed body exceeds the configured cap → 413.
    PayloadTooLarge,
    /// Transport failure mid-read; the connection is unusable.
    Io(std::io::Error),
}

impl HttpError {
    /// The status code this error should answer with, if any.
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::Malformed(_) => Some(400),
            HttpError::PayloadTooLarge => Some(413),
            HttpError::Closed | HttpError::Io(_) => None,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => f.write_str("connection closed"),
            HttpError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            HttpError::PayloadTooLarge => f.write_str("payload too large"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

/// Reads successive requests off one connection, buffering split reads and
/// carrying pipelined bytes between requests.
pub struct RequestReader<R> {
    source: R,
    buffer: Vec<u8>,
    max_body: usize,
}

impl<R: Read> RequestReader<R> {
    /// A reader over `source` enforcing `max_body` on request bodies.
    pub fn new(source: R, max_body: usize) -> Self {
        RequestReader { source, buffer: Vec::new(), max_body }
    }

    /// Pulls more bytes from the source into the buffer. Returns false on
    /// EOF.
    fn fill(&mut self) -> Result<bool, HttpError> {
        let mut chunk = [0u8; 4096];
        let n = self.source.read(&mut chunk).map_err(HttpError::Io)?;
        self.buffer.extend_from_slice(&chunk[..n]);
        Ok(n > 0)
    }

    /// Takes the first `n` buffered bytes.
    fn take(&mut self, n: usize) -> Vec<u8> {
        let rest = self.buffer.split_off(n);
        std::mem::replace(&mut self.buffer, rest)
    }

    /// Reads the next request, materialising its body. [`HttpError::Closed`]
    /// means the peer hung up cleanly between requests.
    pub fn next_request(&mut self) -> Result<Request, HttpError> {
        let head = self.next_head()?;
        let mut progress = self.begin_body(&head);
        let mut body = Vec::new();
        self.read_body_to_end(&mut progress, &mut body)?;
        Ok(Request { head, body })
    }

    /// Reads the next request *head* only, leaving the body on the wire for
    /// [`begin_body`](Self::begin_body) and [`read_body`](Self::read_body)
    /// to stream. [`HttpError::Closed`] means the peer hung up cleanly
    /// between requests.
    pub fn next_head(&mut self) -> Result<Head, HttpError> {
        // Head: everything up to the blank line.
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buffer) {
                break pos;
            }
            if self.buffer.len() > MAX_HEAD_BYTES {
                return Err(HttpError::Malformed("header section too large".into()));
            }
            if !self.fill()? {
                return if self.buffer.is_empty() {
                    Err(HttpError::Closed)
                } else {
                    Err(HttpError::Malformed("unexpected eof in headers".into()))
                };
            }
        };
        if head_end > MAX_HEAD_BYTES {
            return Err(HttpError::Malformed("header section too large".into()));
        }
        let head = self.take(head_end);
        let head = String::from_utf8(head)
            .map_err(|_| HttpError::Malformed("head is not utf-8".into()))?;
        let mut lines = head.lines().map(|l| l.trim_end_matches('\r'));
        let request_line =
            lines.next().ok_or_else(|| HttpError::Malformed("empty request line".into()))?;
        let mut parts = request_line.split_whitespace();
        let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
            _ => return Err(HttpError::Malformed(format!("bad request line {request_line:?}"))),
        };
        if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
            return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
        }
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(HttpError::Malformed(format!("bad header line {line:?}")));
            };
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
        let header = |name: &str| {
            headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
        };

        // Body framing: chunked wins over Content-Length (RFC 9112 §6.3).
        // Any transfer coding other than plain `chunked` would leave the
        // body unframed — request-desync territory — so it is refused
        // rather than ignored (RFC 9112 §6.1).
        let framing = if let Some(encoding) = header("Transfer-Encoding") {
            if !encoding.eq_ignore_ascii_case("chunked") {
                return Err(HttpError::Malformed(format!(
                    "unsupported Transfer-Encoding {encoding:?}"
                )));
            }
            BodyFraming::Chunked
        } else if let Some(raw) = header("Content-Length") {
            // Conflicting duplicate lengths are the classic
            // request-smuggling vector: an intermediary that honours a
            // different copy frames the stream differently than we do.
            let lengths: Vec<&str> = headers
                .iter()
                .filter(|(n, _)| n.eq_ignore_ascii_case("Content-Length"))
                .map(|(_, v)| v.as_str())
                .collect();
            if lengths.len() > 1 && lengths.iter().any(|&v| v != lengths[0]) {
                return Err(HttpError::Malformed(format!(
                    "conflicting Content-Length headers {lengths:?}"
                )));
            }
            let declared: usize = raw
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad Content-Length {raw:?}")))?;
            if declared > self.max_body {
                return Err(HttpError::PayloadTooLarge);
            }
            BodyFraming::Length(declared)
        } else {
            BodyFraming::None
        };

        let keep_alive = match header("Connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => version == "HTTP/1.1",
        };
        let path = target.split('?').next().unwrap_or(target).to_string();
        Ok(Head { method: method.to_string(), path, headers, framing, keep_alive })
    }

    /// Starts tracking the body that `head` frames as an owned
    /// [`BodyProgress`] value. Call after [`next_head`](Self::next_head);
    /// the body **must** be read to completion
    /// ([`BodyProgress::is_complete`]) before this connection can serve
    /// another request — a handler that abandons a body mid-stream must
    /// close the connection. An event-driven caller stores the progress
    /// beside the reader and calls [`read_body`](Self::read_body) each time
    /// the socket turns readable; a
    /// [`WouldBlock`](std::io::ErrorKind::WouldBlock) read loses nothing,
    /// because all framing state lives in the progress value and the
    /// reader's buffer.
    pub fn begin_body(&self, head: &Head) -> BodyProgress {
        let state = match head.framing {
            BodyFraming::None | BodyFraming::Length(0) => BodyState::Done,
            BodyFraming::Length(n) => BodyState::Fixed { remaining: n },
            BodyFraming::Chunked => BodyState::ChunkSize,
        };
        BodyProgress { state, streamed: 0 }
    }

    /// Delivers some body bytes into `buf`, advancing `progress`; `Ok(0)`
    /// means the body is complete — or that `buf` was empty, which no-ops
    /// rather than misreading a zero-length transfer as source EOF.
    /// Over-cap chunked bodies fail with [`HttpError::PayloadTooLarge`]
    /// the moment the declared chunk sizes cross the cap.
    pub fn read_body(
        &mut self,
        progress: &mut BodyProgress,
        buf: &mut [u8],
    ) -> Result<usize, HttpError> {
        if buf.is_empty() {
            return Ok(0);
        }
        loop {
            match progress.state {
                BodyState::Done => return Ok(0),
                BodyState::Fixed { remaining } => {
                    let n = self.read_some(buf, remaining)?;
                    if n == 0 {
                        return Err(HttpError::Malformed("unexpected eof in body".into()));
                    }
                    let remaining = remaining - n;
                    progress.state = if remaining == 0 {
                        BodyState::Done
                    } else {
                        BodyState::Fixed { remaining }
                    };
                    return Ok(n);
                }
                BodyState::ChunkSize => {
                    let line = self.read_line()?;
                    let size_text = line.split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(size_text, 16).map_err(|_| {
                        HttpError::Malformed(format!("bad chunk size {size_text:?}"))
                    })?;
                    // The size is client-chosen (up to `usize::MAX`), so the
                    // cap check must not add it to anything.
                    if size > self.max_body.saturating_sub(progress.streamed) {
                        return Err(HttpError::PayloadTooLarge);
                    }
                    progress.state = if size == 0 {
                        BodyState::Trailers
                    } else {
                        BodyState::ChunkData { remaining: size }
                    };
                }
                BodyState::ChunkData { remaining } => {
                    let n = self.read_some(buf, remaining)?;
                    if n == 0 {
                        return Err(HttpError::Malformed("unexpected eof in chunked body".into()));
                    }
                    progress.streamed += n;
                    let remaining = remaining - n;
                    progress.state = if remaining == 0 {
                        BodyState::ChunkEnd
                    } else {
                        BodyState::ChunkData { remaining }
                    };
                    return Ok(n);
                }
                BodyState::ChunkEnd => {
                    let sep = self.read_line()?;
                    if !sep.is_empty() {
                        return Err(HttpError::Malformed("missing CRLF after chunk".into()));
                    }
                    progress.state = BodyState::ChunkSize;
                }
                BodyState::Trailers => {
                    // Consume optional trailers up to the final blank line.
                    // Each consumed line is gone from the buffer, so a
                    // WouldBlock mid-section resumes at the next line.
                    loop {
                        if self.read_line()?.is_empty() {
                            break;
                        }
                    }
                    progress.state = BodyState::Done;
                    return Ok(0);
                }
            }
        }
    }

    /// Reads the rest of the body `progress` tracks into `out`.
    fn read_body_to_end(
        &mut self,
        progress: &mut BodyProgress,
        out: &mut Vec<u8>,
    ) -> Result<(), HttpError> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let n = self.read_body(progress, &mut chunk)?;
            if n == 0 {
                return Ok(());
            }
            out.extend_from_slice(&chunk[..n]);
        }
    }

    /// The byte source the reader pulls from. The event loop uses this to
    /// write responses back down the same socket the reader parses, and to
    /// reach socket-level controls (`set_nonblocking`, `as_raw_fd`).
    pub fn source_mut(&mut self) -> &mut R {
        &mut self.source
    }

    /// Shared access to the byte source (see [`source_mut`](Self::source_mut)).
    pub fn source_ref(&self) -> &R {
        &self.source
    }

    /// Reads up to `limit` body bytes into `buf`, serving the parse buffer
    /// first and the raw source after (large bodies bypass the buffer
    /// entirely). Returns 0 only on source EOF.
    fn read_some(&mut self, buf: &mut [u8], limit: usize) -> Result<usize, HttpError> {
        let want = buf.len().min(limit);
        if want == 0 {
            return Ok(0);
        }
        if !self.buffer.is_empty() {
            let n = want.min(self.buffer.len());
            buf[..n].copy_from_slice(&self.buffer[..n]);
            self.buffer.drain(..n);
            return Ok(n);
        }
        self.source.read(&mut buf[..want]).map_err(HttpError::Io)
    }

    /// Reads one CRLF-terminated line (LF tolerated), without the ending.
    fn read_line(&mut self) -> Result<String, HttpError> {
        let nl = loop {
            if let Some(pos) = self.buffer.iter().position(|&b| b == b'\n') {
                break pos;
            }
            if self.buffer.len() > MAX_HEAD_BYTES {
                return Err(HttpError::Malformed("line too long".into()));
            }
            if !self.fill()? {
                return Err(HttpError::Malformed("unexpected eof in chunked body".into()));
            }
        };
        let mut line = self.take(nl + 1);
        line.pop(); // '\n'
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        String::from_utf8(line).map_err(|_| HttpError::Malformed("line is not utf-8".into()))
    }
}

/// Where a body stands between reads. Every variant is a safe suspension
/// point: a `WouldBlock` from the source leaves the state (and the
/// reader's buffer) positioned to resume exactly where parsing stopped —
/// the property the event loop's nonblocking sockets rely on.
#[derive(Debug, Clone, Copy)]
enum BodyState {
    /// `Content-Length` framing with this many bytes still to deliver.
    Fixed { remaining: usize },
    /// Chunked framing, positioned before a `hex-size CRLF` line.
    ChunkSize,
    /// Chunked framing, inside a chunk's data with this much left.
    ChunkData { remaining: usize },
    /// Chunked framing, positioned before the CRLF that closes a chunk.
    ChunkEnd,
    /// Chunked framing, consuming trailer lines after the zero chunk.
    Trailers,
    /// The body is fully consumed (terminal).
    Done,
}

/// Resumable progress through one request's body, advanced by
/// [`RequestReader::read_body`].
#[derive(Debug, Clone, Copy)]
pub struct BodyProgress {
    state: BodyState,
    /// Chunked-body bytes delivered so far, for the cumulative size cap.
    streamed: usize,
}

impl BodyProgress {
    /// True once the whole body has been delivered — the condition for the
    /// connection to be reusable.
    pub fn is_complete(&self) -> bool {
        matches!(self.state, BodyState::Done)
    }
}

/// Locates the end of the head: byte offset just past the first blank line
/// (`\r\n\r\n`, tolerating bare `\n\n`).
fn find_head_end(buffer: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buffer.len() {
        if buffer[i] != b'\n' {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if buffer.get(j) == Some(&b'\r') {
            j += 1;
        }
        if buffer.get(j) == Some(&b'\n') {
            return Some(j + 1);
        }
        i += 1;
    }
    None
}

/// An HTTP response ready to serialise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes. Shared so the event loop's write path (and a
    /// cached job result served to several pollers) can reference the
    /// payload without copying it into per-connection buffers; cloning a
    /// `Response` bumps a refcount instead of duplicating the body.
    pub body: Arc<[u8]>,
    /// The request id echoed back as an `X-Request-Id` header. Handlers
    /// leave this `None` (so identical requests produce equal responses);
    /// the event loop stamps the connection's trace id just before
    /// serialising.
    pub request_id: Option<u64>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes().into(),
            request_id: None,
        }
    }

    /// A CSV response — the `Accept: text/csv` content-negotiation mode.
    pub fn csv(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/csv",
            body: body.into().into_bytes().into(),
            request_id: None,
        }
    }

    /// A plain-text response with an explicit content type (the Prometheus
    /// exposition endpoint).
    pub fn text(status: u16, content_type: &'static str, body: impl Into<String>) -> Response {
        Response { status, content_type, body: body.into().into_bytes().into(), request_id: None }
    }

    /// An empty 204 — the success shape of `DELETE /v1/jobs/{id}`.
    pub fn no_content() -> Response {
        Response {
            status: 204,
            content_type: "application/json",
            body: Vec::new().into(),
            request_id: None,
        }
    }

    /// The uniform error shape: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, format!("{{\"error\": {}}}", json_escape(message)))
    }

    /// Serialises just the status line + headers, with `Content-Length`
    /// framing and the connection's keep-alive decision. A 204 is framed
    /// per RFC 9110 §8.6: no `Content-Length` (and no `Content-Type`) —
    /// the status itself says there is no body. The body is *not*
    /// included: the event loop writes `self.body` directly from the
    /// shared allocation instead of copying it after the head.
    pub fn head_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let request_id = match self.request_id {
            Some(id) => format!("X-Request-Id: {id}\r\n"),
            None => String::new(),
        };
        let head = if self.status == 204 {
            format!("HTTP/1.1 204 {}\r\n{request_id}Connection: {connection}\r\n\r\n", reason(204))
        } else {
            format!(
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{request_id}Connection: {connection}\r\n\r\n",
                self.status,
                reason(self.status),
                self.content_type,
                self.body.len(),
            )
        };
        head.into_bytes()
    }

    /// Serialises head then body to `w` — the blocking-writer counterpart
    /// of the event loop's zero-copy head/body split.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        w.write_all(&self.head_bytes(keep_alive))?;
        if self.status != 204 {
            w.write_all(&self.body)?;
        }
        w.flush()
    }
}

/// Escapes a string as a JSON string literal (quotes included) — the
/// workspace's existing escaper, re-exported under the name this module's
/// callers use.
pub use cocoon_llm::json::escape as json_escape;

/// Reason phrase for the status codes this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out its bytes a few at a time — the split-read
    /// torture test for the buffering parser.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        step: usize,
    }

    impl Trickle {
        fn new(data: &[u8], step: usize) -> Self {
            Trickle { data: data.to_vec(), pos: 0, step }
        }
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(self.data.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        RequestReader::new(raw, DEFAULT_MAX_BODY_BYTES).next_request()
    }

    #[test]
    fn parses_a_simple_get() {
        let req = parse(b"GET /v1/metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.head.method, "GET");
        assert_eq!(req.head.path, "/v1/metrics");
        assert_eq!(req.head.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.head.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_content_length_body() {
        let req =
            parse(b"POST /v1/clean HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world").unwrap();
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn split_reads_reassemble() {
        // One byte at a time through head and body.
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 5\r\nX-Key: split value\r\n\r\nabcde";
        for step in [1, 2, 3, 7] {
            let mut reader = RequestReader::new(Trickle::new(raw, step), 1024);
            let req = reader.next_request().unwrap();
            assert_eq!(req.body, b"abcde", "step {step}");
            assert_eq!(req.head.header("x-key"), Some("split value"), "step {step}");
        }
    }

    #[test]
    fn bad_content_length_is_malformed() {
        for raw in [
            b"POST /p HTTP/1.1\r\nContent-Length: nope\r\n\r\n".as_slice(),
            b"POST /p HTTP/1.1\r\nContent-Length: -4\r\n\r\n".as_slice(),
            b"POST /p HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n".as_slice(),
        ] {
            let err = parse(raw).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{raw:?} → {err:?}");
            assert_eq!(err.status(), Some(400));
        }
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        // Smuggling shape: an intermediary honouring the other copy would
        // frame the stream differently.
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nhello";
        assert!(matches!(parse(raw), Err(HttpError::Malformed(_))));
        // Duplicate *agreeing* lengths are harmless and accepted.
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(parse(raw).unwrap().body, b"hello");
    }

    #[test]
    fn oversized_declared_body_is_413() {
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 999\r\n\r\n";
        let err = RequestReader::new(raw.as_slice(), 100).next_request().unwrap_err();
        assert!(matches!(err, HttpError::PayloadTooLarge));
        assert_eq!(err.status(), Some(413));
    }

    #[test]
    fn oversized_chunked_body_is_413() {
        // The second input's `usize::MAX` chunk follows streamed bytes: the
        // cap check must not overflow adding it to them.
        for raw in [
            b"POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nff\r\n".as_slice(),
            b"POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\nffffffffffffffff\r\n"
                .as_slice(),
        ] {
            let err = RequestReader::new(raw, 100).next_request().unwrap_err();
            assert!(matches!(err, HttpError::PayloadTooLarge), "{err:?}");
        }
    }

    #[test]
    fn truncated_body_is_malformed() {
        let err = parse(b"POST /p HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort").unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)));
    }

    #[test]
    fn chunked_bodies_reassemble() {
        let raw = b"POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
        for step in [1, 3, 1024] {
            let mut reader = RequestReader::new(Trickle::new(raw, step), 1024);
            let req = reader.next_request().unwrap();
            assert_eq!(req.body, b"Wikipedia", "step {step}");
        }
    }

    #[test]
    fn bad_chunk_size_is_malformed() {
        let raw = b"POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n";
        assert!(matches!(parse(raw), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn unsupported_transfer_encodings_are_refused_not_misframed() {
        // Ignoring an unknown coding would leave the body bytes to be
        // parsed as the next request (request desync) — must be a 400.
        for raw in [
            b"POST /p HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n4\r\nWiki\r\n0\r\n\r\n"
                .as_slice(),
            b"POST /p HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n".as_slice(),
        ] {
            let err = parse(raw).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{raw:?} → {err:?}");
            assert_eq!(err.status(), Some(400));
        }
    }

    #[test]
    fn keep_alive_semantics() {
        let close11 = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close11.head.keep_alive());
        let plain10 = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!plain10.head.keep_alive());
        let ka10 = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(ka10.head.keep_alive());
    }

    #[test]
    fn pipelined_requests_on_one_connection() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut reader = RequestReader::new(raw.as_slice(), 1024);
        assert_eq!(reader.next_request().unwrap().head.path, "/a");
        let second = reader.next_request().unwrap();
        assert_eq!(second.head.path, "/b");
        assert_eq!(second.body, b"hi");
        assert!(matches!(reader.next_request(), Err(HttpError::Closed)));
    }

    #[test]
    fn clean_eof_between_requests_is_closed_not_malformed() {
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
        // …but EOF mid-head is a protocol error.
        assert!(matches!(parse(b"GET / HT"), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn bad_request_lines_rejected() {
        for raw in [
            b"GET\r\n\r\n".as_slice(),
            b"GET /\r\n\r\n".as_slice(),
            b"GET / HTTP/2\r\n\r\n".as_slice(),
            b"GET / HTTP/1.1 extra\r\n\r\n".as_slice(),
        ] {
            assert!(matches!(parse(raw), Err(HttpError::Malformed(_))), "{raw:?}");
        }
    }

    #[test]
    fn oversized_head_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        raw.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(parse(&raw), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn query_strings_are_stripped_from_path() {
        let req = parse(b"GET /v1/jobs/3?verbose=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.head.path, "/v1/jobs/3");
    }

    #[test]
    fn bare_lf_line_endings_tolerated() {
        let req = parse(b"POST /p HTTP/1.1\nContent-Length: 2\n\nok").unwrap();
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn streamed_body_matches_materialised_body() {
        // Content-Length and chunked framings, trickled at awkward step
        // sizes, must deliver exactly the bytes next_request() would.
        let fixed = b"POST /p HTTP/1.1\r\nContent-Length: 9\r\n\r\nwiki body";
        let chunked = b"POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                        4\r\nwiki\r\n5\r\n body\r\n0\r\n\r\n";
        for raw in [fixed.as_slice(), chunked.as_slice()] {
            for step in [1, 3, 7, 1024] {
                let mut reader = RequestReader::new(Trickle::new(raw, step), 1024);
                let head = reader.next_head().unwrap();
                assert_eq!(head.method, "POST");
                let mut progress = reader.begin_body(&head);
                let mut collected = Vec::new();
                let mut buf = [0u8; 3];
                loop {
                    let n = reader.read_body(&mut progress, &mut buf).unwrap();
                    if n == 0 {
                        break;
                    }
                    collected.extend_from_slice(&buf[..n]);
                }
                assert!(progress.is_complete());
                assert_eq!(collected, b"wiki body", "step {step}");
            }
        }
    }

    #[test]
    fn streamed_chunked_body_enforces_the_cap_incrementally() {
        // The declared chunk sizes cross the cap long before the client
        // finishes sending: the reader must fail at that moment.
        let raw = b"POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n40\r\n0123456789";
        let mut reader = RequestReader::new(raw.as_slice(), 32);
        let head = reader.next_head().unwrap();
        let mut progress = reader.begin_body(&head);
        let err = reader.read_body(&mut progress, &mut [0u8; 256]).unwrap_err();
        assert!(matches!(err, HttpError::PayloadTooLarge));
    }

    #[test]
    fn abandoned_body_reports_incomplete() {
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789";
        let mut reader = RequestReader::new(raw.as_slice(), 1024);
        let head = reader.next_head().unwrap();
        let mut progress = reader.begin_body(&head);
        reader.read_body(&mut progress, &mut [0u8; 4]).unwrap();
        assert!(!progress.is_complete(), "6 bytes still unread");
    }

    #[test]
    fn bodyless_head_streams_an_empty_complete_body() {
        let mut reader = RequestReader::new(b"GET / HTTP/1.1\r\n\r\n".as_slice(), 1024);
        let head = reader.next_head().unwrap();
        assert_eq!(head.framing, BodyFraming::None);
        let mut progress = reader.begin_body(&head);
        assert!(progress.is_complete());
        assert_eq!(reader.read_body(&mut progress, &mut [0u8; 8]).unwrap(), 0);
    }

    #[test]
    fn pipelined_request_survives_a_streamed_predecessor() {
        // Fully consuming a streamed body must leave the reader positioned
        // exactly at the next pipelined request.
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
                    GET /b HTTP/1.1\r\n\r\n";
        let mut reader = RequestReader::new(raw.as_slice(), 1024);
        let head = reader.next_head().unwrap();
        let mut progress = reader.begin_body(&head);
        let mut collected = Vec::new();
        reader.read_body_to_end(&mut progress, &mut collected).unwrap();
        assert_eq!(collected, b"hi");
        assert_eq!(reader.next_request().unwrap().head.path, "/b");
    }

    #[test]
    fn responses_serialise_with_framing() {
        let mut out = Vec::new();
        Response::json(200, "{}").write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        Response::error(404, "no such route").write_to(&mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("{\"error\": \"no such route\"}"));

        // 204 frames per RFC 9110 §8.6: no Content-Length, no body.
        let mut out = Vec::new();
        Response::no_content().write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 204 No Content\r\n"), "{text}");
        assert!(!text.contains("Content-Length"), "{text}");
        assert!(text.ends_with("\r\n\r\n"), "{text}");
    }

    /// A source that yields one byte per read and interleaves WouldBlock
    /// errors — the nonblocking-socket torture test for resumable parsing.
    struct Intermittent {
        data: Vec<u8>,
        pos: usize,
        starve: bool,
    }

    impl Read for Intermittent {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.starve = !self.starve;
            if self.starve {
                return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
            }
            let n = 1.min(self.data.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn parsing_resumes_across_would_block_at_every_byte() {
        // Head, fixed body, and chunked body (incl. chunk separators and
        // trailers) must all suspend on WouldBlock and resume losslessly —
        // the contract the event loop's nonblocking sockets depend on.
        let fixed = b"POST /p HTTP/1.1\r\nContent-Length: 9\r\n\r\nwiki body".as_slice();
        let chunked = b"POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                        4\r\nwiki\r\n5\r\n body\r\n0\r\nx-trailer: ok\r\n\r\n"
            .as_slice();
        for raw in [fixed, chunked] {
            let source = Intermittent { data: raw.to_vec(), pos: 0, starve: false };
            let mut reader = RequestReader::new(source, 1024);
            let head = loop {
                match reader.next_head() {
                    Ok(head) => break head,
                    Err(HttpError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(other) => panic!("{other}"),
                }
            };
            let mut progress = reader.begin_body(&head);
            let mut collected = Vec::new();
            let mut buf = [0u8; 3];
            loop {
                match reader.read_body(&mut progress, &mut buf) {
                    Ok(0) => break,
                    Ok(n) => collected.extend_from_slice(&buf[..n]),
                    Err(HttpError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(other) => panic!("{other}"),
                }
            }
            assert!(progress.is_complete());
            assert_eq!(collected, b"wiki body");
        }
    }

    #[test]
    fn empty_buffer_reads_do_not_fake_eof() {
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut reader = RequestReader::new(raw.as_slice(), 1024);
        let head = reader.next_head().unwrap();
        let mut progress = reader.begin_body(&head);
        assert_eq!(reader.read_body(&mut progress, &mut []).unwrap(), 0, "empty buffer is a no-op");
        assert!(!progress.is_complete(), "the body is still there");
        let mut collected = Vec::new();
        reader.read_body_to_end(&mut progress, &mut collected).unwrap();
        assert_eq!(collected, b"hello");
    }
}
