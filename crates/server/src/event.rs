//! The readiness-driven connection core: epoll event threads that own
//! every socket, nonblocking.
//!
//! One [`Shard`] per event thread — each with its own [`Poller`], [`Waker`]
//! and mailbox. The listener (nonblocking) lives in shard 0's poller; new
//! connections are distributed round-robin, a remote shard receiving its
//! handoffs through the mailbox. Each shard runs [`event_loop`]: wait for
//! readiness, drive every ready connection's state machine as far as the
//! socket allows, deliver worker results, sweep idle connections.
//!
//! A connection's life is the [`Phase`] machine:
//!
//! ```text
//! ReadingHead ──▶ ReadingBody ──────▶ Dispatched ──▶ Writing ──▶ ReadingHead
//!      │     └──▶ StreamingCsv ──▶┘       ▲             │    └──▶ Draining ─▶ closed
//!      └── protocol error ────────────────┴─────────────┘
//! ```
//!
//! Parsing is *incremental*: heads and bodies advance exactly as far as the
//! bytes at hand ([`RequestReader`] suspends losslessly on `WouldBlock`),
//! so a slow or stalled client costs one parked `Conn` struct — never a
//! thread. Only a *complete* request crosses the [`WorkQueue`] to the
//! worker pool; a full queue answers 503 immediately (the backpressure
//! valve). Responses are written back nonblocking too: what doesn't fit
//! the socket buffer waits in the connection's outbound buffer for
//! write-readiness. CSV-ingest bodies are fed straight into the
//! incremental [`CsvStream`] parser as chunks arrive, so the table — not
//! the raw body — is what travels to the worker.
//!
//! Tokens are allocated from a per-shard counter and never reused, so a
//! stale readiness report from a closed connection's file descriptor can
//! never be misrouted to its fd-recycling successor.

use crate::api;
use crate::http::{BodyProgress, Head, HttpError, Request, RequestReader, Response};
use crate::metrics::Counter;
use crate::obs::{endpoint_label, RequestTrace};
use crate::server::AppState;
use cocoon_table::csv::CsvStream;
use cocoon_table::Table;
use poller::{Events, Interest, Poller, Waker};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Token of the listening socket (registered in shard 0 only).
const LISTENER_TOKEN: u64 = 0;
/// Token of each shard's wakeup eventfd.
const WAKER_TOKEN: u64 = 1;
/// First token handed to a connection; the counter only grows.
const FIRST_CONN_TOKEN: u64 = 2;

/// How long a connection with an abandoned request body may linger after
/// its error response, reading out what the client already sent, so the
/// close does not RST the response away. Enforced by the idle sweep.
const DRAIN_WINDOW: Duration = Duration::from_millis(250);
/// Byte cap on that drain — a hostile streamer cannot hold the window open
/// by feeding it.
const DRAIN_CAP: usize = 1024 * 1024;

/// The message a shard's mailbox carries. Posted by shard 0 (connection
/// handoffs) and by workers (finished responses); the post wakes the
/// shard's poller.
pub(crate) enum Mail {
    /// A freshly accepted connection for this shard to own.
    Conn(TcpStream),
    /// A worker's finished response for connection `token`.
    Done {
        /// The connection the response belongs to (may have closed since —
        /// then the response is simply dropped).
        token: u64,
        /// The response to serialise and write.
        response: Response,
        /// Whether the connection may serve another request afterwards.
        reusable: bool,
        /// Whether unread request bytes remain on the wire (abandoned CSV
        /// body): the close must drain briefly so the response survives.
        drain: bool,
    },
}

/// One event thread's worth of state: the poller that owns this shard's
/// sockets, the eventfd that interrupts its waits, and the mailbox other
/// threads post through.
pub(crate) struct Shard {
    /// The epoll instance; every socket this shard owns is registered here.
    pub(crate) poller: Poller,
    /// Wakes the poller from other threads (worker results, shutdown).
    pub(crate) waker: Waker,
    mailbox: Mutex<Vec<Mail>>,
}

impl Shard {
    /// A shard with a fresh poller and its waker already registered.
    pub(crate) fn new() -> io::Result<Shard> {
        let poller = Poller::new()?;
        let waker = Waker::new(&poller, WAKER_TOKEN)?;
        Ok(Shard { poller, waker, mailbox: Mutex::new(Vec::new()) })
    }

    /// Posts mail and wakes the shard's event loop.
    pub(crate) fn post(&self, mail: Mail) {
        self.mailbox.lock().expect("shard mailbox").push(mail);
        self.waker.wake();
    }

    pub(crate) fn take_mail(&self) -> Vec<Mail> {
        std::mem::take(&mut *self.mailbox.lock().expect("shard mailbox"))
    }
}

/// What a worker receives: one *complete* request, already parsed.
pub(crate) enum WorkKind {
    /// A materialised request (the JSON path and every bodyless method).
    Request(Request),
    /// A CSV-ingest request whose body the event loop already streamed
    /// through the incremental parser — the worker gets the table (or the
    /// parse error to report as a 400), never the raw body.
    CsvClean {
        /// The request head (routing + Accept negotiation).
        head: Head,
        /// The parsed table, or the client-error message.
        table: Result<Table, String>,
    },
}

/// One unit of work crossing from an event thread to the worker pool.
pub(crate) struct Work {
    /// Which shard owns the connection (the `Done` mail goes back there).
    pub(crate) shard: usize,
    /// The connection's token within that shard.
    pub(crate) token: u64,
    /// The parsed request.
    pub(crate) kind: WorkKind,
    /// Whether the connection may serve another request after this one.
    pub(crate) reusable: bool,
    /// Whether unread request bytes remain on the wire (see [`Mail::Done`]).
    pub(crate) drain: bool,
    /// The request's trace; the worker records queue-wait and handler
    /// spans into it (the connection keeps its own handle for the write
    /// segment and the final seal).
    pub(crate) trace: Option<Arc<RequestTrace>>,
    /// When the event loop pushed this work — the queue-wait span's start.
    pub(crate) queued_at: Instant,
}

/// The bounded hand-off between event threads and the worker pool. Beyond
/// `capacity` queued requests the event loop answers 503 instead — the
/// explicit backpressure point of the whole server.
pub(crate) struct WorkQueue {
    inner: Mutex<VecDeque<Work>>,
    arrival: Condvar,
    /// The configured bound (`ServerConfig::request_backlog`).
    pub(crate) capacity: usize,
}

impl WorkQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        WorkQueue { inner: Mutex::new(VecDeque::new()), arrival: Condvar::new(), capacity }
    }

    /// Enqueues work; `false` means the queue is full and the work was
    /// dropped (the event loop then answers 503).
    pub(crate) fn push(&self, work: Work) -> bool {
        let mut queue = self.inner.lock().expect("work queue lock");
        if queue.len() >= self.capacity {
            return false;
        }
        queue.push_back(work);
        drop(queue);
        self.arrival.notify_one();
        true
    }

    /// Blocks until work is available or `give_up` turns true.
    pub(crate) fn pop(&self, give_up: impl Fn() -> bool) -> Option<Work> {
        let mut queue = self.inner.lock().expect("work queue lock");
        loop {
            if give_up() {
                return None;
            }
            if let Some(work) = queue.pop_front() {
                return Some(work);
            }
            // Timed wait so a `give_up` flip without a notify still ends
            // the worker promptly.
            let (guard, _) =
                self.arrival.wait_timeout(queue, Duration::from_millis(50)).expect("work queue");
            queue = guard;
        }
    }

    pub(crate) fn depth(&self) -> usize {
        self.inner.lock().expect("work queue lock").len()
    }

    pub(crate) fn wake_all(&self) {
        self.arrival.notify_all();
    }
}

/// Where one connection stands in its request/response cycle.
enum Phase {
    /// Accumulating request-line + header bytes.
    ReadingHead,
    /// Accumulating a non-CSV body into memory.
    ReadingBody { head: Head, progress: BodyProgress, body: Vec<u8> },
    /// Feeding a CSV-ingest body through the incremental parser as chunks
    /// arrive. `parsed` flips to `Err` on the first CSV syntax error; the
    /// error still dispatches (for uniform 400 rendering and counting).
    StreamingCsv { head: Head, progress: BodyProgress, parsed: Result<CsvStream, String> },
    /// The complete request is with a worker; no read/write interest (the
    /// poller still reports hangups, which free the connection early).
    Dispatched,
    /// Writing the response; what the socket refuses waits here for
    /// write-readiness. The body is the response's shared allocation
    /// (written straight from the `Arc`, never copied into a connection
    /// buffer); only the few hundred head bytes are serialised per
    /// connection. `written` counts across head then body.
    Writing {
        head: Vec<u8>,
        body: Arc<[u8]>,
        written: usize,
        close_after: bool,
        drain: bool,
        /// Whether this response already counted in `partial_writes`.
        counted: bool,
        /// Response status, for sealing the request's trace on completion.
        status: u16,
    },
    /// Response written, connection closing, reading out what the client
    /// already sent so the close does not RST the response away.
    Draining { deadline: Instant, drained: usize },
}

/// One connection: the reader owns the nonblocking socket (responses are
/// written through [`RequestReader::source_mut`], so no descriptor is
/// duplicated), plus the phase machine and bookkeeping.
struct Conn {
    reader: RequestReader<TcpStream>,
    phase: Phase,
    last_activity: Instant,
    /// The interest the phase wants.
    want: Interest,
    /// The interest currently registered with the poller.
    registered: Interest,
    /// The in-flight request's trace; created lazily when its first bytes
    /// are seen, sealed (and cleared) when its response's last byte is
    /// written, so a keep-alive connection gets a fresh trace per request.
    trace: Option<Arc<RequestTrace>>,
    /// Start of the current wall segment (head parse, body read, write);
    /// advanced every time a segment span is recorded, keeping the
    /// segments contiguous so the tree accounts for the full wall time.
    seg_start: Instant,
}

/// Records the segment from `conn.seg_start` to now into the connection's
/// trace (if any) and starts the next segment.
fn finish_segment(conn: &mut Conn, name: &'static str) {
    let now = Instant::now();
    if let Some(trace) = &conn.trace {
        trace.recorder.record(name, conn.seg_start, now, None);
    }
    conn.seg_start = now;
}

impl Conn {
    fn fd(&self) -> i32 {
        self.reader.source_ref().as_raw_fd()
    }
}

/// What a drive step decided about the connection's fate.
enum Next {
    /// Keep the connection; re-sync its poller interest.
    Keep,
    /// Close it now (`reaped` marks an idle-timeout reclaim for metrics).
    Close { reaped: bool },
}

/// Everything a drive step needs besides the connection itself.
struct Ctx<'a> {
    state: &'a AppState,
    shard_index: usize,
    token: u64,
}

/// Runs one shard's event loop until shutdown. `listener` is `Some` only
/// for shard 0, which accepts on behalf of every shard.
pub(crate) fn event_loop(state: &AppState, shard_index: usize, listener: Option<&TcpListener>) {
    let shard = &state.shards[shard_index];
    if let Some(listener) = listener {
        shard
            .poller
            .add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
            .expect("register listener");
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = Events::with_capacity(1024);
    // The sweep cadence bounds how late an idle reclaim can run; capped
    // below the idle timeout so short test timeouts still reap promptly.
    let granularity =
        (state.idle_timeout / 4).min(Duration::from_secs(1)).max(Duration::from_millis(25));
    let mut next_sweep = Instant::now() + granularity;
    loop {
        let timeout = next_sweep.saturating_duration_since(Instant::now());
        let _ = shard.poller.wait(&mut events, Some(timeout));
        if state.shutdown_requested() {
            break;
        }
        let mut accept_ready = false;
        for event in events.iter() {
            match event.token {
                LISTENER_TOKEN => accept_ready = true,
                WAKER_TOKEN => shard.waker.clear(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else { continue };
                    let ctx = Ctx { state, shard_index, token };
                    let next = match conn.phase {
                        // A hangup while parked frees the slot early; the
                        // worker's late response finds no connection and is
                        // dropped.
                        Phase::Dispatched => {
                            if event.closed {
                                Next::Close { reaped: false }
                            } else {
                                Next::Keep
                            }
                        }
                        Phase::Writing { .. } => {
                            if event.writable || event.closed {
                                drive_write(&ctx, conn)
                            } else {
                                Next::Keep
                            }
                        }
                        Phase::Draining { .. } => {
                            if event.readable || event.closed {
                                drive_drain(conn)
                            } else {
                                Next::Keep
                            }
                        }
                        _ => {
                            if event.readable || event.closed {
                                drive_read(&ctx, conn)
                            } else {
                                Next::Keep
                            }
                        }
                    };
                    settle(state, shard, &mut conns, token, next);
                }
            }
        }
        for mail in shard.take_mail() {
            match mail {
                Mail::Conn(stream) => {
                    register_conn(state, shard, &mut conns, &mut next_token, stream)
                }
                Mail::Done { token, response, reusable, drain } => {
                    let Some(conn) = conns.get_mut(&token) else { continue };
                    let keep_alive = reusable && !state.shutdown_requested();
                    let ctx = Ctx { state, shard_index, token };
                    let next = start_write(&ctx, conn, response, keep_alive, drain);
                    settle(state, shard, &mut conns, token, next);
                }
            }
        }
        if accept_ready {
            if let Some(listener) = listener {
                drain_accepts(state, shard_index, shard, listener, &mut conns, &mut next_token);
            }
        }
        let now = Instant::now();
        if now >= next_sweep {
            next_sweep = now + granularity;
            sweep(state, shard, &mut conns, now);
        }
    }
    // Shutdown: close every connection this shard still owns (queued
    // worker responses for them are dropped when the Done mail finds no
    // connection — exactly like the old design dropping queued conns).
    let tokens: Vec<u64> = conns.keys().copied().collect();
    for token in tokens {
        close_conn(state, shard, &mut conns, token, false);
    }
}

/// Applies a drive step's verdict: re-sync interest or close.
fn settle(state: &AppState, shard: &Shard, conns: &mut HashMap<u64, Conn>, token: u64, next: Next) {
    match next {
        Next::Keep => {
            if let Some(conn) = conns.get_mut(&token) {
                if conn.want != conn.registered {
                    let _ = shard.poller.modify(conn.fd(), token, conn.want);
                    conn.registered = conn.want;
                }
            }
        }
        Next::Close { reaped } => close_conn(state, shard, conns, token, reaped),
    }
}

fn close_conn(
    state: &AppState,
    shard: &Shard,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    reaped: bool,
) {
    if let Some(conn) = conns.remove(&token) {
        let _ = shard.poller.remove(conn.fd());
        state.metrics.conn_closed();
        if reaped {
            state.metrics.count(Counter::IdleReaped);
        }
    }
}

/// Accepts until the listener runs dry, distributing connections
/// round-robin across every shard. Runs on shard 0 only.
fn drain_accepts(
    state: &AppState,
    shard_index: usize,
    shard: &Shard,
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(_) => {
                // Persistent accept errors (fd exhaustion, ENFILE) must
                // back off, not hot-spin on the still-readable listener.
                std::thread::sleep(Duration::from_millis(10));
                return;
            }
        };
        if state.shutdown_requested() {
            return;
        }
        if state.metrics.get(Counter::ConnectionsOpen) >= state.max_conns {
            // The connection cap: refuse loudly rather than registering
            // without bound.
            state.metrics.count(Counter::ConnectionsRejected);
            state.metrics.count_status(503);
            refuse_busy(stream);
            continue;
        }
        state.metrics.count(Counter::ConnectionsAccepted);
        let target = state.next_shard() % state.shards.len();
        if target == shard_index {
            register_conn(state, shard, conns, next_token, stream);
        } else {
            state.shards[target].post(Mail::Conn(stream));
        }
    }
}

/// Best-effort 503 to a connection over the cap, then close. Nonblocking
/// throughout — the event thread never waits on a refused client; a client
/// still mid-send may see the 503 lost to an RST, the documented trade on
/// the saturation path.
fn refuse_busy(stream: TcpStream) {
    let _ = stream.set_nonblocking(true);
    let mut buf = Vec::new();
    let _ = Response::error(503, "server is at capacity; retry shortly").write_to(&mut buf, false);
    if (&stream).write(&buf).is_ok() {
        // One short read clears the typically-already-buffered request so
        // the close is clean and the 503 survives.
        let _ = (&stream).read(&mut [0u8; 16 * 1024]);
    }
}

/// Takes ownership of an accepted connection: nonblocking, registered for
/// read-readiness, parked in `ReadingHead`.
fn register_conn(
    state: &AppState,
    shard: &Shard,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    stream: TcpStream,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let token = *next_token;
    *next_token += 1;
    if shard.poller.add(stream.as_raw_fd(), token, Interest::READ).is_err() {
        return;
    }
    state.metrics.conn_opened();
    conns.insert(
        token,
        Conn {
            reader: RequestReader::new(stream, state.max_body),
            phase: Phase::ReadingHead,
            last_activity: Instant::now(),
            want: Interest::READ,
            registered: Interest::READ,
            trace: None,
            seg_start: Instant::now(),
        },
    );
}

/// Closes idle connections (and expired drains). `Dispatched` connections
/// are exempt — their clock is the worker's, not the socket's.
fn sweep(state: &AppState, shard: &Shard, conns: &mut HashMap<u64, Conn>, now: Instant) {
    let dead: Vec<(u64, bool)> = conns
        .iter()
        .filter_map(|(&token, conn)| match conn.phase {
            Phase::Dispatched => None,
            Phase::Draining { deadline, .. } => (now >= deadline).then_some((token, false)),
            _ => (now.duration_since(conn.last_activity) > state.idle_timeout)
                .then_some((token, true)),
        })
        .collect();
    for (token, reaped) in dead {
        close_conn(state, shard, conns, token, reaped);
    }
}

fn is_would_block(error: &HttpError) -> bool {
    matches!(error, HttpError::Io(e) if e.kind() == io::ErrorKind::WouldBlock)
}

/// Advances head/body parsing as far as the bytes at hand allow. Every
/// return path either parks the connection on a readiness edge or settles
/// its fate; `WouldBlock` anywhere suspends losslessly.
fn drive_read(ctx: &Ctx<'_>, conn: &mut Conn) -> Next {
    loop {
        match &mut conn.phase {
            Phase::ReadingHead => {
                // First readiness for a new request: open its trace, with
                // the span origin at this moment (the first bytes are on
                // the socket but nothing has been parsed yet).
                if conn.trace.is_none() {
                    let now = Instant::now();
                    conn.trace = Some(Arc::new(ctx.state.obs.begin_request(now)));
                    conn.seg_start = now;
                }
                match conn.reader.next_head() {
                    Ok(head) => {
                        conn.last_activity = Instant::now();
                        if let Some(trace) = &conn.trace {
                            trace.set_route(endpoint_label(&head.path));
                        }
                        finish_segment(conn, "head_parse");
                        let progress = conn.reader.begin_body(&head);
                        conn.phase = if api::is_csv_ingest(&head) {
                            Phase::StreamingCsv { head, progress, parsed: Ok(CsvStream::new()) }
                        } else {
                            Phase::ReadingBody { head, progress, body: Vec::new() }
                        };
                    }
                    Err(e) if is_would_block(&e) => return Next::Keep,
                    Err(HttpError::Closed) => return Next::Close { reaped: false },
                    Err(e) => return fail_request(ctx, conn, &e),
                }
            }
            Phase::ReadingBody { progress, body, .. } => {
                let mut chunk = [0u8; 16 * 1024];
                match conn.reader.read_body(progress, &mut chunk) {
                    Ok(0) => {
                        let Phase::ReadingBody { head, body, .. } =
                            std::mem::replace(&mut conn.phase, Phase::Dispatched)
                        else {
                            unreachable!("phase checked above")
                        };
                        let reusable = head.keep_alive();
                        let request = Request::from_parts(head, body);
                        finish_segment(conn, "body_read");
                        return dispatch(ctx, conn, WorkKind::Request(request), reusable, false);
                    }
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        body.extend_from_slice(&chunk[..n]);
                    }
                    Err(e) if is_would_block(&e) => return Next::Keep,
                    Err(e) => return fail_request(ctx, conn, &e),
                }
            }
            Phase::StreamingCsv { progress, parsed, .. } => {
                let mut chunk = [0u8; 16 * 1024];
                match conn.reader.read_body(progress, &mut chunk) {
                    Ok(0) => {
                        let Phase::StreamingCsv { head, parsed, .. } =
                            std::mem::replace(&mut conn.phase, Phase::Dispatched)
                        else {
                            unreachable!("phase checked above")
                        };
                        let table = parsed.and_then(|stream| {
                            stream.finish_table().map_err(|e| format!("invalid csv: {e}"))
                        });
                        let reusable = head.keep_alive();
                        let kind = WorkKind::CsvClean { head, table };
                        finish_segment(conn, "csv_stream");
                        return dispatch(ctx, conn, kind, reusable, false);
                    }
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        if let Ok(stream) = parsed {
                            if let Err(e) = stream.push_bytes(&chunk[..n]) {
                                // CSV syntax error: stop reading and let the
                                // worker render the 400. The unread body
                                // remainder poisons the connection for
                                // further requests, so it closes (with a
                                // drain, see `Mail::Done::drain`).
                                let Phase::StreamingCsv { head, .. } =
                                    std::mem::replace(&mut conn.phase, Phase::Dispatched)
                                else {
                                    unreachable!("phase checked above")
                                };
                                let kind = WorkKind::CsvClean {
                                    head,
                                    table: Err(format!("invalid csv: {e}")),
                                };
                                finish_segment(conn, "csv_stream");
                                return dispatch(ctx, conn, kind, false, true);
                            }
                        }
                    }
                    Err(e) if is_would_block(&e) => return Next::Keep,
                    Err(e) => return fail_request(ctx, conn, &e),
                }
            }
            Phase::Draining { .. } => return drive_drain(conn),
            Phase::Dispatched | Phase::Writing { .. } => return Next::Keep,
        }
    }
}

/// Parks a complete request with the worker pool, or answers 503 when the
/// queue is full — the backpressure point. The rejected request is counted
/// like a refused connection (`rejected_busy` + 503), not as a routed
/// request, matching the previous design's accept-queue refusals.
fn dispatch(ctx: &Ctx<'_>, conn: &mut Conn, kind: WorkKind, reusable: bool, drain: bool) -> Next {
    conn.want = Interest::NONE;
    let work = Work {
        shard: ctx.shard_index,
        token: ctx.token,
        kind,
        reusable,
        drain,
        trace: conn.trace.clone(),
        queued_at: Instant::now(),
    };
    if ctx.state.work.push(work) {
        conn.phase = Phase::Dispatched;
        Next::Keep
    } else {
        ctx.state.metrics.count(Counter::ConnectionsRejected);
        ctx.state.metrics.count_status(503);
        let response = Response::error(503, "server is at capacity; retry shortly");
        start_write(ctx, conn, response, false, drain)
    }
}

/// Renders a protocol error (400/413) and schedules the close; transport
/// failures and clean EOFs close silently.
fn fail_request(ctx: &Ctx<'_>, conn: &mut Conn, error: &HttpError) -> Next {
    match error.status() {
        Some(status) => {
            ctx.state.metrics.count(Counter::Requests);
            ctx.state.metrics.count_status(status);
            let response = Response::error(status, &error.to_string());
            // The client may still be mid-send (oversized or malformed
            // body): drain before closing so the response survives.
            start_write(ctx, conn, response, false, true)
        }
        None => Next::Close { reaped: false },
    }
}

/// Serialises `response`'s head into the connection's outbound buffer,
/// adopts the shared body allocation as-is (zero-copy), and pushes as much
/// as the socket takes right now.
fn start_write(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    mut response: Response,
    keep_alive: bool,
    drain: bool,
) -> Next {
    // Stamp the request id (echoed as `X-Request-Id`) and open the write
    // segment; the trace seals when the last byte goes out.
    if let Some(trace) = &conn.trace {
        response.request_id = Some(trace.id);
        conn.seg_start = Instant::now();
    }
    let head = response.head_bytes(keep_alive);
    // A 204 carries no body on the wire whatever the struct holds.
    let body: Arc<[u8]> = if response.status == 204 { Vec::new().into() } else { response.body };
    conn.phase = Phase::Writing {
        head,
        body,
        written: 0,
        close_after: !keep_alive,
        drain,
        counted: false,
        status: response.status,
    };
    drive_write(ctx, conn)
}

/// Pushes outbound bytes until the socket refuses or the response
/// completes; a completed keep-alive exchange immediately re-parses any
/// pipelined leftovers (they live in the reader's user-space buffer, which
/// the poller cannot see).
fn drive_write(ctx: &Ctx<'_>, conn: &mut Conn) -> Next {
    loop {
        let Phase::Writing { head, body, written, close_after, drain, counted, status } =
            &mut conn.phase
        else {
            return Next::Keep;
        };
        if *written == head.len() + body.len() {
            let (close_after, drain, status, bytes) = (*close_after, *drain, *status, body.len());
            // The response's last byte is out: close the write segment and
            // seal the trace (endpoint histogram, access log, slow dump,
            // recent ring). Taking it arms the next request's lazy open.
            if let Some(trace) = conn.trace.take() {
                trace.recorder.record("write", conn.seg_start, Instant::now(), None);
                ctx.state.obs.finish_request(&trace, status, bytes);
            }
            if close_after {
                if drain {
                    conn.phase =
                        Phase::Draining { deadline: Instant::now() + DRAIN_WINDOW, drained: 0 };
                    conn.want = Interest::READ;
                    return drive_drain(conn);
                }
                return Next::Close { reaped: false };
            }
            conn.phase = Phase::ReadingHead;
            conn.want = Interest::READ;
            conn.last_activity = Instant::now();
            return drive_read(ctx, conn);
        }
        // Head first, then the shared body, one offset across both.
        let slice: &[u8] =
            if *written < head.len() { &head[*written..] } else { &body[*written - head.len()..] };
        match conn.reader.source_mut().write(slice) {
            Ok(0) => return Next::Close { reaped: false },
            Ok(n) => {
                *written += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if !*counted {
                    *counted = true;
                    ctx.state.metrics.count(Counter::PartialWrites);
                }
                conn.want = Interest::WRITE;
                return Next::Keep;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Next::Close { reaped: false },
        }
    }
}

/// Reads out and discards what the closing client already sent, bounded by
/// [`DRAIN_WINDOW`] (enforced by the sweep) and [`DRAIN_CAP`].
fn drive_drain(conn: &mut Conn) -> Next {
    let Phase::Draining { deadline, drained } = &mut conn.phase else {
        return Next::Keep;
    };
    let mut scratch = [0u8; 16 * 1024];
    loop {
        if *drained >= DRAIN_CAP || Instant::now() >= *deadline {
            return Next::Close { reaped: false };
        }
        match conn.reader.source_mut().read(&mut scratch) {
            Ok(0) => return Next::Close { reaped: false },
            Ok(n) => *drained += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Next::Keep,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Next::Close { reaped: false },
        }
    }
}
