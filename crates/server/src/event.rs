//! The readiness-driven connection core: one epoll event thread that owns
//! every socket, nonblocking.
//!
//! The [`Reactor`] is the event thread's [`Poller`], the [`Waker`] that
//! interrupts its waits, and the mailbox workers post finished responses
//! through. The listener (nonblocking) lives in the same poller. The
//! thread runs [`event_loop`]: wait for readiness, accept, drive every
//! ready connection's state machine as far as the socket allows, deliver
//! worker replies, sweep idle connections.
//!
//! A connection's life is the [`Phase`] machine:
//!
//! ```text
//! ReadingHead ──▶ ReadingBody ──▶ Dispatched ──▶ Writing ──▶ ReadingHead
//!      │                              ▲             │    └──▶ Draining ─▶ closed
//!      └── protocol error ────────────┴─────────────┘
//! ```
//!
//! Parsing is *incremental*: heads and bodies advance exactly as far as the
//! bytes at hand ([`RequestReader`] suspends losslessly on `WouldBlock`),
//! so a slow or stalled client costs one parked `Conn` struct — never a
//! thread. Only a *complete* request crosses the [`WorkQueue`] to the
//! worker pool, which parses its body (JSON or CSV); a full queue answers
//! 503 immediately (the backpressure valve). Responses are written back
//! nonblocking too: what doesn't fit the socket buffer waits in the
//! connection's outbound buffer for write-readiness.
//!
//! Tokens are allocated from a counter and never reused, so a stale
//! readiness report from a closed connection's file descriptor can never
//! be misrouted to its fd-recycling successor.

use crate::http::{BodyProgress, Head, HttpError, Request, RequestReader, Response};
use crate::metrics::Counter;
use crate::obs::{endpoint_label, RequestTrace};
use crate::server::AppState;
use poller::{Events, Interest, Poller, Waker};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Token of the reactor's wakeup eventfd.
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

/// A worker's finished response, posted back to the event thread.
pub(crate) struct Reply {
    /// The connection the response belongs to (may have closed since —
    /// then the response is simply dropped).
    pub(crate) token: u64,
    /// The response to serialise and write.
    pub(crate) response: Response,
}

/// The event thread's shared half: the poller that owns every socket, the
/// eventfd that interrupts its waits, and the mailbox workers post through.
pub(crate) struct Reactor {
    /// The epoll instance; the listener and every connection are
    /// registered here.
    pub(crate) poller: Poller,
    /// Wakes the poller from other threads (worker replies, shutdown).
    pub(crate) waker: Waker,
    mailbox: Mutex<Vec<Reply>>,
}

impl Reactor {
    /// A reactor with a fresh poller and its waker already registered.
    pub(crate) fn new() -> io::Result<Reactor> {
        let poller = Poller::new()?;
        let waker = Waker::new(&poller, WAKER_TOKEN)?;
        Ok(Reactor { poller, waker, mailbox: Mutex::new(Vec::new()) })
    }

    /// Posts a reply and wakes the event loop.
    pub(crate) fn post(&self, reply: Reply) {
        self.mailbox.lock().expect("reactor mailbox").push(reply);
        self.waker.wake();
    }

    pub(crate) fn take_replies(&self) -> Vec<Reply> {
        std::mem::take(&mut *self.mailbox.lock().expect("reactor mailbox"))
    }
}

/// One complete request crossing from the event thread to the worker pool.
pub(crate) struct Work {
    /// The connection's token.
    pub(crate) token: u64,
    /// The request, body framed and materialised.
    pub(crate) request: Request,
    /// The request's trace; the worker records queue-wait and handler
    /// spans into it (the connection keeps its own handle for the write
    /// segment and the final seal).
    pub(crate) trace: Option<Arc<RequestTrace>>,
    /// When the event loop pushed this work — the queue-wait span's start.
    pub(crate) queued_at: Instant,
}

/// The bounded hand-off between the event thread and the worker pool.
/// Beyond `capacity` queued requests the event loop answers 503 instead —
/// the explicit backpressure point of the whole server.
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
    /// Accumulating the framed body into memory.
    ReadingBody { head: Head, progress: BodyProgress, body: Vec<u8> },
    /// The complete request is with a worker; no read/write interest (the
    /// poller still reports hangups, which free the connection early).
    /// `keep_alive` is the request's own wish, for the reply's write.
    Dispatched { keep_alive: bool },
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
    token: u64,
}

/// Runs the event loop until shutdown: accepts on `listener`, and drives
/// every connection.
pub(crate) fn event_loop(state: &AppState, listener: &TcpListener) {
    let reactor = &state.reactor;
    reactor
        .poller
        .add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
        .expect("register listener");
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
        let _ = reactor.poller.wait(&mut events, Some(timeout));
        if state.shutdown_requested() {
            break;
        }
        let mut accept_ready = false;
        for event in events.iter() {
            match event.token {
                LISTENER_TOKEN => accept_ready = true,
                WAKER_TOKEN => reactor.waker.clear(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else { continue };
                    let ctx = Ctx { state, token };
                    let next = match conn.phase {
                        // A hangup while parked frees the slot early; the
                        // worker's late response finds no connection and is
                        // dropped.
                        Phase::Dispatched { .. } => {
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
                    settle(state, &mut conns, token, next);
                }
            }
        }
        for Reply { token, response } in reactor.take_replies() {
            let Some(conn) = conns.get_mut(&token) else { continue };
            let Phase::Dispatched { keep_alive } = conn.phase else { continue };
            let keep_alive = keep_alive && !state.shutdown_requested();
            let next = start_write(&Ctx { state, token }, conn, response, keep_alive, false);
            settle(state, &mut conns, token, next);
        }
        if accept_ready {
            drain_accepts(state, listener, &mut conns, &mut next_token);
        }
        let now = Instant::now();
        if now >= next_sweep {
            next_sweep = now + granularity;
            sweep(state, &mut conns, now);
        }
    }
    // Shutdown: close every connection still open (queued worker replies
    // for them are dropped when the reply finds no connection).
    let tokens: Vec<u64> = conns.keys().copied().collect();
    for token in tokens {
        close_conn(state, &mut conns, token, false);
    }
}

/// Applies a drive step's verdict: re-sync interest or close.
fn settle(state: &AppState, conns: &mut HashMap<u64, Conn>, token: u64, next: Next) {
    match next {
        Next::Keep => {
            if let Some(conn) = conns.get_mut(&token) {
                if conn.want != conn.registered {
                    let _ = state.reactor.poller.modify(conn.fd(), token, conn.want);
                    conn.registered = conn.want;
                }
            }
        }
        Next::Close { reaped } => close_conn(state, conns, token, reaped),
    }
}

fn close_conn(state: &AppState, conns: &mut HashMap<u64, Conn>, token: u64, reaped: bool) {
    if let Some(conn) = conns.remove(&token) {
        let _ = state.reactor.poller.remove(conn.fd());
        state.metrics.conn_closed();
        if reaped {
            state.metrics.count(Counter::IdleReaped);
        }
    }
}

/// Accepts until the listener runs dry, registering every connection the
/// cap admits.
fn drain_accepts(
    state: &AppState,
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
        register_conn(state, conns, next_token, stream);
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
    if state.reactor.poller.add(stream.as_raw_fd(), token, Interest::READ).is_err() {
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
fn sweep(state: &AppState, conns: &mut HashMap<u64, Conn>, now: Instant) {
    let dead: Vec<(u64, bool)> = conns
        .iter()
        .filter_map(|(&token, conn)| match conn.phase {
            Phase::Dispatched { .. } => None,
            Phase::Draining { deadline, .. } => (now >= deadline).then_some((token, false)),
            _ => (now.duration_since(conn.last_activity) > state.idle_timeout)
                .then_some((token, true)),
        })
        .collect();
    for (token, reaped) in dead {
        close_conn(state, conns, token, reaped);
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
                        conn.phase = Phase::ReadingBody { head, progress, body: Vec::new() };
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
                            std::mem::replace(&mut conn.phase, Phase::ReadingHead)
                        else {
                            unreachable!("phase checked above")
                        };
                        finish_segment(conn, "body_read");
                        return dispatch(ctx, conn, Request { head, body });
                    }
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        body.extend_from_slice(&chunk[..n]);
                    }
                    Err(e) if is_would_block(&e) => return Next::Keep,
                    Err(e) => return fail_request(ctx, conn, &e),
                }
            }
            Phase::Draining { .. } => return drive_drain(conn),
            Phase::Dispatched { .. } | Phase::Writing { .. } => return Next::Keep,
        }
    }
}

/// Parks a complete request with the worker pool, or answers 503 when the
/// queue is full — the backpressure point. The rejected request is counted
/// like a refused connection (`rejected_busy` + 503), not as a routed
/// request.
fn dispatch(ctx: &Ctx<'_>, conn: &mut Conn, request: Request) -> Next {
    let keep_alive = request.head.keep_alive();
    let work =
        Work { token: ctx.token, request, trace: conn.trace.clone(), queued_at: Instant::now() };
    if ctx.state.work.push(work) {
        conn.phase = Phase::Dispatched { keep_alive };
        conn.want = Interest::NONE;
        Next::Keep
    } else {
        ctx.state.metrics.count(Counter::ConnectionsRejected);
        ctx.state.metrics.count_status(503);
        let response = Response::error(503, "server is at capacity; retry shortly");
        start_write(ctx, conn, response, false, false)
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
